// Page protections and guest-visible fault plumbing.
//
// Protections are page-granular and advisory: the raw accessors in mem.go
// (Read/Write/ReadBytes/...) never check them, because the machine
// simulator and the BT use those for host-side state the guest must not be
// able to fence off (code cache, IBTC, streak counters). Guest-visible
// enforcement happens at two layers above:
//
//   - The interpreter (internal/guest) consults CheckRange/CheckFetch
//     before every access and raises a typed Fault, all-or-nothing: a
//     multi-byte access that would cross into a forbidden page completes
//     zero bytes (Fault.Completed reports how many bytes *could* have
//     completed before the faulting page, for the resumable-completion
//     accounting).
//
//   - The machine simulator gates every translated load/store on
//     AccessTrap, a dense per-page trap-bit table, and hands hits to the
//     BT's access-fault handler. The table is a superset filter: it also
//     carries store "guard" bits on the page after any store-restricted or
//     watched page, so an MDA store sequence — which commits its high
//     quadword first — traps before the first byte of a page-spanning
//     store lands, never after. False positives (guard hits on an access
//     whose guest-level range is fine) are resolved by the handler via
//     CheckRange and re-executed raw.
//
// Watch bits are the self-modifying-code hook: a watched page traps stores
// like a write-protected one at the machine layer, but CheckRange ignores
// it — the store is architecturally allowed and the BT completes it after
// invalidating translations.
package mem

import "fmt"

// Prot is a page protection bit set.
type Prot uint8

// Protection bits.
const (
	ProtRead Prot = 1 << iota
	ProtWrite
	ProtExec

	ProtRW  = ProtRead | ProtWrite
	ProtAll = ProtRead | ProtWrite | ProtExec
)

func (p Prot) String() string {
	b := []byte("---")
	if p&ProtRead != 0 {
		b[0] = 'r'
	}
	if p&ProtWrite != 0 {
		b[1] = 'w'
	}
	if p&ProtExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Fault describes one guest-visible memory fault: an access (or fetch)
// that touched an unmapped or protection-restricted page. Addr is the
// first byte that could not be accessed — for a page-spanning access that
// is legal on its first page, Addr is the boundary of the faulting page
// and Completed counts the bytes before it that could have completed.
type Fault struct {
	Addr      uint64 // first faulting byte
	Size      int    // size of the attempted access
	Write     bool   // store (or store half of a copy)
	Exec      bool   // instruction fetch
	Unmapped  bool   // page absent rather than protection-restricted
	Completed int    // accessible bytes preceding Addr within the access
}

// Error renders the fault.
func (f *Fault) Error() string {
	kind := "load"
	switch {
	case f.Exec:
		kind = "fetch"
	case f.Write:
		kind = "store"
	}
	cause := "protection"
	if f.Unmapped {
		cause = "unmapped page"
	}
	return fmt.Sprintf("mem: %s fault at %#x (%s, size %d, %d/%d bytes completable)",
		kind, f.Addr, cause, f.Size, f.Completed, f.Size)
}

// pageProt is the protection record for one page; pages without a record
// are mapped ProtAll.
type pageProt struct {
	prot     Prot
	unmapped bool
}

// Machine-layer trap bits, one byte per page. tGuard marks the page after
// a store-trapping page (see the package comment in this file).
const (
	tLoad uint8 = 1 << iota
	tStore
	tGuard
)

// protState carries all protection machinery; embedded by value in Memory
// so the zero Memory stays ready to use.
//
// The trap table covers pages [0, highest page ever armed + 2): it grows
// on demand and is never shrunk, so its size follows what the guest
// touches rather than the 4 GiB protectable range. Pages past its end
// read as clear. Reset keeps it and zeroes only the entries the prots and
// watch keys can have set.
type protState struct {
	prots map[uint64]pageProt // page index → protections; absent ⇒ rwx
	watch map[uint64]bool     // page index → store watch (SMC hook)
	trap  []uint8             // dense per-page trap bits
	armed bool                // any Protect/Unmap/Map/SetWatch since Reset
}

// Protect sets the protection of every page overlapping [addr, addr+size)
// and maps the pages if they were unmapped. Protections are limited to the
// dense low-4-GiB region; Protect panics above it.
func (m *Memory) Protect(addr, size uint64, p Prot) {
	m.eachPage("Protect", addr, size, func(i uint64) {
		if p == ProtAll {
			delete(m.prots, i)
		} else {
			if m.prots == nil {
				m.prots = make(map[uint64]pageProt)
			}
			m.prots[i] = pageProt{prot: p}
		}
	})
}

// Map restores every page overlapping [addr, addr+size) to mapped rwx.
func (m *Memory) Map(addr, size uint64) { m.Protect(addr, size, ProtAll) }

// Unmap marks every page overlapping [addr, addr+size) unmapped: any guest
// access or fetch touching them faults. The backing bytes are retained (a
// later Map exposes them again); use Reset to drop contents.
func (m *Memory) Unmap(addr, size uint64) {
	m.eachPage("Unmap", addr, size, func(i uint64) {
		if m.prots == nil {
			m.prots = make(map[uint64]pageProt)
		}
		m.prots[i] = pageProt{unmapped: true}
	})
}

// SetWatch arms (or disarms) the store watch on every page overlapping
// [addr, addr+size). Watched stores trap at the machine layer but are
// architecturally allowed; the BT uses this to detect self-modifying code.
func (m *Memory) SetWatch(addr, size uint64, on bool) {
	m.eachPage("SetWatch", addr, size, func(i uint64) {
		if on {
			if m.watch == nil {
				m.watch = make(map[uint64]bool)
			}
			m.watch[i] = true
		} else {
			delete(m.watch, i)
		}
	})
}

// eachPage applies fn to every page index overlapping [addr, addr+size)
// and refreshes the affected trap-table entries (each changed page and its
// successor, which inherits the store-guard bit).
func (m *Memory) eachPage(op string, addr, size uint64, fn func(i uint64)) {
	if size == 0 {
		return
	}
	if addr >= denseLimit || addr+size > denseLimit {
		panic(fmt.Sprintf("mem: %s range [%#x,%#x) outside the protectable low 4 GiB", op, addr, addr+size))
	}
	first, last := addr>>PageShift, (addr+size-1)>>PageShift
	for i := first; i <= last; i++ {
		fn(i)
	}
	m.armed = true
	if need := last + 2; need > uint64(len(m.trap)) {
		m.trap = append(m.trap, make([]uint8, need-uint64(len(m.trap)))...)
	}
	for i := first; i <= last+1; i++ {
		m.refreshTrap(i)
	}
}

// ownTrapBits computes page i's own trap bits from protections and watch.
func (m *Memory) ownTrapBits(i uint64) uint8 {
	var b uint8
	if ps, ok := m.prots[i]; ok {
		switch {
		case ps.unmapped:
			b |= tLoad | tStore
		default:
			if ps.prot&ProtRead == 0 {
				b |= tLoad
			}
			if ps.prot&ProtWrite == 0 {
				b |= tStore
			}
		}
	}
	if m.watch[i] {
		b |= tStore
	}
	return b
}

// refreshTrap recomputes the trap-table entry for page i, which the
// table must cover.
func (m *Memory) refreshTrap(i uint64) {
	b := m.ownTrapBits(i)
	if i > 0 && m.ownTrapBits(i-1)&tStore != 0 {
		b |= tGuard
	}
	m.trap[i] = b
}

// Armed reports whether any protection or watch has ever been set since
// the last Reset — the machine's fast gate around AccessTrap.
func (m *Memory) Armed() bool { return m.armed }

// AccessTrap reports whether a host access of size bytes at addr must trap
// to the BT's access-fault handler. It is a superset filter (guard bits
// fire on legal accesses); the handler disambiguates with CheckRange.
// Safe and false when no protections are armed.
func (m *Memory) AccessTrap(addr uint64, size int, store bool) bool {
	t := m.trap
	if len(t) == 0 {
		return false
	}
	want := tLoad
	if store {
		want = tStore | tGuard
	}
	i := addr >> PageShift
	if i < uint64(len(t)) && t[i]&want != 0 {
		return true
	}
	if j := (addr + uint64(size) - 1) >> PageShift; j != i && j < uint64(len(t)) && t[j]&want != 0 {
		return true
	}
	return false
}

// PageTrapped reports whether host accesses contained in addr's page can
// trap: load gates loads, store gates stores (protection, watch, and
// store-guard bits, exactly the predicate AccessTrap applies). Callers
// that memoize a page may use the two bits in place of per-access
// AccessTrap calls for accesses that cannot cross out of the page — valid
// only while no protection state changes, so the memo must be dropped at
// any point a protection mutation can run.
func (m *Memory) PageTrapped(addr uint64) (load, store bool) {
	t := m.trap
	i := addr >> PageShift
	if i >= uint64(len(t)) {
		return false, false
	}
	b := t[i]
	return b&tLoad != 0, b&(tStore|tGuard) != 0
}

// Watched reports whether the page holding addr carries a store watch.
// Every watched page has its trap-table store bit set, so the watch map is
// probed only for a page whose bit is.
func (m *Memory) Watched(addr uint64) bool {
	i := addr >> PageShift
	return i < uint64(len(m.trap)) && m.trap[i]&tStore != 0 && m.watch[i]
}

// WatchedRange reports whether any page overlapping [addr, addr+n) is
// watched, filtering on the trap table as Watched does.
func (m *Memory) WatchedRange(addr uint64, n int) bool {
	if n <= 0 {
		return false
	}
	t := m.trap
	first, last := addr>>PageShift, (addr+uint64(n)-1)>>PageShift
	for i := first; i <= last && i < uint64(len(t)); i++ {
		if t[i]&tStore != 0 && m.watch[i] {
			return true
		}
	}
	return false
}

// ProtAt returns the protection of the page holding addr and whether it is
// mapped. Pages never protected report (ProtAll, true).
func (m *Memory) ProtAt(addr uint64) (Prot, bool) {
	if ps, ok := m.prots[addr>>PageShift]; ok {
		if ps.unmapped {
			return 0, false
		}
		return ps.prot, true
	}
	return ProtAll, true
}

// CheckRange checks a guest data access of n bytes at addr against the
// page protections, all-or-nothing: the first page that refuses the access
// faults the whole access. Watch bits are ignored (watched stores are
// architecturally legal). Returns nil when the access is fully allowed.
//
// The page walk is the checked counterpart of the word-copy fast paths in
// mem.go: an access is only ever performed raw after every page it touches
// — including across page boundaries — has passed here.
func (m *Memory) CheckRange(addr uint64, n int, write bool) *Fault {
	if len(m.prots) == 0 || n <= 0 {
		return nil
	}
	first, last := addr>>PageShift, (addr+uint64(n)-1)>>PageShift
	for i := first; i <= last; i++ {
		ps, ok := m.prots[i]
		if !ok {
			continue
		}
		bad := ps.unmapped
		if !bad {
			if write {
				bad = ps.prot&ProtWrite == 0
			} else {
				bad = ps.prot&ProtRead == 0
			}
		}
		if !bad {
			continue
		}
		fa := addr
		if pb := i << PageShift; pb > fa {
			fa = pb
		}
		return &Fault{Addr: fa, Size: n, Write: write, Unmapped: ps.unmapped, Completed: int(fa - addr)}
	}
	return nil
}

// CheckFetch checks an instruction fetch of n bytes at addr (execute
// permission), with the same all-or-nothing contract as CheckRange.
func (m *Memory) CheckFetch(addr uint64, n int) *Fault {
	if len(m.prots) == 0 || n <= 0 {
		return nil
	}
	first, last := addr>>PageShift, (addr+uint64(n)-1)>>PageShift
	for i := first; i <= last; i++ {
		ps, ok := m.prots[i]
		if !ok {
			continue
		}
		if !ps.unmapped && ps.prot&ProtExec != 0 {
			continue
		}
		fa := addr
		if pb := i << PageShift; pb > fa {
			fa = pb
		}
		return &Fault{Addr: fa, Size: n, Exec: true, Unmapped: ps.unmapped, Completed: int(fa - addr)}
	}
	return nil
}

// ReadChecked reads n bytes at addr as a little-endian integer after
// checking read permission on every page the access touches.
func (m *Memory) ReadChecked(addr uint64, n int) (uint64, *Fault) {
	if f := m.CheckRange(addr, n, false); f != nil {
		return 0, f
	}
	return m.Read(addr, n), nil
}

// WriteChecked writes the n low-order bytes of v at addr after checking
// write permission on every page the access touches. On fault nothing is
// written — zero observable partial bytes.
func (m *Memory) WriteChecked(addr uint64, v uint64, n int) *Fault {
	if f := m.CheckRange(addr, n, true); f != nil {
		return f
	}
	m.Write(addr, v, n)
	return nil
}

// resetProt drops all protection and watch state (Reset hook). The maps
// and the trap table are kept: only the table entries a prots or watch key
// can have set (the page and its guard successor) are zeroed, so the cost
// follows the pages armed, not the table's size.
func (m *Memory) resetProt() {
	for i := range m.prots {
		m.trap[i], m.trap[i+1] = 0, 0
	}
	for i := range m.watch {
		m.trap[i], m.trap[i+1] = 0, 0
	}
	clear(m.prots)
	clear(m.watch)
	m.armed = false
}

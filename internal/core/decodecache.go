package core

import (
	"mdabt/internal/guest"
	"mdabt/internal/mem"
)

// decEntry is the one record per guest PC: the cached decode (lowered for
// the guest executor), the instruction's alignment profile and the engine's
// run state for that PC. The profile lives in the entry, so the executor
// updates it through the entry it is running with no per-access map lookup.
type decEntry = guest.Slot[pcState]

// pcState is the engine's run state for one guest PC (paper Fig. 9: every
// heating, blacklisting, trap and revert decision is keyed by a guest PC).
// It hangs off the decode-cache entry, so it survives everything the
// entry's decode does not: a guest store over the instruction
// (invalidateWrite), a profile reset (clearProf), block invalidation and
// full cache flushes. Only configure (Engine.Reset) drops it, with the
// decode cache itself.
type pcState struct {
	// Per-instruction facts.
	traps   uint64 // misalignment traps delivered at this registered site
	softEmu bool   // demoted to soft emulation by the trap-storm limiter

	// Block-start facts.
	blacklisted bool   // failed translation past the flush ladder: interpreted forever
	blk         *block // live translation starting here; nil when none
	heat        uint64 // interpreted executions so far (two-phase heating)
	// succ counts successor blocks for trace formation; it is kept only
	// under Options.Superblocks (nil until the first count). Per-site
	// alignment profiles stay per instruction, so a trace's translation
	// sees the profiles of every block it folds in.
	succ map[uint32]uint64
	// retained holds the unit's instruction indices the exception handler
	// has seen trap, so retranslations (§IV-C) inline their sequences;
	// reverted holds those the adaptive monitor (§IV-D) demoted back to
	// plain operations. Both are keyed by unit index, not guest PC: which
	// unit an instruction trapped in decides what is retranslated.
	retained, reverted idxSet
}

// idxSet is a set of instruction indices within one translation unit.
type idxSet [(maxTraceInsts + 63) / 64]uint64

func (s *idxSet) add(i int)      { s[i/64] |= 1 << (i % 64) }
func (s *idxSet) del(i int)      { s[i/64] &^= 1 << (i % 64) }
func (s *idxSet) has(i int) bool { return s[i/64]&(1<<(i%64)) != 0 }

// Guest code is loaded contiguously at guest.CodeBase, so the decode cache
// is PC-indexed: a dense window of decDenseLimit bytes starting at the code
// base, grown on demand, with a map fallback for the rare instruction
// outside it (tests placing code elsewhere). One entry per byte address —
// the guest ISA is variable-length, so any byte can start an instruction.
const (
	decDenseBase  = uint32(guest.CodeBase)
	decDenseLimit = uint32(4 << 20)
)

// decodeCache is a PC-indexed cache of decoded guest instructions, and the
// engine's per-guest-PC table. The zero value is ready to use. Its dense
// window is the guest executor's table (guest.Code), so straight-line code
// runs from slot to slot with no probe; the far entries keep their span in
// the table's FarLo/FarEnd, so the executor's MayContain can clear a store
// outside it without probing the map. Decodes stay valid until a guest
// store overlaps their encoded bytes (self-modifying code): the owner
// routes such stores through invalidateWrite, which drops every decode the
// write could have changed. Per-site profiles can also be reset
// individually (retranslation restarts profiling).
//
// entry may grow the dense arena, which moves every entry: hold *pcState
// (heap allocated), never *decEntry, across a call that may decode.
type decodeCache struct {
	guest.Code[pcState] // Dense is indexed by pc - decDenseBase
	far                 map[uint32]*decEntry
}

// entry returns the cache slot for pc, allocating backing storage as needed.
func (c *decodeCache) entry(pc uint32) *decEntry {
	if off := pc - decDenseBase; off < decDenseLimit {
		if off >= uint32(len(c.Dense)) {
			newLen := uint32(2 * len(c.Dense))
			if newLen < off+64 {
				newLen = off + 64
			}
			if newLen > decDenseLimit {
				newLen = decDenseLimit
			}
			nd := make([]decEntry, newLen)
			copy(nd, c.Dense)
			c.Dense = nd
		}
		return &c.Dense[off]
	}
	if c.far == nil {
		c.far = make(map[uint32]*decEntry)
	}
	de := c.far[pc]
	if de == nil {
		if len(c.far) == 0 {
			c.FarLo, c.FarEnd = uint64(pc), uint64(pc)+guest.MaxInstLen
		}
		c.FarLo = min(c.FarLo, uint64(pc))
		c.FarEnd = max(c.FarEnd, uint64(pc)+guest.MaxInstLen)
		de = new(decEntry)
		c.far[pc] = de
	}
	return de
}

// reset drops every decode, profile and run state, keeping the dense arena.
func (c *decodeCache) reset() {
	clear(c.Dense)
	clear(c.far)
	c.FarLo, c.FarEnd = 0, 0
}

// peek returns the slot for pc without allocating, or nil if none exists.
func (c *decodeCache) peek(pc uint32) *decEntry {
	if off := pc - decDenseBase; off < decDenseLimit {
		if off < uint32(len(c.Dense)) {
			return &c.Dense[off]
		}
		return nil
	}
	return c.far[pc]
}

// decoded returns the decoded instruction entry for pc, decoding from m on a
// cache miss. fresh reports a miss that actually decoded (the caller may
// want to watch the underlying code pages for self-modification). On armed
// memory a miss checks the fetch of the first byte before decoding, so a PC
// the guest cannot execute faults precisely (*guest.Fault) whatever bytes
// its page holds, and the fetch of the whole instruction before keeping the
// decode: only fetchable instructions are cached.
func (c *decodeCache) decoded(pc uint32, m *mem.Memory) (de *decEntry, fresh bool, err error) {
	de = c.entry(pc)
	if de.Len == 0 {
		if err := fetchCheck(m, pc, 1); err != nil {
			return nil, false, err
		}
		var buf [guest.MaxInstLen]byte
		m.ReadBytes(uint64(pc), buf[:])
		inst, n, derr := guest.Decode(buf[:])
		if derr != nil {
			return nil, false, derr
		}
		if err := fetchCheck(m, pc, n); err != nil {
			return nil, false, err
		}
		de.Fill(inst, n)
		fresh = true
	}
	return de, fresh, nil
}

// fetchCheck returns the *guest.Fault of fetching n bytes at pc, or nil when
// the fetch is allowed (always, on unarmed memory).
func fetchCheck(m *mem.Memory, pc uint32, n int) error {
	if m.Armed() {
		if mf := m.CheckFetch(uint64(pc), n); mf != nil {
			return &guest.Fault{PC: pc, Mem: *mf}
		}
	}
	return nil
}

// invalidateWrite drops every cached decode a guest store to [addr,
// addr+size) could have changed: any entry whose encoded bytes overlap the
// write, i.e. entries starting as far back as MaxInstLen-1 bytes before it.
// Profiles go with the decode — the site is a different instruction now —
// but the run state stays: it is keyed by the PC, not the instruction.
// It returns the number of entries dropped.
func (c *decodeCache) invalidateWrite(addr uint64, size int) int {
	n := 0
	lo := addr - (guest.MaxInstLen - 1)
	if addr < guest.MaxInstLen-1 {
		lo = 0
	}
	for a := lo; a < addr+uint64(size) && a <= 0xFFFF_FFFF; a++ {
		if de := c.peek(uint32(a)); de != nil && de.Len != 0 {
			de.Len = 0
			de.Prof = nil
			n++
		}
	}
	return n
}

// profAt returns the alignment profile recorded for pc, or nil if the site
// has never been profiled.
func (c *decodeCache) profAt(pc uint32) *guest.SiteCount {
	if de := c.peek(pc); de != nil {
		return de.Prof
	}
	return nil
}

// clearProf drops pc's alignment profile (block retranslation restarts
// profiling from scratch, §IV-C).
func (c *decodeCache) clearProf(pc uint32) {
	if de := c.peek(pc); de != nil {
		de.Prof = nil
	}
}

// state returns pc's run state, creating it (and its slot) on first use.
func (c *decodeCache) state(pc uint32) *pcState {
	de := c.entry(pc)
	if de.St == nil {
		de.St = &pcState{}
	}
	return de.St
}

// stateAt returns pc's run state without allocating, or nil if none exists.
func (c *decodeCache) stateAt(pc uint32) *pcState {
	if de := c.peek(pc); de != nil {
		return de.St
	}
	return nil
}

// blockAt returns the live translation starting at pc, or nil.
func (c *decodeCache) blockAt(pc uint32) *block {
	if st := c.stateAt(pc); st != nil {
		return st.blk
	}
	return nil
}

// each calls fn for every slot: the dense window in PC order, then the far
// entries in map order.
func (c *decodeCache) each(fn func(pc uint32, de *decEntry)) {
	for i := range c.Dense {
		fn(decDenseBase+uint32(i), &c.Dense[i])
	}
	for pc, de := range c.far {
		fn(pc, de)
	}
}

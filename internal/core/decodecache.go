package core

import (
	"mdabt/internal/guest"
	"mdabt/internal/mem"
)

// decEntry is the one record per guest PC: the cached decode, the
// instruction's alignment profile and the engine's run state for that PC.
// Fusing the profile pointer into the decode entry removes the separate
// per-memory-op profile map lookup from the interpreter's inner loop: the
// entry is already in hand when the profile is updated.
type decEntry struct {
	inst guest.Inst
	len  uint8        // encoded length; 0 = not decoded yet
	prof *siteProfile // lazily created on first profiled execution
	st   *pcState     // engine run state; created only by the engine (never by RunCensus)
}

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

// profile returns the entry's alignment profile, creating it on first use.
func (de *decEntry) profile() *siteProfile {
	if de.prof == nil {
		de.prof = &siteProfile{}
	}
	return de.prof
}

// count adds one execution's data accesses to the entry's alignment
// profile and returns how many were misaligned. Byte accesses are never
// misaligned and are not profiled; both halves of a REPMOVS4 step count at
// its site. RunCensus and the engine's interpreter share it; it inlines
// into their loops, so an instruction without a profiled access costs one
// compare.
func (de *decEntry) count(acc *guest.Access) uint64 {
	if acc.Size < 2 {
		return 0
	}
	return de.add(acc)
}

// add records acc's accesses (of two bytes or more) and returns how many
// were misaligned.
func (de *decEntry) add(acc *guest.Access) (mdas uint64) {
	s := de.profile()
	if acc.MDA() {
		s.mda++
		mdas++
	} else {
		s.aligned++
	}
	if acc.N == 2 {
		if acc.MDA2() {
			s.mda++
			mdas++
		} else {
			s.aligned++
		}
	}
	return mdas
}

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
// engine's per-guest-PC table. The zero value is ready to use. Decodes stay
// valid until a guest store overlaps their encoded bytes (self-modifying
// code): the owner routes such stores through invalidateWrite, which drops
// every decode the write could have changed. Per-site profiles can also be
// reset individually (retranslation restarts profiling).
//
// entry may grow the dense arena, which moves every entry: hold *pcState
// (heap allocated), never *decEntry, across a call that may decode.
type decodeCache struct {
	dense []decEntry // indexed by pc - decDenseBase
	far   map[uint32]*decEntry
	// farLo and farHi bound the PCs of the far entries (valid while far is
	// non-empty), so mayContain can clear a store outside that span
	// without probing the map.
	farLo, farHi uint32
}

// entry returns the cache slot for pc, allocating backing storage as needed.
func (c *decodeCache) entry(pc uint32) *decEntry {
	if off := pc - decDenseBase; off < decDenseLimit {
		if off >= uint32(len(c.dense)) {
			newLen := uint32(2 * len(c.dense))
			if newLen < off+64 {
				newLen = off + 64
			}
			if newLen > decDenseLimit {
				newLen = decDenseLimit
			}
			nd := make([]decEntry, newLen)
			copy(nd, c.dense)
			c.dense = nd
		}
		return &c.dense[off]
	}
	if c.far == nil {
		c.far = make(map[uint32]*decEntry)
	}
	de := c.far[pc]
	if de == nil {
		if len(c.far) == 0 {
			c.farLo, c.farHi = pc, pc
		}
		c.farLo, c.farHi = min(c.farLo, pc), max(c.farHi, pc)
		de = new(decEntry)
		c.far[pc] = de
	}
	return de
}

// fallThrough returns the decoded entry at pc when pc lies in the grown
// dense window, or nil when the caller must probe with decoded. It is how
// the interpreter loops step to the next instruction of straight-line
// code: by index, with no probe. An entry a self-modifying store dropped
// reads as undecoded, so the caller's probe re-decodes the new bytes.
func (c *decodeCache) fallThrough(pc uint32) *decEntry {
	if off := pc - decDenseBase; off < uint32(len(c.dense)) && c.dense[off].len != 0 {
		return &c.dense[off]
	}
	return nil
}

// peek returns the slot for pc without allocating, or nil if none exists.
func (c *decodeCache) peek(pc uint32) *decEntry {
	if off := pc - decDenseBase; off < decDenseLimit {
		if off < uint32(len(c.dense)) {
			return &c.dense[off]
		}
		return nil
	}
	return c.far[pc]
}

// decoded returns the decoded instruction entry for pc, decoding from m on a
// cache miss. fresh reports a miss that actually decoded (the caller may
// want to watch the underlying code pages for self-modification).
func (c *decodeCache) decoded(pc uint32, m *mem.Memory) (de *decEntry, fresh bool, err error) {
	de = c.entry(pc)
	if de.len == 0 {
		var buf [guest.MaxInstLen]byte
		m.ReadBytes(uint64(pc), buf[:])
		inst, n, derr := guest.Decode(buf[:])
		if derr != nil {
			return nil, false, derr
		}
		de.inst, de.len = inst, uint8(n)
		fresh = true
	}
	return de, fresh, nil
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
		if de := c.peek(uint32(a)); de != nil && de.len != 0 {
			de.len = 0
			de.prof = nil
			n++
		}
	}
	return n
}

// mayContain reports whether any cached decode could overlap a write to
// [addr, addr+size) — a cheap bounds test against the grown dense window
// and the span of far entries that keeps invalidateWrite off the path of
// ordinary data stores.
func (c *decodeCache) mayContain(addr uint64, size int) bool {
	end := addr + uint64(size)
	if lo := uint64(decDenseBase); end > lo && addr < lo+uint64(len(c.dense))+guest.MaxInstLen {
		return true
	}
	return len(c.far) > 0 && end > uint64(c.farLo) && addr < uint64(c.farHi)+guest.MaxInstLen
}

// profAt returns the alignment profile recorded for pc, or nil if the site
// has never been profiled.
func (c *decodeCache) profAt(pc uint32) *siteProfile {
	if de := c.peek(pc); de != nil {
		return de.prof
	}
	return nil
}

// clearProf drops pc's alignment profile (block retranslation restarts
// profiling from scratch, §IV-C).
func (c *decodeCache) clearProf(pc uint32) {
	if de := c.peek(pc); de != nil {
		de.prof = nil
	}
}

// state returns pc's run state, creating it (and its slot) on first use.
func (c *decodeCache) state(pc uint32) *pcState {
	de := c.entry(pc)
	if de.st == nil {
		de.st = &pcState{}
	}
	return de.st
}

// stateAt returns pc's run state without allocating, or nil if none exists.
func (c *decodeCache) stateAt(pc uint32) *pcState {
	if de := c.peek(pc); de != nil {
		return de.st
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
	for i := range c.dense {
		fn(decDenseBase+uint32(i), &c.dense[i])
	}
	for pc, de := range c.far {
		fn(pc, de)
	}
}

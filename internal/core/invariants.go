package core

import (
	"fmt"

	"mdabt/internal/host"
	"mdabt/internal/mem"
)

// CheckInvariants validates the engine's internal consistency: code cache
// geometry, the block bindings in the per-PC table against the live
// blocks, each live unit's per-word table, the exit table, the IBTC mirror
// against its in-memory table, and the interpreter blacklist. It returns
// nil when every invariant holds and a descriptive error for the first
// violation found.
//
// The checker is the robustness harness's oracle: tests and `dbtrun
// -selfcheck` run it after every structural mutation (translate, patch,
// flush, rearrange, retranslate) so corruption is caught at the mutation
// that introduced it, not at the eventual wrong result.
func (e *Engine) CheckInvariants() error {
	// Code cache geometry: the two bump pointers stay inside the region
	// and never cross.
	cc := e.cc
	if cc.blockNext < cc.base || cc.blockNext > cc.stubNext || cc.stubNext > cc.base+cc.size {
		return fmt.Errorf("core: invariant: cache pointers out of order: base=%#x blockNext=%#x stubNext=%#x end=%#x",
			cc.base, cc.blockNext, cc.stubNext, cc.base+cc.size)
	}

	// Fault-attribution span table: well formed, in ascending host order
	// without overlap (blockSpanAt binary-searches it), and the count of
	// each live block's entries (spans are append-only per cache
	// generation; invalidated blocks may linger, live ones may not repeat).
	liveSpans := make(map[*block]int)
	for i, sp := range e.blockSpans {
		if sp.b == nil || sp.lo >= sp.hi {
			return fmt.Errorf("core: invariant: blockSpans[%d] malformed [%#x,%#x)", i, sp.lo, sp.hi)
		}
		if i > 0 && sp.lo < e.blockSpans[i-1].hi {
			return fmt.Errorf("core: invariant: blockSpans[%d] [%#x,%#x) is not above blockSpans[%d] [%#x,%#x)",
				i, sp.lo, sp.hi, i-1, e.blockSpans[i-1].lo, e.blockSpans[i-1].hi)
		}
		if !sp.b.invalid {
			liveSpans[sp.b]++
		}
	}

	// Per-PC table: every page the engine decoded guest code from is
	// still write-watched (an unwatched code page would let self-modifying
	// stores run stale translations), and every bound entry names a live
	// block — valid, keyed by its own guest PC, committed in this cache
	// generation exactly once — and no blacklisted PC has one (the two
	// dispatch paths would race over the same guest PC).
	var tableErr error
	e.dec.each(func(pc uint32, de *decEntry) {
		if tableErr != nil {
			return
		}
		if de.len > 0 {
			for _, p := range [2]uint64{uint64(pc), uint64(pc) + uint64(de.len) - 1} {
				if !e.Mem.Watched(p) {
					tableErr = fmt.Errorf("core: invariant: decoded code page %#x is not write-watched", p&^(mem.PageSize-1))
					return
				}
			}
		}
		if de.st == nil || de.st.blk == nil {
			return
		}
		switch b := de.st.blk; {
		case b.invalid:
			tableErr = fmt.Errorf("core: invariant: block %#x is bound but marked invalid", pc)
		case b.guestPC != pc:
			tableErr = fmt.Errorf("core: invariant: block table key %#x != block.guestPC %#x", pc, b.guestPC)
		case liveSpans[b] != 1:
			tableErr = fmt.Errorf("core: invariant: bound block %#x has %d fault-attribution spans, want 1", pc, liveSpans[b])
		case de.st.blacklisted:
			tableErr = fmt.Errorf("core: invariant: blacklisted guest %#x has a live translation", pc)
		}
	})
	if tableErr != nil {
		return tableErr
	}

	// Live blocks, in host order: each is bound at its start-PC entry, its
	// host span lies inside the block zone and agrees with its span entry,
	// and its per-word table describes exactly that span.
	for i, sp := range e.blockSpans {
		b, pc := sp.b, sp.b.guestPC
		if b.invalid {
			continue
		}
		if e.dec.blockAt(pc) != b {
			return fmt.Errorf("core: invariant: live block %#x is not bound at its start-PC entry", pc)
		}
		if b.hostEntry < cc.base || b.hostEntry+b.hostSize > cc.blockNext {
			return fmt.Errorf("core: invariant: block %#x host span [%#x,%#x) outside allocated zone [%#x,%#x)",
				pc, b.hostEntry, b.hostEntry+b.hostSize, cc.base, cc.blockNext)
		}
		if sp.lo != b.hostEntry || sp.hi != b.hostEntry+b.hostSize {
			return fmt.Errorf("core: invariant: blockSpans[%d] [%#x,%#x) disagrees with block %#x span [%#x,%#x)",
				i, sp.lo, sp.hi, pc, b.hostEntry, b.hostEntry+b.hostSize)
		}
		if err := b.checkWords(); err != nil {
			return fmt.Errorf("core: invariant: block %#x %w", pc, err)
		}
	}

	// Stub attribution ranges live in the allocated stub zone and name a
	// valid instruction of their block.
	for i, sr := range e.stubRanges {
		if sr.lo < cc.stubNext || sr.hi > cc.base+cc.size || sr.lo >= sr.hi {
			return fmt.Errorf("core: invariant: stubRanges[%d] [%#x,%#x) outside the stub zone [%#x,%#x)",
				i, sr.lo, sr.hi, cc.stubNext, cc.base+cc.size)
		}
		if sr.b == nil || sr.idx < 0 || sr.idx >= len(sr.b.insts) {
			return fmt.Errorf("core: invariant: stubRanges[%d] names inst %d of a %d-inst block", i, sr.idx, len(sr.b.insts))
		}
	}

	// The fault pad must still hold its BRKBT(svcFault) word: every precise
	// guest-fault delivery funnels through it.
	if err := e.faultPadIntact(); err != nil {
		return fmt.Errorf("core: invariant: %w", err)
	}

	// Exit and adaptive tables: translate registers a unit's exits and
	// adaptive refs only at its commit point, so the block behind each is
	// live or invalidated — never a unit that failed after emission. Exit
	// ids index their own slots; a linked exit's target must be a live
	// translation (invalidation unlinks incoming exits).
	registered := func(b *block) bool { return b.invalid || e.dec.blockAt(b.guestPC) == b }
	for i, ref := range e.adaptives {
		if !registered(ref.b) {
			return fmt.Errorf("core: invariant: adaptive site %d belongs to an unregistered block %#x", i, ref.b.guestPC)
		}
	}
	for i, ex := range e.exits {
		if int(ex.id) != i {
			return fmt.Errorf("core: invariant: exit %d carries id %d", i, ex.id)
		}
		if !registered(ex.from) {
			return fmt.Errorf("core: invariant: exit %d belongs to an unregistered block %#x", i, ex.from.guestPC)
		}
		if ex.linked {
			if e.dec.blockAt(ex.targetGuest) == nil {
				return fmt.Errorf("core: invariant: exit %d linked to untranslated guest %#x", i, ex.targetGuest)
			}
		}
	}

	// IBTC: the engine mirror and the in-memory table agree, and every
	// valid entry points at a live translation's entry point in the slot
	// its guest PC hashes to.
	if e.Opt.IBTC {
		for i := range e.ibtc {
			ent := &e.ibtc[i]
			addr := uint64(ibtcBase) + uint64(i)*16
			memGuest := e.Mem.Read64(addr)
			memHost := e.Mem.Read64(addr + 8)
			if !ent.valid {
				if memGuest != 0 || memHost != 0 {
					return fmt.Errorf("core: invariant: ibtc slot %d invalid in mirror but set in memory", i)
				}
				continue
			}
			if memGuest != uint64(ent.guest) || memHost != ent.host {
				return fmt.Errorf("core: invariant: ibtc slot %d mirror (%#x,%#x) != memory (%#x,%#x)",
					i, ent.guest, ent.host, memGuest, memHost)
			}
			if int((ent.guest>>ibtcShift)&(ibtcEntries-1)) != i {
				return fmt.Errorf("core: invariant: ibtc slot %d holds guest %#x which hashes elsewhere", i, ent.guest)
			}
			tb := e.dec.blockAt(ent.guest)
			if tb == nil {
				return fmt.Errorf("core: invariant: ibtc slot %d targets untranslated guest %#x", i, ent.guest)
			}
			if tb.hostEntry != ent.host {
				return fmt.Errorf("core: invariant: ibtc slot %d host %#x != block entry %#x", i, ent.host, tb.hostEntry)
			}
		}
	}

	// Trace tier: the machine's side tables (PC lookup, live-trace list,
	// threaded step pointers, memoized chain links) must be mutually
	// coherent and agree with the code in memory, and every live trace
	// must lie inside allocated host code — the block zone, the stub zone
	// or the fault pad. A trace outliving its code would replay stale
	// instructions.
	if err := e.Mach.CheckTraceCoherence(); err != nil {
		return fmt.Errorf("core: invariant: %w", err)
	}
	for _, ti := range e.Mach.TraceInfos() {
		inside := func(lo, hi uint64) bool { return ti.Start >= lo && ti.End <= hi }
		if !inside(cc.base, cc.blockNext) && !inside(cc.stubNext, cc.base+cc.size) && !inside(btFaultBase, btFaultBase+host.InstBytes) {
			return fmt.Errorf("core: invariant: trace %d span [%#x,%#x) outside the block zone [%#x,%#x), the stub zone [%#x,%#x) and the fault pad %#x",
				ti.ID, ti.Start, ti.End, cc.base, cc.blockNext, cc.stubNext, cc.base+cc.size, btFaultBase)
		}
	}

	// Static translation verifier (after the structural checks, so targeted
	// corruption diagnoses above take precedence): every live block's
	// emitted words and metadata must account for each other — every
	// trap-prone memory op registered, proven aligned, or guarded; branch
	// targets and BRKBT payloads resolved; patch sites well-formed.
	for _, sp := range e.blockSpans {
		if sp.b.invalid {
			continue
		}
		if fs := e.verifyBlock(sp.b); len(fs) > 0 {
			return fmt.Errorf("core: invariant: block %#x fails translation lint (%d findings): %s",
				sp.b.guestPC, len(fs), fs[0])
		}
	}
	return nil
}

// checkWords validates the unit's per-word table: one record per host word
// of its span, every instruction and site index in range, a trap site only
// on a word of its own instruction's emission, and every memory site's
// instruction named by at least one word. A wrong record would make the
// exception handler patch the wrong site or fault delivery rewind to the
// wrong guest instruction.
func (b *block) checkWords() error {
	if n := b.hostSize / host.InstBytes; uint64(len(b.words)) != n {
		return fmt.Errorf("has %d word records for %d host words", len(b.words), n)
	}
	named := make([]bool, len(b.insts))
	for i, w := range b.words {
		hpc := b.hostEntry + uint64(i)*host.InstBytes
		if w.inst < noInst || int(w.inst) >= len(b.insts) {
			return fmt.Errorf("word %#x names instruction index %d out of range [0,%d)", hpc, w.inst, len(b.insts))
		}
		if w.site < noSite || int(w.site) >= len(b.sites) {
			return fmt.Errorf("word %#x names site index %d out of range [0,%d)", hpc, w.site, len(b.sites))
		}
		if w.inst != noInst {
			named[w.inst] = true
		}
		if w.site == noSite {
			continue
		}
		if s := b.sites[w.site]; s.instIdx != int(w.inst) {
			return fmt.Errorf("word %#x of instruction %d is the trap site of instruction %d", hpc, w.inst, s.instIdx)
		}
	}
	for _, s := range b.sites {
		if !named[s.instIdx] {
			return fmt.Errorf("memory site @%#x (instruction %d) is named by no host word", s.guestPC, s.instIdx)
		}
	}
	return nil
}

// selfCheck runs CheckInvariants after a structural mutation when
// Options.SelfCheck is on, latching the first violation (with the mutation
// site that exposed it) for Run to report at the next dispatch boundary.
func (e *Engine) selfCheck(where string) {
	if !e.Opt.SelfCheck || e.invariantErr != nil {
		return
	}
	if err := e.CheckInvariants(); err != nil {
		e.invariantErr = fmt.Errorf("after %s: %w", where, err)
	}
}

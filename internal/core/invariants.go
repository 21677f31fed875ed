package core

import "fmt"

// CheckInvariants validates the engine's internal consistency: code cache
// geometry, the block bindings in the per-PC table against the live
// blocks, the side table mapping host PCs to memory sites, the exit table,
// the IBTC mirror against its in-memory table, and the interpreter
// blacklist. It returns nil when every invariant holds and
// a descriptive error for the first violation found.
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

	// Fault-attribution span table: well formed, and the count of each
	// live block's entries (spans are append-only per cache generation;
	// invalidated blocks may linger, live ones may not repeat).
	liveSpans := make(map[*block]int)
	for i, sp := range e.blockSpans {
		if sp.b == nil || sp.lo >= sp.hi {
			return fmt.Errorf("core: invariant: blockSpans[%d] malformed [%#x,%#x)", i, sp.lo, sp.hi)
		}
		if !sp.b.invalid {
			liveSpans[sp.b]++
		}
	}

	// Per-PC table: every bound entry names a live block — valid, keyed by
	// its own guest PC, committed in this cache generation exactly once —
	// and no blacklisted PC has one (the two dispatch paths would race over
	// the same guest PC).
	var tableErr error
	e.dec.each(func(pc uint32, de *decEntry) {
		if tableErr != nil || de.st == nil || de.st.blk == nil {
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
	// and live spans never overlap.
	var prevHi uint64
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
		if sp.lo < prevHi {
			return fmt.Errorf("core: invariant: block %#x overlaps an earlier block in the code cache", pc)
		}
		prevHi = sp.hi

		// Fault-attribution bounds: recorded in emission order, so host PCs
		// must be non-decreasing (an instruction that emits zero host words
		// shares its successor's start; resolveFaultSite attributes the tie
		// to the later entry), inside the block's span, and cover every
		// instruction index at least once (multi-version bodies record one
		// bound per copy). A gap here would make resolveFaultSite blame a
		// trap on the wrong guest instruction.
		covered := make([]bool, len(b.insts))
		for i, bd := range b.bounds {
			if bd.hostPC < b.hostEntry || bd.hostPC > b.hostEntry+b.hostSize {
				return fmt.Errorf("core: invariant: block %#x bound %d host PC %#x outside its span", pc, i, bd.hostPC)
			}
			if i > 0 && bd.hostPC < b.bounds[i-1].hostPC {
				return fmt.Errorf("core: invariant: block %#x bounds decreasing at %d (%#x after %#x)",
					pc, i, bd.hostPC, b.bounds[i-1].hostPC)
			}
			if bd.idx < 0 || bd.idx >= len(b.insts) {
				return fmt.Errorf("core: invariant: block %#x bound %d inst index %d out of range [0,%d)",
					pc, i, bd.idx, len(b.insts))
			}
			covered[bd.idx] = true
		}
		for idx, ok := range covered {
			if !ok {
				return fmt.Errorf("core: invariant: block %#x guest inst %d (%#x) has no attribution bound",
					pc, idx, b.insts[idx].pc)
			}
		}

		// Per-block site records: every trap-prone host PC lies inside the
		// block and is registered in the engine's side table.
		for _, s := range b.sites {
			for _, hpc := range s.hostPCs {
				if hpc < b.hostEntry || hpc >= b.hostEntry+b.hostSize {
					return fmt.Errorf("core: invariant: block %#x site @%#x has host PC %#x outside its block",
						pc, s.guestPC, hpc)
				}
				ref, ok := e.sites[hpc]
				if !ok {
					return fmt.Errorf("core: invariant: block %#x site host PC %#x missing from side table", pc, hpc)
				}
				if ref.b != b || ref.site != s {
					return fmt.Errorf("core: invariant: side table entry for %#x resolves to the wrong block/site", hpc)
				}
			}
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

	// Every page the engine decoded guest code from must still be watched —
	// an unwatched code page would let self-modifying stores run stale
	// translations.
	for p := range e.codePages {
		if !e.Mem.Watched(p) {
			return fmt.Errorf("core: invariant: decoded code page %#x is not write-watched", p)
		}
	}

	// Side table: every entry's block is either live (and then the lookup
	// above verified it) or marked invalid — a live-looking entry for a
	// vanished block means a missed cleanup.
	for hpc, ref := range e.sites {
		if !ref.b.invalid && e.dec.blockAt(ref.b.guestPC) != ref.b {
			return fmt.Errorf("core: invariant: side table entry %#x references a non-live, non-invalid block %#x",
				hpc, ref.b.guestPC)
		}
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
	// coherent and agree with the code in memory, and every live unit
	// trace must cover allocated code-cache words — a trace outliving its
	// code would replay stale instructions.
	if err := e.Mach.CheckTraceCoherence(); err != nil {
		return fmt.Errorf("core: invariant: %w", err)
	}
	for _, ti := range e.Mach.TraceInfos() {
		if ti.Start < cc.base || ti.End > cc.blockNext {
			return fmt.Errorf("core: invariant: trace %d span [%#x,%#x) outside the allocated block zone [%#x,%#x)",
				ti.ID, ti.Start, ti.End, cc.base, cc.blockNext)
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

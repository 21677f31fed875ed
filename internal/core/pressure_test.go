package core

import (
	"fmt"
	"testing"

	"mdabt/internal/guest"
	"mdabt/internal/policy"
)

// pressureProgram is a multi-phase workload: enough distinct hot blocks
// with misaligned traffic that a tiny code cache must flush repeatedly.
func pressureProgram(t *testing.T) []byte {
	t.Helper()
	return buildImg(t, func(b *guest.Builder) {
		b.MovImm(guest.EBX, guest.DataBase)
		b.MovImm(guest.EAX, 0)
		for ph := 0; ph < 10; ph++ {
			b.MovImm(guest.ECX, 0)
			b.Label(fmt.Sprintf("p%d", ph))
			b.Load(guest.LD4, guest.EDX, guest.MemRef{Base: guest.EBX, Disp: int32(ph*5 + 2)})
			b.ALU(guest.ADDrr, guest.EAX, guest.EDX)
			b.Store(guest.ST2, guest.MemRef{Base: guest.EBX, Disp: int32(96 + ph*7 + 1)}, guest.EAX)
			b.ALUImm(guest.ADDri, guest.ECX, 1)
			b.CmpImm(guest.ECX, 30)
			b.Jcc(guest.L, fmt.Sprintf("p%d", ph))
		}
		b.Halt()
	})
}

// TestCachePressureAllMechanisms squeezes every mechanism through a code
// cache far too small for the working set: each run must flush at least
// once, stay invariant-clean, and still produce the reference final state.
func TestCachePressureAllMechanisms(t *testing.T) {
	img := pressureProgram(t)
	data := patternData(256)
	refCPU, refArena := reference(t, img, data)
	static := censusSites(t, img, data)

	for _, mech := range Mechanisms() {
		opt := DefaultOptions(mech)
		row, ok := policy.Lookup(int(mech))
		if !ok {
			t.Fatalf("no table row for %v", mech)
		}
		if row.Static {
			opt.StaticSites = static
		}
		if row.Interp {
			opt.HeatThreshold = 3
		}
		opt.CodeCacheBytes = 512
		opt.SelfCheck = true
		label := fmt.Sprintf("pressure/%v", mech)
		gotCPU, gotArena, e := runDBT(t, img, data, opt)
		compareState(t, label, refCPU, gotCPU, refArena, gotArena)
		if err := e.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", label, err)
		}
		if e.Stats().Flushes == 0 {
			t.Errorf("%s: expected at least one flush in a 512-byte cache", label)
		}
	}
}

// TestRetainedMDASurvivesFlush asserts the exception handler's
// trap-discovered site knowledge outlives a full cache flush: the
// retranslation after an explicit flush must inline every retained site.
// The workload flips its pointer misaligned only after the hot loop has
// been translated, so even DPEH (whose profiling phase catches steadily
// misaligned sites up front) must discover the sites through traps.
func TestRetainedMDASurvivesFlush(t *testing.T) {
	img := buildImg(t, func(b *guest.Builder) {
		b.MovImm(guest.EBX, guest.DataBase) // aligned base, flips at 150
		b.MovImm(guest.ECX, 0)
		b.MovImm(guest.EAX, 0)
		b.Label("loop")
		b.Load(guest.LD4, guest.EDX, guest.MemRef{Base: guest.EBX, Disp: 4})
		b.ALU(guest.ADDrr, guest.EAX, guest.EDX)
		b.Store(guest.ST4, guest.MemRef{Base: guest.EBX, Disp: 12}, guest.EAX)
		b.ALUImm(guest.ADDri, guest.ECX, 1)
		b.CmpImm(guest.ECX, 150)
		b.Jcc(guest.E, "flip")
		b.CmpImm(guest.ECX, 300)
		b.Jcc(guest.L, "loop")
		b.Halt()
		b.Label("flip")
		b.ALUImm(guest.ADDri, guest.EBX, 1) // now misaligned
		b.Jmp("loop")
	})
	data := patternData(256)
	for _, mech := range []Mechanism{ExceptionHandling, DPEH} {
		opt := DefaultOptions(mech)
		if mech == DPEH {
			opt.HeatThreshold = 3
		}
		opt.SelfCheck = true
		_, _, e := runDBT(t, img, data, opt)
		retained := map[uint32]idxSet{}
		e.dec.each(func(pc uint32, de *decEntry) {
			if de.St != nil && de.St.retained != (idxSet{}) {
				retained[pc] = de.St.retained
			}
		})
		checked := 0
		for pc, want := range retained {
			e.flushAll()
			b, err := e.ensureTranslated(pc)
			if err != nil {
				t.Fatalf("%v: retranslate %#x after flush: %v", mech, pc, err)
			}
			for idx := range maxTraceInsts {
				if want.has(idx) && !b.insts[idx].knownMDA {
					t.Errorf("%v: block %#x lost retained MDA site #%d across the flush", mech, pc, idx)
				}
			}
			checked++
		}
		if checked == 0 {
			t.Fatalf("%v: no retained MDA sites were discovered; the workload is not exercising the handler", mech)
		}
		if err := e.CheckInvariants(); err != nil {
			t.Errorf("%v: %v", mech, err)
		}
	}
}

// TestBlockTooLargeFallsBackToInterpreter runs with a cache too small for
// the hot blocks: the oversized ones must be blacklisted to the
// interpreter and the program must still complete with the reference
// state.
func TestBlockTooLargeFallsBackToInterpreter(t *testing.T) {
	img := pressureProgram(t)
	data := patternData(256)
	refCPU, refArena := reference(t, img, data)
	for _, mech := range []Mechanism{ExceptionHandling, DPEH} {
		opt := DefaultOptions(mech)
		if mech == DPEH {
			opt.HeatThreshold = 2
		}
		opt.CodeCacheBytes = 64
		opt.SelfCheck = true
		label := fmt.Sprintf("toolarge/%v", mech)
		gotCPU, gotArena, e := runDBT(t, img, data, opt)
		compareState(t, label, refCPU, gotCPU, refArena, gotArena)
		s := e.Stats()
		if s.InterpFallbacks == 0 {
			t.Errorf("%s: expected interpreter fallbacks with a 64-byte cache", label)
		}
		if err := e.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", label, err)
		}
	}
}

// TestStubZoneReclaimedOnFlush is the allocator-level check that a reset
// reclaims the exception handler's stub zone, not just the block zone.
func TestStubZoneReclaimedOnFlush(t *testing.T) {
	cc := newCodeCache(256, nil)
	for {
		if _, err := cc.allocStub(64); err != nil {
			break
		}
	}
	if cc.stubZoneBytes() == 0 {
		t.Fatal("stub zone empty after filling it")
	}
	if _, err := cc.allocStub(64); err == nil {
		t.Fatal("allocStub succeeded in a full zone")
	}
	cc.reset()
	if cc.stubZoneBytes() != 0 {
		t.Fatalf("stubZoneBytes = %d after reset, want 0", cc.stubZoneBytes())
	}
	if _, err := cc.allocStub(64); err != nil {
		t.Fatalf("allocStub after reset: %v", err)
	}
}

// TestBlockBindingCoherence drives a block's binding in the per-PC table
// through its full lifecycle — bound at commit, dropped on invalidation,
// rebound by retranslation, dropped on cache flush — and asserts the
// table never serves a stale translation.
func TestBlockBindingCoherence(t *testing.T) {
	img := pressureProgram(t)
	data := patternData(256)
	opt := DefaultOptions(ExceptionHandling)
	opt.SelfCheck = true
	_, _, e := runDBT(t, img, data, opt)
	b := anyBlock(e)
	if b == nil {
		t.Fatal("no live translations after the run")
	}
	pc := b.guestPC
	if got := e.dec.blockAt(pc); got != b {
		t.Fatalf("blockAt(%#x) = %p, want %p", pc, got, b)
	}

	// Invalidation drops the binding: a later lookup must miss instead of
	// returning the dead block.
	e.invalidateBlock(b)
	if got := e.dec.blockAt(pc); got != nil {
		t.Fatalf("blockAt(%#x) after invalidation = %p, want nil", pc, got)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("after invalidation: %v", err)
	}

	// Retranslation restores the binding with a fresh block.
	nb, err := e.ensureTranslated(pc)
	if err != nil {
		t.Fatalf("retranslate %#x: %v", pc, err)
	}
	if nb == b {
		t.Fatal("retranslation returned the invalidated block")
	}
	if got := e.dec.blockAt(pc); got != nb {
		t.Fatalf("blockAt(%#x) after retranslation = %p, want %p", pc, got, nb)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("after retranslation: %v", err)
	}

	// Flush drops every binding; none may outlive the code cache.
	e.flushAll()
	e.dec.each(func(p uint32, de *decEntry) {
		if de.St != nil && de.St.blk != nil {
			t.Fatalf("guest %#x still bound after flush", p)
		}
	})
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("after flush: %v", err)
	}
}

// TestStaticAlignSiteCountsUnderPressure: the static-align site counters
// count a unit's sites when it commits, so a translation that finds the
// cache full, flushes and retries counts its sites once, not twice. The
// phased workload never re-enters a flushed phase, so the counts must equal
// those of a run whose cache never fills.
func TestStaticAlignSiteCountsUnderPressure(t *testing.T) {
	img := pressureProgram(t)
	data := patternData(256)
	opt := DefaultOptions(ExceptionHandling)
	opt.StaticAlign = true
	opt.SelfCheck = true
	_, _, roomy := runDBT(t, img, data, opt)
	opt.CodeCacheBytes = 512
	_, _, tight := runDBT(t, img, data, opt)
	r, s := roomy.Stats(), tight.Stats()
	if r.Flushes != 0 || s.Flushes == 0 {
		t.Fatalf("flushes: roomy %d, tight %d; want 0 and at least 1", r.Flushes, s.Flushes)
	}
	counts := func(s Stats) [3]uint64 {
		return [3]uint64{s.StaticAlignedSites, s.StaticMisalignedSites, s.StaticUnknownSites}
	}
	if got, want := counts(s), counts(r); got != want {
		t.Errorf("aligned/misaligned/unknown sites under pressure = %v, want %v (as without pressure)", got, want)
	}
	if counts(r) == [3]uint64{} {
		t.Fatal("no static-align sites counted; the workload is not exercising the counters")
	}
	t.Logf("flushes %d, blocks translated %d, sites %v", s.Flushes, s.BlocksTranslated, counts(s))
}

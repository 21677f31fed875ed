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
		p, ok := policy.ByID(int(mech))
		if !ok {
			t.Fatalf("no strategy for %v", mech)
		}
		if p.UsesStaticProfile() {
			opt.StaticSites = static
		}
		if p.WantsInterpProfiling() {
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
		checked := 0
		for pc, want := range e.retainedMDA {
			if len(want) == 0 {
				continue
			}
			e.flushAll()
			b, err := e.ensureTranslated(pc)
			if err != nil {
				t.Fatalf("%v: retranslate %#x after flush: %v", mech, pc, err)
			}
			for idx := range want {
				if !b.insts[idx].knownMDA {
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

// TestBlockLUTCoherence drives the direct-mapped block LUT through its
// full lifecycle — fill on lookup, eviction on block invalidation, full
// clear on cache flush, refill after retranslation — and asserts it never
// serves a stale binding.
func TestBlockLUTCoherence(t *testing.T) {
	img := pressureProgram(t)
	data := patternData(256)
	opt := DefaultOptions(ExceptionHandling)
	opt.SelfCheck = true
	_, _, e := runDBT(t, img, data, opt)
	if len(e.blocks) == 0 {
		t.Fatal("no live translations after the run")
	}

	// Fill: a lookup caches the binding in the block's slot.
	var pc uint32
	var b *block
	for p, bb := range e.blocks {
		pc, b = p, bb
		break
	}
	if got := e.lookupBlock(pc); got != b {
		t.Fatalf("lookupBlock(%#x) = %p, want %p", pc, got, b)
	}
	if ent := e.blockLUT[pc&blockLUTMask]; ent.b != b || ent.pc != pc {
		t.Fatalf("LUT slot not filled after lookup: %+v", ent)
	}

	// Invalidation evicts the cached binding: a later lookup must miss
	// instead of returning the dead block.
	e.invalidateBlock(b)
	if got := e.lookupBlock(pc); got != nil {
		t.Fatalf("lookupBlock(%#x) after invalidation = %p, want nil", pc, got)
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
	if got := e.lookupBlock(pc); got != nb {
		t.Fatalf("lookupBlock(%#x) after retranslation = %p, want %p", pc, got, nb)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("after retranslation: %v", err)
	}

	// Flush clears every slot; no entry may outlive the code cache.
	e.flushAll()
	for i, ent := range e.blockLUT {
		if ent.b != nil {
			t.Fatalf("LUT slot %d still holds %#x after flush", i, ent.pc)
		}
	}
	if got := e.lookupBlock(pc); got != nil {
		t.Fatalf("lookupBlock(%#x) after flush = %p, want nil", pc, got)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("after flush: %v", err)
	}
}

// TestBlockLUTCollision checks the direct-mapped LUT stays correct when two
// guest PCs contend for one slot: each lookup must return its own block,
// with the slot simply swapping owners.
func TestBlockLUTCollision(t *testing.T) {
	img := pressureProgram(t)
	data := patternData(256)
	opt := DefaultOptions(Direct)
	_, _, e := runDBT(t, img, data, opt)

	var pc uint32
	var b *block
	for p, bb := range e.blocks {
		pc, b = p, bb
		break
	}
	// Forge a second live-looking block whose PC aliases the same LUT slot.
	pc2 := pc + blockLUTSize
	b2 := &block{guestPC: pc2, hostEntry: b.hostEntry, hostSize: b.hostSize}
	e.blocks[pc2] = b2
	defer delete(e.blocks, pc2)

	for round := 0; round < 3; round++ {
		if got := e.lookupBlock(pc); got != b {
			t.Fatalf("round %d: lookupBlock(%#x) = %p, want %p", round, pc, got, b)
		}
		if got := e.lookupBlock(pc2); got != b2 {
			t.Fatalf("round %d: lookupBlock(%#x) = %p, want %p", round, pc2, got, b2)
		}
	}
}

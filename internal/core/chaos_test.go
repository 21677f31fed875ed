package core

import (
	"errors"
	"fmt"
	"testing"

	"mdabt/internal/faultinject"
	"mdabt/internal/guest"
)

// chaosRates are the injection probabilities every mechanism must survive:
// none (control), rare, and frequent.
var chaosRates = []float64{0, 1e-4, 1e-2}

// chaosPlan builds the deterministic fault plan for one chaos run. On top
// of the uniform rate, count triggers guarantee that each recovery path
// fires at least once per run even at low rates: two forced flushes, one
// transient translation failure, one stub-allocation failure, one spurious
// trap, and one duplicate trap delivery.
func chaosPlan(seed int64, rate float64) *faultinject.Plan {
	p := faultinject.New(seed).RateAll(rate)
	if rate > 0 {
		p.At(faultinject.ForcedFlush, 2, 7).
			At(faultinject.Translate, 3).
			At(faultinject.AllocStub, 1).
			At(faultinject.SpuriousTrap, 5).
			At(faultinject.DuplicateTrap, 1)
	}
	return p
}

// chaosCosim runs the program under every mechanism configuration at every
// chaos rate with self-checking on, asserting that injected faults degrade
// cost but never correctness: final architectural state must match the
// reference interpreter and every engine invariant must hold afterwards.
func chaosCosim(t *testing.T, name string, img []byte, dataInit []byte) {
	t.Helper()
	refCPU, refArena := reference(t, img, dataInit)
	static := censusSites(t, img, dataInit)
	for _, rate := range chaosRates {
		for _, opt := range allConfigs(static) {
			opt := opt
			plan := chaosPlan(11, rate)
			opt.FaultPlan = plan
			opt.SelfCheck = true
			label := fmt.Sprintf("%s/%v(re=%v,rt=%v,mv=%v)/rate=%g",
				name, opt.Mechanism, opt.Rearrange, opt.Retranslate, opt.MultiVersion, rate)
			gotCPU, gotArena, e := runDBT(t, img, dataInit, opt)
			compareState(t, label, refCPU, gotCPU, refArena, gotArena)
			if err := e.CheckInvariants(); err != nil {
				t.Errorf("%s: %v", label, err)
			}
			if got := e.Stats().InjectedFaults; got != plan.Total() {
				t.Errorf("%s: Stats().InjectedFaults = %d, plan total %d", label, got, plan.Total())
			}
			if rate == 0 && plan.Total() != 0 {
				t.Errorf("%s: control run fired %d faults", label, plan.Total())
			}
			if rate > 0 && plan.Total() == 0 {
				t.Errorf("%s: chaos run fired no faults", label)
			}
		}
	}
}

// TestChaosMisalignedLoop drives the canonical misaligned hot loop through
// the full chaos matrix.
func TestChaosMisalignedLoop(t *testing.T) {
	img := buildImg(t, func(b *guest.Builder) {
		b.MovImm(guest.EBX, guest.DataBase)
		b.MovImm(guest.ECX, 0)
		b.MovImm(guest.EAX, 0)
		b.Label("loop")
		b.Load(guest.LD4, guest.EDX, guest.MemRef{Base: guest.EBX, Disp: 2})
		b.ALU(guest.ADDrr, guest.EAX, guest.EDX)
		b.Load(guest.LD4, guest.EDX, guest.MemRef{Base: guest.EBX, Disp: 8})
		b.ALU(guest.XORrr, guest.EAX, guest.EDX)
		b.Load(guest.LD2S, guest.ESI, guest.MemRef{Base: guest.EBX, Disp: 5})
		b.ALU(guest.ADDrr, guest.EAX, guest.ESI)
		b.Store(guest.ST2, guest.MemRef{Base: guest.EBX, Disp: 17}, guest.EAX)
		b.FLoad(guest.F0, guest.MemRef{Base: guest.EBX, Disp: 20})
		b.FAdd(guest.F1, guest.F0)
		b.FStore(guest.MemRef{Base: guest.EBX, Disp: 36}, guest.F1)
		b.Store(guest.ST4, guest.MemRef{Base: guest.EBX, Disp: 49}, guest.EAX)
		b.ALUImm(guest.ADDri, guest.ECX, 1)
		b.CmpImm(guest.ECX, 200)
		b.Jcc(guest.L, "loop")
		b.Halt()
	})
	chaosCosim(t, "chaos-misloop", img, patternData(256))
}

// TestChaosCallsAndStack adds CALL/RET/PUSH/POP traffic (indirect
// dispatch, IBTC) to the chaos matrix.
func TestChaosCallsAndStack(t *testing.T) {
	img := buildImg(t, func(b *guest.Builder) {
		b.MovImm(guest.EBX, guest.DataBase)
		b.MovImm(guest.ECX, 0)
		b.MovImm(guest.EAX, 0)
		b.Label("loop")
		b.Push(guest.ECX)
		b.Call("work")
		b.Pop(guest.ECX)
		b.ALUImm(guest.ADDri, guest.ECX, 1)
		b.CmpImm(guest.ECX, 100)
		b.Jcc(guest.L, "loop")
		b.Halt()
		b.Label("work")
		b.Load(guest.LD4, guest.EDX, guest.MemRef{Base: guest.EBX, Disp: 6})
		b.ALU(guest.ADDrr, guest.EAX, guest.EDX)
		b.Store(guest.ST4, guest.MemRef{Base: guest.EBX, Disp: 32}, guest.EAX)
		b.Ret()
	})
	chaosCosim(t, "chaos-calls", img, patternData(64))
}

// TestChaosRandomPrograms pushes randomized programs through the chaos
// matrix (skipped in -short mode).
func TestChaosRandomPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			img := randomProgram(t, seed)
			chaosCosim(t, fmt.Sprintf("chaos-rand%d", seed), img, patternData(4096))
		})
	}
}

// TestTranslateCommitAfterAllocFault fails the first block allocation of a
// DPEH run whose first hot unit, the loop, holds an adaptive site. The
// unit has already been emitted, with an exit and an adaptive payload id,
// when the allocation fails; translate must register neither, so after the
// flush and retry every exit and adaptive ref belongs to a registered block
// and the adaptive-site count matches the adaptive table.
func TestTranslateCommitAfterAllocFault(t *testing.T) {
	img := shapesImg(t, 500)
	data := patternData(256)
	refCPU, refArena := reference(t, img, data)
	opt := DefaultOptions(DPEH)
	opt.HeatThreshold = 8
	opt.MultiVersion = true
	opt.Adaptive = true
	opt.SelfCheck = true
	plan := faultinject.New(1).At(faultinject.AllocBlock, 1)
	opt.FaultPlan = plan
	gotCPU, gotArena, e := runDBT(t, img, data, opt)
	compareState(t, "commit-after-alloc-fault", refCPU, gotCPU, refArena, gotArena)
	if err := e.CheckInvariants(); err != nil {
		t.Error(err)
	}
	s := e.Stats()
	if plan.Fired(faultinject.AllocBlock) != 1 || s.Flushes == 0 {
		t.Fatalf("allocation faults fired %d, flushes %d; want 1 and at least 1",
			plan.Fired(faultinject.AllocBlock), s.Flushes)
	}
	if len(e.adaptives) == 0 {
		t.Fatal("no adaptive sites registered; the workload is not exercising the adaptive table")
	}
	if s.AdaptiveSites != uint64(len(e.adaptives)) {
		t.Errorf("Stats().AdaptiveSites = %d, adaptive table holds %d", s.AdaptiveSites, len(e.adaptives))
	}
}

// TestAdaptiveCountersRewoundOnFailedCommit fails the first block
// allocation of the same DPEH run: the unit that loses its allocation has
// already taken the adaptive site's streak counter, and must hand it back.
// The retry after the flush then takes the same address, so the run
// allocates exactly the counters of the units it commits, fault or not.
func TestAdaptiveCountersRewoundOnFailedCommit(t *testing.T) {
	img := shapesImg(t, 500)
	data := patternData(256)
	run := func(plan *faultinject.Plan) *Engine {
		opt := DefaultOptions(DPEH)
		opt.HeatThreshold = 8
		opt.MultiVersion = true
		opt.Adaptive = true
		opt.SelfCheck = true
		opt.FaultPlan = plan
		_, _, e := runDBT(t, img, data, opt)
		return e
	}
	plan := faultinject.New(1).At(faultinject.AllocBlock, 1)
	clean, faulted := run(nil), run(plan)
	if plan.Fired(faultinject.AllocBlock) != 1 {
		t.Fatalf("allocation faults fired %d, want 1", plan.Fired(faultinject.AllocBlock))
	}
	for _, c := range []struct {
		name string
		e    *Engine
	}{{"fault-free", clean}, {"faulted", faulted}} {
		if n := (c.e.counterNext - counterBase) / 4; n != 1 {
			t.Errorf("%s run allocated %d streak counters, want 1", c.name, n)
		}
		if len(c.e.adaptives) != 1 || c.e.adaptives[0].counter != counterBase {
			t.Errorf("%s run: adaptive refs %+v, want one at counter %#x", c.name, c.e.adaptives, counterBase)
		}
	}
}

// TestAdaptiveCounterRegionBound fills the streak-counter region before
// the run: the first unit needing a counter must fail the run with a
// classified error naming the exhausted region, and take no counter.
func TestAdaptiveCounterRegionBound(t *testing.T) {
	opt := DefaultOptions(DPEH)
	opt.HeatThreshold = 8
	opt.MultiVersion = true
	opt.Adaptive = true
	e := newTestEngine(t, shapesImg(t, 500), opt)
	e.counterNext = ibtcBase - 2 // not even one 4-byte counter left
	err := e.Run(guest.CodeBase, 500_000_000)
	if !errors.Is(err, errCounterSpace) {
		t.Fatalf("Run = %v, want the exhausted counter region", err)
	}
	var ce *ClassifiedError
	if !errors.As(err, &ce) || ce.Class != Permanent || ce.BlockPC == 0 {
		t.Fatalf("Run = %v, want a Permanent ClassifiedError with the block PC", err)
	}
	if e.counterNext != ibtcBase-2 {
		t.Errorf("counterNext = %#x after the failed unit, want %#x", e.counterNext, ibtcBase-2)
	}
}

// TestStaticAlignViolationsIgnoreInjectedTraps: spurious and duplicate
// trap delivery hit proven-aligned accesses, whose effective addresses are
// aligned. Only a misaligned access at a proven-aligned PC is a soundness
// violation, so a chaos run must report as many violations as a clean
// one: none.
func TestStaticAlignViolationsIgnoreInjectedTraps(t *testing.T) {
	img := shapesImg(t, 500)
	data := patternData(256)
	refCPU, refArena := reference(t, img, data)
	for _, mech := range []Mechanism{ExceptionHandling, DPEH} {
		opt := DefaultOptions(mech)
		opt.StaticAlign = true
		opt.SelfCheck = true
		plan := faultinject.New(2).Rate(faultinject.SpuriousTrap, 0.2).Rate(faultinject.DuplicateTrap, 0.2)
		opt.FaultPlan = plan
		gotCPU, gotArena, e := runDBT(t, img, data, opt)
		compareState(t, fmt.Sprintf("staticalign-chaos/%v", mech), refCPU, gotCPU, refArena, gotArena)
		s := e.Stats()
		if s.StaticAlignedSites == 0 || plan.Fired(faultinject.SpuriousTrap) == 0 {
			t.Fatalf("%v: %d proven-aligned sites, %d spurious traps; the run does not exercise the counter",
				mech, s.StaticAlignedSites, plan.Fired(faultinject.SpuriousTrap))
		}
		if s.StaticAlignViolations != 0 {
			t.Errorf("%v: %d static-align violations from %d injected traps, want 0",
				mech, s.StaticAlignViolations, plan.Total())
		}
	}
}

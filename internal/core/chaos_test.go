package core

import (
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

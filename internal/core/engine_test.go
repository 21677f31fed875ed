package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mdabt/internal/guest"
	"mdabt/internal/machine"
	"mdabt/internal/mem"
	"mdabt/internal/store"
)

// mdaLoopImg builds a hot loop with one always-misaligned 4-byte load,
// iterating n times.
func mdaLoopImg(t *testing.T, n int32) []byte {
	return buildImg(t, func(b *guest.Builder) {
		b.MovImm(guest.EBX, guest.DataBase)
		b.MovImm(guest.ECX, 0)
		b.MovImm(guest.EAX, 0)
		// Enter the loop with a jump so the loop head is a block entry and
		// the loop body is translated exactly once (no block replication).
		b.Jmp("loop")
		b.Label("loop")
		b.Load(guest.LD4, guest.EDX, guest.MemRef{Base: guest.EBX, Disp: 2})
		b.ALU(guest.ADDrr, guest.EAX, guest.EDX)
		b.ALUImm(guest.ADDri, guest.ECX, 1)
		b.CmpImm(guest.ECX, n)
		b.Jcc(guest.L, "loop")
		b.Halt()
	})
}

// lateOnsetImg builds a loop whose memory site is aligned for the first
// `flip` iterations and misaligned afterwards (Table III behaviour).
func lateOnsetImg(t *testing.T, flip, total int32) []byte {
	return buildImg(t, func(b *guest.Builder) {
		b.MovImm(guest.EBX, guest.DataBase)
		b.MovImm(guest.ECX, 0)
		b.MovImm(guest.EAX, 0)
		b.Label("loop")
		b.Load(guest.LD4, guest.EDX, guest.MemRef{Base: guest.EBX, Disp: 4})
		b.ALU(guest.ADDrr, guest.EAX, guest.EDX)
		b.ALUImm(guest.ADDri, guest.ECX, 1)
		b.CmpImm(guest.ECX, flip)
		b.Jcc(guest.E, "flip")
		b.CmpImm(guest.ECX, total)
		b.Jcc(guest.L, "loop")
		b.Halt()
		b.Label("flip")
		b.ALUImm(guest.ADDri, guest.EBX, 2)
		b.Jmp("loop")
	})
}

func engineFor(t *testing.T, img []byte, opt Options) *Engine {
	t.Helper()
	m := mem.New()
	m.WriteBytes(guest.CodeBase, img)
	m.WriteBytes(guest.DataBase, patternData(256))
	mach := machine.New(m, machine.DefaultParams())
	return NewEngine(m, mach, opt)
}

func mustRun(t *testing.T, e *Engine) {
	t.Helper()
	if err := e.Run(guest.CodeBase, 500_000_000); err != nil {
		t.Fatal(err)
	}
}

func TestExceptionHandlingPatchesOnce(t *testing.T) {
	e := engineFor(t, mdaLoopImg(t, 1000), DefaultOptions(ExceptionHandling))
	mustRun(t, e)
	c := e.Mach.Counters()
	if c.MisalignTraps != 1 {
		t.Errorf("traps = %d, want 1 (patched after first)", c.MisalignTraps)
	}
	s := e.Stats()
	if s.Patches != 1 || s.MDAStubs != 1 {
		t.Errorf("patches/stubs = %d/%d, want 1/1", s.Patches, s.MDAStubs)
	}
	if s.InterpretedInsts != 0 {
		t.Errorf("EH interpreted %d insts, want 0 (translate-on-first-touch)", s.InterpretedInsts)
	}
}

func TestDirectNeverTraps(t *testing.T) {
	e := engineFor(t, mdaLoopImg(t, 1000), DefaultOptions(Direct))
	mustRun(t, e)
	if traps := e.Mach.Counters().MisalignTraps; traps != 0 {
		t.Errorf("direct method trapped %d times, want 0", traps)
	}
}

// alignedLoopImg is a loop whose memory traffic is entirely aligned — the
// common case where the Direct method's indiscriminate MDA sequences are
// pure overhead (paper §VI-C: "generally worse than all others").
func alignedLoopImg(t *testing.T, n int32) []byte {
	return buildImg(t, func(b *guest.Builder) {
		b.MovImm(guest.EBX, guest.DataBase)
		b.MovImm(guest.ECX, 0)
		b.MovImm(guest.EAX, 0)
		b.Jmp("loop")
		b.Label("loop")
		b.Load(guest.LD4, guest.EDX, guest.MemRef{Base: guest.EBX})
		b.Load(guest.LD4, guest.ESI, guest.MemRef{Base: guest.EBX, Disp: 4})
		b.Load(guest.LD2Z, guest.EDI, guest.MemRef{Base: guest.EBX, Disp: 8})
		b.ALU(guest.ADDrr, guest.EAX, guest.EDX)
		b.Store(guest.ST4, guest.MemRef{Base: guest.EBX, Disp: 12}, guest.EAX)
		b.ALUImm(guest.ADDri, guest.ECX, 1)
		b.CmpImm(guest.ECX, n)
		b.Jcc(guest.L, "loop")
		b.Halt()
	})
}

func TestDirectOverheadOnAlignedCode(t *testing.T) {
	direct := engineFor(t, alignedLoopImg(t, 1000), DefaultOptions(Direct))
	mustRun(t, direct)
	eh := engineFor(t, alignedLoopImg(t, 1000), DefaultOptions(ExceptionHandling))
	mustRun(t, eh)
	di, ei := direct.Mach.Counters().Insts, eh.Mach.Counters().Insts
	if di <= ei {
		t.Errorf("direct insts %d not greater than EH insts %d on aligned code", di, ei)
	}
	dc, ec := direct.Mach.Counters().Cycles, eh.Mach.Counters().Cycles
	if dc <= ec {
		t.Errorf("direct cycles %d not greater than EH cycles %d on aligned code", dc, ec)
	}
}

// TestDirectWinsOnAlwaysMisaligned documents the inverse case: when every
// access is misaligned, inlining the sequence up front beats EH's
// stub-and-branch code shape (the paper's Fig. 16 outliers).
func TestDirectWinsOnAlwaysMisaligned(t *testing.T) {
	direct := engineFor(t, mdaLoopImg(t, 1000), DefaultOptions(Direct))
	mustRun(t, direct)
	eh := engineFor(t, mdaLoopImg(t, 1000), DefaultOptions(ExceptionHandling))
	mustRun(t, eh)
	if direct.Mach.Counters().Insts >= eh.Mach.Counters().Insts {
		t.Errorf("direct insts %d not smaller than EH insts %d on always-MDA loop",
			direct.Mach.Counters().Insts, eh.Mach.Counters().Insts)
	}
}

func TestDynamicProfilingCatchesHotSite(t *testing.T) {
	opt := DefaultOptions(DynamicProfile)
	opt.HeatThreshold = 5
	e := engineFor(t, mdaLoopImg(t, 1000), opt)
	mustRun(t, e)
	// Site does MDAs during profiling, so the translation inlines the
	// sequence: zero traps.
	if traps := e.Mach.Counters().MisalignTraps; traps != 0 {
		t.Errorf("traps = %d, want 0 (site caught by profiling)", traps)
	}
	if e.Stats().InterpretedInsts == 0 {
		t.Error("no interpretation happened")
	}
}

func TestDynamicProfilingMissesLateOnset(t *testing.T) {
	opt := DefaultOptions(DynamicProfile)
	opt.HeatThreshold = 5
	e := engineFor(t, lateOnsetImg(t, 500, 1000), opt)
	mustRun(t, e)
	// The site turns misaligned only after translation; DynamicProfile has
	// no patching, so every late MDA traps (~500).
	traps := e.Mach.Counters().MisalignTraps
	if traps < 400 {
		t.Errorf("traps = %d, want ~500 (every late-onset MDA)", traps)
	}
}

func TestDPEHPatchesLateOnset(t *testing.T) {
	opt := DefaultOptions(DPEH)
	opt.HeatThreshold = 5
	e := engineFor(t, lateOnsetImg(t, 500, 1000), opt)
	mustRun(t, e)
	// DPEH patches the late-onset site on its first trap.
	traps := e.Mach.Counters().MisalignTraps
	if traps > 3 {
		t.Errorf("traps = %d, want ≤3 (patched after first)", traps)
	}
	if e.Stats().Patches == 0 {
		t.Error("no patches recorded")
	}
}

func TestRetranslationTriggers(t *testing.T) {
	// Several sites in one block turn misaligned after translation: with
	// retranslation enabled the block is invalidated and re-profiled, and
	// the retranslated code inlines the discovered sequences.
	img := buildImg(t, func(b *guest.Builder) {
		b.MovImm(guest.EBX, guest.DataBase)
		b.MovImm(guest.ECX, 0)
		b.MovImm(guest.EAX, 0)
		b.Label("loop")
		b.Load(guest.LD4, guest.EDX, guest.MemRef{Base: guest.EBX, Disp: 4})
		b.Load(guest.LD4, guest.ESI, guest.MemRef{Base: guest.EBX, Disp: 8})
		b.Load(guest.LD4, guest.EDI, guest.MemRef{Base: guest.EBX, Disp: 12})
		b.Load(guest.LD4, guest.EBP, guest.MemRef{Base: guest.EBX, Disp: 16})
		b.ALU(guest.ADDrr, guest.EAX, guest.EDX)
		b.ALUImm(guest.ADDri, guest.ECX, 1)
		b.CmpImm(guest.ECX, 300)
		b.Jcc(guest.E, "flip")
		b.CmpImm(guest.ECX, 600)
		b.Jcc(guest.L, "loop")
		b.Halt()
		b.Label("flip")
		b.ALUImm(guest.ADDri, guest.EBX, 2)
		b.Jmp("loop")
	})
	opt := DefaultOptions(DPEH)
	opt.HeatThreshold = 5
	opt.Retranslate = true
	opt.RetransThreshold = 4
	e := engineFor(t, img, opt)
	mustRun(t, e)
	if e.Stats().Retranslations == 0 {
		t.Error("retranslation never triggered")
	}
	// After retranslation + re-profiling the sites are inlined; traps stay
	// bounded (threshold + a handful during re-heat).
	if traps := e.Mach.Counters().MisalignTraps; traps > 20 {
		t.Errorf("traps = %d, want small after retranslation", traps)
	}
}

func TestRearrangementRetranslatesInline(t *testing.T) {
	opt := DefaultOptions(ExceptionHandling)
	opt.Rearrange = true
	e := engineFor(t, mdaLoopImg(t, 1000), opt)
	mustRun(t, e)
	s := e.Stats()
	if s.Rearrangements == 0 {
		t.Fatal("no rearrangements recorded")
	}
	if s.Patches != 0 {
		t.Errorf("rearrangement should replace stub patching, got %d patches", s.Patches)
	}
	// The rearranged block inlines the sequence: one trap total.
	if traps := e.Mach.Counters().MisalignTraps; traps != 1 {
		t.Errorf("traps = %d, want 1", traps)
	}
}

func TestMultiVersionEmitsTwoVersions(t *testing.T) {
	// Site alternates alignment: multi-version should emit a two-version
	// block and avoid both traps and constant MDA-sequence overhead.
	img := buildImg(t, func(b *guest.Builder) {
		b.MovImm(guest.EBX, guest.DataBase)
		b.MovImm(guest.ECX, 0)
		b.MovImm(guest.EAX, 0)
		b.Label("loop")
		b.Mov(guest.ESI, guest.ECX)
		b.ALUImm(guest.ANDri, guest.ESI, 2)
		b.Load(guest.LD4, guest.EDX, guest.MemRef{Base: guest.EBX, HasIndex: true, Index: guest.ESI, Scale: 1, Disp: 8})
		b.ALU(guest.ADDrr, guest.EAX, guest.EDX)
		b.ALUImm(guest.ADDri, guest.ECX, 1)
		b.CmpImm(guest.ECX, 500)
		b.Jcc(guest.L, "loop")
		b.Halt()
	})
	opt := DefaultOptions(DPEH)
	opt.HeatThreshold = 8
	opt.MultiVersion = true
	e := engineFor(t, img, opt)
	mustRun(t, e)
	if e.Stats().MultiVersion == 0 {
		t.Fatal("no multi-version block emitted")
	}
	if traps := e.Mach.Counters().MisalignTraps; traps > 2 {
		t.Errorf("traps = %d, want ~0 with multi-version", traps)
	}
}

func TestBlockLinkingAvoidsDispatch(t *testing.T) {
	e := engineFor(t, mdaLoopImg(t, 10000), DefaultOptions(ExceptionHandling))
	mustRun(t, e)
	s := e.Stats()
	if s.Links == 0 {
		t.Fatal("no exits were linked")
	}
	// Once the loop back-edge is linked, iterations stay native: the number
	// of dispatches must be tiny compared to 10000 iterations.
	if s.NativeBlockRuns > 50 {
		t.Errorf("NativeBlockRuns = %d, want ≪ iterations (linking broken)", s.NativeBlockRuns)
	}
}

func TestStaticProfileUsesTrainSites(t *testing.T) {
	img := mdaLoopImg(t, 1000)
	sites := censusSites(t, img, patternData(256))
	if len(sites) == 0 {
		t.Fatal("census found no MDA sites")
	}
	opt := DefaultOptions(StaticProfile)
	opt.StaticSites = sites
	e := engineFor(t, img, opt)
	mustRun(t, e)
	if traps := e.Mach.Counters().MisalignTraps; traps != 0 {
		t.Errorf("traps = %d, want 0 (profiled sites inlined)", traps)
	}
	// With an empty (unrepresentative) profile, every MDA traps.
	opt.StaticSites = nil
	e2 := engineFor(t, img, opt)
	mustRun(t, e2)
	if traps := e2.Mach.Counters().MisalignTraps; traps < 900 {
		t.Errorf("traps = %d, want ~1000 with empty train profile", traps)
	}
}

func TestRunBudgetExhaustion(t *testing.T) {
	img := buildImg(t, func(b *guest.Builder) {
		b.Label("spin")
		b.Jmp("spin")
	})
	e := engineFor(t, img, DefaultOptions(ExceptionHandling))
	err := e.Run(guest.CodeBase, 10_000)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestOrphanConditionalBranchFails(t *testing.T) {
	// A JCC with no flag-setting instruction in its block is a documented
	// translator restriction; it must fail loudly, not miscompile.
	b := guest.NewBuilder()
	b.Label("x")
	b.Jcc(guest.E, "x")
	b.Halt()
	img, err := b.Build(guest.CodeBase)
	if err != nil {
		t.Fatal(err)
	}
	e := engineFor(t, img, DefaultOptions(ExceptionHandling))
	if err := e.Run(guest.CodeBase, 1000); err == nil {
		t.Fatal("orphan JCC translated without error")
	}
}

func TestCodeCacheFlush(t *testing.T) {
	opt := DefaultOptions(ExceptionHandling)
	opt.CodeCacheBytes = 128 // absurdly small: forces flushes
	// A program with many distinct blocks.
	img := buildImg(t, func(b *guest.Builder) {
		b.MovImm(guest.EBX, guest.DataBase)
		b.MovImm(guest.EAX, 0)
		for i := 0; i < 30; i++ {
			b.ALUImm(guest.ADDri, guest.EAX, int32(i))
			b.Jmp(blockLabel(i))
			b.Label(blockLabel(i))
		}
		b.Halt()
	})
	e := engineFor(t, img, opt)
	mustRun(t, e)
	if e.Stats().Flushes == 0 {
		t.Error("tiny code cache never flushed")
	}
	if got := e.FinalCPU().R[guest.EAX]; got != 435 { // sum 0..29
		t.Errorf("eax = %d, want 435", got)
	}
}

func blockLabel(i int) string { return "b" + string(rune('A'+i/26)) + string(rune('a'+i%26)) }

func TestCensusTableIData(t *testing.T) {
	img := mdaLoopImg(t, 500)
	m := mem.New()
	m.WriteBytes(guest.CodeBase, img)
	m.WriteBytes(guest.DataBase, patternData(256))
	c, err := RunCensus(m, guest.CodeBase, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Halted {
		t.Fatal("census did not halt")
	}
	if c.NMI() != 1 {
		t.Errorf("NMI = %d, want 1", c.NMI())
	}
	if c.MDAs != 500 {
		t.Errorf("MDAs = %d, want 500", c.MDAs)
	}
	if c.Ratio() <= 0 || c.Ratio() > 1 {
		t.Errorf("Ratio = %v out of range", c.Ratio())
	}
	lt, eq, gt, always := c.RatioClasses()
	if lt != 0 || eq != 0 || gt != 0 || always != 1 {
		t.Errorf("classes = %d/%d/%d/%d, want 0/0/0/1", lt, eq, gt, always)
	}
}

func TestRatioClasses(t *testing.T) {
	c := &Census{Sites: []store.TrapSite{
		{PC: 1, MDA: 1, Aligned: 9},  // <50%
		{PC: 2, MDA: 5, Aligned: 5},  // =50%
		{PC: 3, MDA: 9, Aligned: 1},  // >50%
		{PC: 4, MDA: 10, Aligned: 0}, // =100%
		{PC: 5, MDA: 0, Aligned: 10}, // not an MDA site
	}}
	lt, eq, gt, always := c.RatioClasses()
	if lt != 1 || eq != 1 || gt != 1 || always != 1 {
		t.Errorf("classes = %d/%d/%d/%d, want 1/1/1/1", lt, eq, gt, always)
	}
}

func TestMechanismString(t *testing.T) {
	for m, want := range map[Mechanism]string{
		Direct: "direct", StaticProfile: "static-profile",
		DynamicProfile: "dynamic-profile", ExceptionHandling: "exception-handling",
		DPEH: "dpeh", SPEH: "speh",
	} {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), want)
		}
	}
	if Mechanism(99).String() != "mechanism?" {
		t.Error("unknown mechanism string")
	}
}

func TestCodeCacheAllocator(t *testing.T) {
	cc := newCodeCache(1024, nil)
	a1, err := cc.allocBlock(100)
	if err != nil || a1 != CodeCacheBase {
		t.Fatalf("allocBlock = %#x, %v", a1, err)
	}
	a2, _ := cc.allocBlock(1) // rounds to 4
	if a2 != CodeCacheBase+100 {
		t.Fatalf("second block at %#x", a2)
	}
	s1, err := cc.allocStub(40)
	if err != nil || s1 != CodeCacheBase+1024-40 {
		t.Fatalf("allocStub = %#x, %v", s1, err)
	}
	if cc.used() != 100+4+40 {
		t.Fatalf("used = %d", cc.used())
	}
	if _, err := cc.allocBlock(2000); err == nil {
		t.Fatal("oversized allocBlock succeeded")
	}
	if _, err := cc.allocStub(2000); err == nil {
		t.Fatal("oversized allocStub succeeded")
	}
	cc.reset()
	if cc.used() != 0 {
		t.Fatal("reset did not clear usage")
	}
}

func TestEngineAccessors(t *testing.T) {
	e := engineFor(t, mdaLoopImg(t, 10), DefaultOptions(ExceptionHandling))
	mustRun(t, e)
	if e.Blocks() == 0 {
		t.Error("no blocks live")
	}
	if e.CodeCacheUsed() == 0 {
		t.Error("code cache empty after run")
	}
	if e.Stats().BlocksTranslated == 0 {
		t.Error("no translations counted")
	}
}

// realignImg builds a loop whose site is misaligned for the first phase
// (so profiling inlines the MDA sequence) and aligned afterwards — the
// scenario the paper's "truly adaptive method" (§IV-D) targets.
func realignImg(t *testing.T, flip, total int32) []byte {
	return buildImg(t, func(b *guest.Builder) {
		b.MovImm(guest.EBX, guest.DataBase+2) // misaligned base
		b.MovImm(guest.ECX, 0)
		b.MovImm(guest.EAX, 0)
		b.Jmp("loop")
		b.Label("loop")
		b.Load(guest.LD4, guest.EDX, guest.MemRef{Base: guest.EBX, Disp: 4})
		b.ALU(guest.ADDrr, guest.EAX, guest.EDX)
		b.ALUImm(guest.ADDri, guest.ECX, 1)
		b.CmpImm(guest.ECX, flip)
		b.Jcc(guest.E, "flip")
		b.CmpImm(guest.ECX, total)
		b.Jcc(guest.L, "loop")
		b.Halt()
		b.Label("flip")
		b.ALUImm(guest.ADDri, guest.EBX, 2) // aligned from now on
		b.Jmp("loop")
	})
}

func TestAdaptiveRevertsRealignedSite(t *testing.T) {
	opt := DefaultOptions(DPEH)
	opt.HeatThreshold = 5
	opt.Adaptive = true
	opt.AdaptiveStreak = 50
	e := engineFor(t, realignImg(t, 200, 3000), opt)
	mustRun(t, e)
	s := e.Stats()
	if s.AdaptiveSites == 0 {
		t.Fatal("no adaptive sites emitted")
	}
	if s.AdaptiveReverts == 0 {
		t.Fatal("site never reverted despite 2800 aligned executions")
	}
	// After the revert the site is a plain op; no further traps occur
	// because it stays aligned.
	if traps := e.Mach.Counters().MisalignTraps; traps > 2 {
		t.Errorf("traps = %d, want ≤2", traps)
	}
}

func TestAdaptiveCheaperThanSeqAfterRealign(t *testing.T) {
	// With a long aligned tail, adaptive (which reverts to a 1-inst plain
	// op) must eventually beat the permanent MDA sequence... but the paper
	// argues the instrumentation usually costs more than it saves. Verify
	// both directions: adaptive wins on an extreme realign workload, and
	// loses on a stable always-misaligned one.
	img := realignImg(t, 100, 20000)
	opt := DefaultOptions(DPEH)
	opt.HeatThreshold = 5
	plain := engineFor(t, img, opt)
	mustRun(t, plain)
	optA := opt
	optA.Adaptive = true
	optA.AdaptiveStreak = 50
	adaptive := engineFor(t, img, optA)
	mustRun(t, adaptive)
	if adaptive.Mach.Counters().Cycles >= plain.Mach.Counters().Cycles {
		t.Errorf("adaptive (%d cycles) not cheaper than DPEH (%d) on realigning workload",
			adaptive.Mach.Counters().Cycles, plain.Mach.Counters().Cycles)
	}

	stable := mdaLoopImg(t, 20000)
	plain2 := engineFor(t, stable, opt)
	mustRun(t, plain2)
	adaptive2 := engineFor(t, stable, optA)
	mustRun(t, adaptive2)
	if adaptive2.Mach.Counters().Cycles <= plain2.Mach.Counters().Cycles {
		t.Errorf("adaptive (%d cycles) not costlier than DPEH (%d) on stable workload (paper's claim)",
			adaptive2.Mach.Counters().Cycles, plain2.Mach.Counters().Cycles)
	}
}

func TestAdaptiveStateCorrect(t *testing.T) {
	// Architectural state must match the reference interpreter through the
	// revert machinery.
	img := realignImg(t, 150, 2000)
	refCPU, refArena := reference(t, img, patternData(64))
	opt := DefaultOptions(DPEH)
	opt.HeatThreshold = 5
	opt.Adaptive = true
	opt.AdaptiveStreak = 20
	gotCPU, gotArena, e := runDBT(t, img, patternData(64), opt)
	compareState(t, "adaptive", refCPU, gotCPU, refArena, gotArena)
	if e.Stats().AdaptiveReverts == 0 {
		t.Error("revert machinery never exercised")
	}
}

// callHeavyImg builds a call-heavy loop (every iteration does CALL/RET),
// the workload shape the indirect-branch translation cache targets.
func callHeavyImg(t *testing.T, n int32) []byte {
	return buildImg(t, func(b *guest.Builder) {
		b.MovImm(guest.EBX, guest.DataBase)
		b.MovImm(guest.ECX, 0)
		b.MovImm(guest.EAX, 0)
		b.Jmp("loop")
		b.Label("loop")
		b.Call("fn")
		b.ALUImm(guest.ADDri, guest.ECX, 1)
		b.CmpImm(guest.ECX, n)
		b.Jcc(guest.L, "loop")
		b.Halt()
		b.Label("fn")
		b.Load(guest.LD4, guest.EDX, guest.MemRef{Base: guest.EBX})
		b.ALU(guest.ADDrr, guest.EAX, guest.EDX)
		b.Ret()
	})
}

func TestIBTCCutsIndirectDispatches(t *testing.T) {
	n := int32(5000)
	base := engineFor(t, callHeavyImg(t, n), DefaultOptions(ExceptionHandling))
	mustRun(t, base)
	opt := DefaultOptions(ExceptionHandling)
	opt.IBTC = true
	ibtc := engineFor(t, callHeavyImg(t, n), opt)
	mustRun(t, ibtc)

	if ibtc.Stats().IBTCFills == 0 {
		t.Fatal("IBTC never filled")
	}
	// Every RET without IBTC is a BRKBT round trip; with IBTC almost none.
	bb, ib := base.Mach.Counters().Brks, ibtc.Mach.Counters().Brks
	if ib >= bb/10 {
		t.Errorf("IBTC brks = %d, want ≪ baseline %d", ib, bb)
	}
	if ic, bc := ibtc.Mach.Counters().Cycles, base.Mach.Counters().Cycles; ic >= bc {
		t.Errorf("IBTC cycles %d not below baseline %d", ic, bc)
	}
	// Architectural state identical.
	if base.FinalCPU().R[guest.EAX] != ibtc.FinalCPU().R[guest.EAX] {
		t.Error("IBTC changed program semantics")
	}
}

func TestIBTCSurvivesInvalidation(t *testing.T) {
	// Retranslation invalidates blocks the IBTC may point to; stale entries
	// must be evicted, not followed into reused memory.
	img := buildImg(t, func(b *guest.Builder) {
		b.MovImm(guest.EBX, guest.DataBase)
		b.MovImm(guest.ECX, 0)
		b.MovImm(guest.EAX, 0)
		b.Jmp("loop")
		b.Label("loop")
		b.Call("fn")
		b.ALUImm(guest.ADDri, guest.ECX, 1)
		b.CmpImm(guest.ECX, 2000)
		b.Jcc(guest.L, "loop")
		b.Halt()
		b.Label("fn")
		// Four sites that all flip misaligned at iteration 500 → the block
		// containing them gets retranslated under DPEH+Retranslate.
		b.Load(guest.LD4, guest.EDX, guest.MemRef{Base: guest.EBX, Disp: 4})
		b.Load(guest.LD4, guest.ESI, guest.MemRef{Base: guest.EBX, Disp: 8})
		b.Load(guest.LD4, guest.EDI, guest.MemRef{Base: guest.EBX, Disp: 12})
		b.Load(guest.LD4, guest.EBP, guest.MemRef{Base: guest.EBX, Disp: 16})
		b.ALU(guest.ADDrr, guest.EAX, guest.EDX)
		b.CmpImm(guest.ECX, 500)
		b.Jcc(guest.NE, "noflip")
		b.ALUImm(guest.ADDri, guest.EBX, 2)
		b.Label("noflip")
		b.Ret()
	})
	opt := DefaultOptions(DPEH)
	opt.HeatThreshold = 5
	opt.Retranslate = true
	opt.RetransThreshold = 2
	opt.IBTC = true
	e := engineFor(t, img, opt)
	refCPU, refArena := reference(t, img, patternData(256))
	mustRun(t, e)
	gotArena := make([]byte, 256)
	e.Mem.ReadBytes(guest.DataBase, gotArena)
	compareState(t, "ibtc-invalidate", refCPU, e.FinalCPU(), refArena, gotArena)
}

func TestEventLog(t *testing.T) {
	opt := DefaultOptions(ExceptionHandling)
	e := engineFor(t, mdaLoopImg(t, 500), opt)
	e.EnableEventLog()
	mustRun(t, e)
	events, dropped := e.Events()
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	if dropped != 0 {
		t.Errorf("dropped %d events on a tiny run", dropped)
	}
	kinds := map[EventKind]int{}
	for i, ev := range events {
		kinds[ev.Kind]++
		if i > 0 && ev.Cycle < events[i-1].Cycle {
			t.Fatalf("events out of order at %d", i)
		}
		if len(ev.String()) == 0 {
			t.Fatal("empty event string")
		}
	}
	if kinds[EvTranslate] == 0 || kinds[EvTrap] == 0 || kinds[EvPatch] == 0 || kinds[EvLink] == 0 {
		t.Errorf("missing expected event kinds: %v", kinds)
	}
	// Disabled log costs nothing and returns nothing.
	e2 := engineFor(t, mdaLoopImg(t, 10), opt)
	mustRun(t, e2)
	if evs, _ := e2.Events(); evs != nil {
		t.Error("events recorded without EnableEventLog")
	}
}

func TestEventLogRingBound(t *testing.T) {
	// Force more than eventLogCap events via constant link/dispatch churn:
	// a call-heavy loop with IBTC disabled dispatches every iteration, but
	// dispatches aren't events — use NoChain + many blocks? Simplest:
	// exercise the ring directly.
	e := engineFor(t, mdaLoopImg(t, 10), DefaultOptions(ExceptionHandling))
	e.EnableEventLog()
	for i := 0; i < eventLogCap+100; i++ {
		e.event(EvLink, uint32(i), 0, "")
	}
	events, dropped := e.Events()
	if len(events) != eventLogCap {
		t.Fatalf("ring holds %d, want %d", len(events), eventLogCap)
	}
	if dropped != 100 {
		t.Fatalf("dropped = %d, want 100", dropped)
	}
	if events[0].GuestPC != 100 {
		t.Fatalf("oldest event guestPC = %d, want 100", events[0].GuestPC)
	}
	if events[len(events)-1].GuestPC != uint32(eventLogCap+99) {
		t.Fatalf("newest event wrong: %d", events[len(events)-1].GuestPC)
	}
	// Reset empties the wrapped log in place: no events, nothing dropped,
	// recording restarts at the front of the same buffer.
	buf := &e.events.buf[0]
	e.Reset(e.Opt)
	if events, dropped := e.Events(); len(events) != 0 || dropped != 0 {
		t.Fatalf("after Reset: %d events, %d dropped; want 0, 0", len(events), dropped)
	}
	e.event(EvLink, 7, 0, "")
	if events, _ := e.Events(); len(events) != 1 || events[0].GuestPC != 7 {
		t.Fatalf("after Reset: events %v, want the one recorded", events)
	}
	if &e.events.buf[0] != buf {
		t.Fatal("Reset replaced the event buffer")
	}
}

// multiBlockLoopImg builds a loop whose body spans several basic blocks
// with a dominant path — the superblock formation target.
func multiBlockLoopImg(t *testing.T, n int32) []byte {
	return buildImg(t, func(b *guest.Builder) {
		b.MovImm(guest.EBX, guest.DataBase)
		b.MovImm(guest.ECX, 0)
		b.MovImm(guest.EAX, 0)
		b.Jmp("loop")
		b.Label("loop")
		b.Load(guest.LD4, guest.EDX, guest.MemRef{Base: guest.EBX, Disp: 2}) // MDA
		b.ALU(guest.ADDrr, guest.EAX, guest.EDX)
		b.Mov(guest.ESI, guest.ECX)
		b.ALUImm(guest.ANDri, guest.ESI, 1023)
		b.CmpImm(guest.ESI, 1023)
		b.Jcc(guest.E, "rare") // cold path, taken 1/1024
		b.Label("hotcont")
		b.Load(guest.LD4, guest.EDX, guest.MemRef{Base: guest.EBX, Disp: 8})
		b.ALU(guest.XORrr, guest.EAX, guest.EDX)
		b.Jmp("tail")
		b.Label("tail")
		b.ALUImm(guest.ADDri, guest.ECX, 1)
		b.CmpImm(guest.ECX, n)
		b.Jcc(guest.L, "loop")
		b.Halt()
		b.Label("rare")
		b.ALUImm(guest.XORri, guest.EAX, 0x5A5A)
		b.Jmp("hotcont")
	})
}

func TestSuperblockFormation(t *testing.T) {
	opt := DefaultOptions(DPEH)
	opt.HeatThreshold = 8
	opt.Superblocks = true
	e := engineFor(t, multiBlockLoopImg(t, 4000), opt)
	mustRun(t, e)
	s := e.Stats()
	if s.Superblocks == 0 {
		t.Fatal("no superblocks formed")
	}
	if s.TraceBlocks < 2*s.Superblocks {
		t.Errorf("traces too short: %d traces, %d blocks", s.Superblocks, s.TraceBlocks)
	}
	// Dump must render the trace with non-contiguous guest PCs.
	found := false
	for _, pc := range e.TranslatedPCs() {
		out, _ := e.DumpBlock(pc)
		if strings.Contains(out, "trace(") {
			found = true
		}
	}
	if !found {
		t.Error("no trace in block dumps")
	}
}

func TestSuperblockCosim(t *testing.T) {
	img := multiBlockLoopImg(t, 3000)
	refCPU, refArena := reference(t, img, patternData(256))
	for _, mech := range []Mechanism{DynamicProfile, DPEH} {
		opt := DefaultOptions(mech)
		opt.HeatThreshold = 6
		opt.Superblocks = true
		gotCPU, gotArena, e := runDBT(t, img, patternData(256), opt)
		compareState(t, "superblock/"+mech.String(), refCPU, gotCPU, refArena, gotArena)
		if e.Stats().Superblocks == 0 {
			t.Errorf("%v: no superblocks formed", mech)
		}
	}
	// Superblocks combined with every DPEH extension.
	opt := DefaultOptions(DPEH)
	opt.HeatThreshold = 6
	opt.Superblocks = true
	opt.Retranslate = true
	opt.MultiVersion = true
	opt.IBTC = true
	opt.Adaptive = true
	opt.AdaptiveStreak = 30
	gotCPU, gotArena, _ := runDBT(t, img, patternData(256), opt)
	compareState(t, "superblock/all", refCPU, gotCPU, refArena, gotArena)
}

func TestSuperblockNotSlower(t *testing.T) {
	// Long enough that the one-time trace-translation cost (and the
	// duplicated side-entry translations) amortize.
	img := multiBlockLoopImg(t, 40000)
	opt := DefaultOptions(DPEH)
	opt.HeatThreshold = 8
	base := engineFor(t, img, opt)
	mustRun(t, base)
	opt.Superblocks = true
	sb := engineFor(t, img, opt)
	mustRun(t, sb)
	bc, sc := base.Mach.Counters().Cycles, sb.Mach.Counters().Cycles
	if float64(sc) > 1.02*float64(bc) {
		t.Errorf("superblocks %d cycles vs %d baseline (>2%% regression)", sc, bc)
	}
}

func TestIndexedAddressingMDAPatching(t *testing.T) {
	// A site whose address needs materialization (index + big disp) still
	// patches correctly: the faulting instruction's base register is the
	// BT temporary, and the stub must reproduce the same addressing.
	img := buildImg(t, func(b *guest.Builder) {
		b.MovImm(guest.EBX, guest.DataBase)
		b.MovImm(guest.ECX, 0)
		b.MovImm(guest.EAX, 0)
		b.Jmp("loop")
		b.Label("loop")
		b.Mov(guest.ESI, guest.ECX)
		b.ALUImm(guest.ANDri, guest.ESI, 7)
		b.Load(guest.LD4, guest.EDX, guest.MemRef{Base: guest.EBX, HasIndex: true, Index: guest.ESI, Scale: 8, Disp: 40002}) // misaligned: 40002%4 != 0
		b.ALU(guest.ADDrr, guest.EAX, guest.EDX)
		b.ALUImm(guest.ADDri, guest.ECX, 1)
		b.CmpImm(guest.ECX, 400)
		b.Jcc(guest.L, "loop")
		b.Halt()
	})
	refCPU, refArena := reference(t, img, patternData(64*1024))
	gotCPU, gotArena, e := runDBT(t, img, patternData(64*1024), DefaultOptions(ExceptionHandling))
	compareState(t, "indexed-patch", refCPU, gotCPU, refArena, gotArena)
	if e.Stats().Patches == 0 {
		t.Fatal("no patches on materialized-address site")
	}
	if traps := e.Mach.Counters().MisalignTraps; traps > 3 {
		t.Errorf("traps = %d, want ~1 (patched)", traps)
	}
}

func TestMixed8ByteSiteMultiVersion(t *testing.T) {
	// Multi-version must handle quadword (F-register) sites too.
	img := buildImg(t, func(b *guest.Builder) {
		b.MovImm(guest.EBX, guest.DataBase)
		b.MovImm(guest.ECX, 0)
		b.Jmp("loop")
		b.Label("loop")
		b.Mov(guest.ESI, guest.ECX)
		b.ALUImm(guest.ANDri, guest.ESI, 1)
		b.ALUImm(guest.IMULri, guest.ESI, 4)
		b.ALU(guest.ADDrr, guest.ESI, guest.EBX)
		b.FLoad(guest.F0, guest.MemRef{Base: guest.ESI, Disp: 8}) // alternates aligned/+4
		b.FAdd(guest.F1, guest.F0)
		b.ALUImm(guest.ADDri, guest.ECX, 1)
		b.CmpImm(guest.ECX, 600)
		b.Jcc(guest.L, "loop")
		b.Halt()
	})
	refCPU, refArena := reference(t, img, patternData(64))
	opt := DefaultOptions(DPEH)
	opt.HeatThreshold = 8
	opt.MultiVersion = true
	gotCPU, gotArena, e := runDBT(t, img, patternData(64), opt)
	compareState(t, "mv-quadword", refCPU, gotCPU, refArena, gotArena)
	if e.Stats().MultiVersion == 0 {
		t.Fatal("quadword mixed site did not trigger multi-version")
	}
	if traps := e.Mach.Counters().MisalignTraps; traps > 2 {
		t.Errorf("traps = %d with multi-version", traps)
	}
}

func TestStatsDumpMentionsEverything(t *testing.T) {
	opt := DefaultOptions(DPEH)
	opt.HeatThreshold = 4
	opt.Retranslate = true
	e := engineFor(t, lateOnsetImg(t, 100, 400), opt)
	mustRun(t, e)
	out := e.DumpStats()
	for _, frag := range []string{"cycles=", "traps=", "translated=", "patches=", "code-cache="} {
		if !strings.Contains(out, frag) {
			t.Errorf("DumpStats lacks %q:\n%s", frag, out)
		}
	}
}

// TestProfileDBRoundTrip: dbtrun -profile-out writes the trained profile
// as the store's trap-profile JSON and -profile-in decodes it through
// store.TrapProfile's decoder — the same one store loads use. A round trip
// and a file in the older {"program","input","sites"} layout both load to
// the training run's static set, which drives the static mechanism with no
// runtime traps.
func TestProfileDBRoundTrip(t *testing.T) {
	img := mdaLoopImg(t, 200)
	m := mem.New()
	m.WriteBytes(guest.CodeBase, img)
	m.WriteBytes(guest.DataBase, patternData(256))
	trained, err := TrainProfile(m, guest.CodeBase, 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	want := trained.StaticSites()
	if len(want) == 0 {
		t.Fatal("training found no MDA sites")
	}
	written, err := json.MarshalIndent(trained, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	old := `{"program":"mdaloop","input":"train","sites":[`
	var pcs []uint32
	for pc := range want {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	for i, pc := range pcs {
		if i > 0 {
			old += ","
		}
		old += fmt.Sprintf(`{"pc":%d,"mda":7,"aligned":0}`, pc)
	}
	old += "]}"

	for _, tc := range []struct{ name, file string }{
		{"round-trip", string(written)},
		{"old-format", old},
	} {
		var tp store.TrapProfile
		if err := json.Unmarshal([]byte(tc.file), &tp); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := tp.StaticSites(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: static sites %v, want %v", tc.name, got, want)
		}
		opt := DefaultOptions(StaticProfile)
		opt.StaticSites = tp.StaticSites()
		e := engineFor(t, img, opt)
		mustRun(t, e)
		if traps := e.Mach.Counters().MisalignTraps; traps != 0 {
			t.Errorf("%s: traps = %d with a stored profile", tc.name, traps)
		}
	}
}

// TestProfileDBLoadErrors: the -profile-in decode rejects malformed JSON
// and a site with both counts zero.
func TestProfileDBLoadErrors(t *testing.T) {
	for _, tc := range []struct{ name, file string }{
		{"malformed", "not json"},
		{"zero-counts", `{"sites":[{"pc":1,"mda":0,"aligned":0}]}`},
	} {
		var tp store.TrapProfile
		if err := json.Unmarshal([]byte(tc.file), &tp); err == nil {
			t.Errorf("%s: decoded, want an error", tc.name)
		}
	}
}

func TestTrainProfileNonHalting(t *testing.T) {
	img := buildImg(t, func(b *guest.Builder) {
		b.Label("spin")
		b.Jmp("spin")
	})
	m := mem.New()
	m.WriteBytes(guest.CodeBase, img)
	if _, err := TrainProfile(m, guest.CodeBase, 1000); err == nil {
		t.Error("non-halting training run: want error")
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{EvTranslate, EvInvalidate, EvTrap, EvPatch, EvRearrange,
		EvRetranslate, EvLink, EvFlush, EvRevert, EvIBTCFill}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("event kind %d: bad or duplicate name %q", k, s)
		}
		seen[s] = true
	}
	if EventKind(200).String() == "" {
		t.Error("unknown kind must still render")
	}
}

func TestAdaptiveRejectedForNonDPEH(t *testing.T) {
	// The adaptive option is a DPEH refinement; under plain EH it used to
	// no-op silently — now Validate rejects the combination and Run
	// surfaces the error.
	opt := DefaultOptions(ExceptionHandling)
	opt.Adaptive = true
	if err := opt.Validate(); err == nil {
		t.Fatal("Validate accepted Adaptive under exception-handling")
	}
	e := engineFor(t, mdaLoopImg(t, 300), opt)
	if err := e.Run(guest.CodeBase, 1<<20); err == nil {
		t.Fatal("Run accepted Adaptive under exception-handling")
	}
}

func TestSuperblocksInertWithoutProfiling(t *testing.T) {
	// Trace formation needs the interpretation profile; under EH (no
	// profiling phase) the option must be inert.
	opt := DefaultOptions(ExceptionHandling)
	opt.Superblocks = true
	e := engineFor(t, multiBlockLoopImg(t, 500), opt)
	mustRun(t, e)
	if e.Stats().Superblocks != 0 {
		t.Errorf("traces formed without a profiling phase: %d", e.Stats().Superblocks)
	}
}

func TestZeroOptionsNormalized(t *testing.T) {
	// A bare Options{Mechanism: X} must behave like the defaults.
	e := engineFor(t, mdaLoopImg(t, 100), Options{Mechanism: ExceptionHandling})
	mustRun(t, e)
	if e.Opt.CodeCacheBytes == 0 || e.Opt.EHHandlerCycles == 0 {
		t.Fatal("options not normalized")
	}
	d := engineFor(t, mdaLoopImg(t, 100), DefaultOptions(ExceptionHandling))
	mustRun(t, d)
	if e.Mach.Counters().Cycles != d.Mach.Counters().Cycles {
		t.Fatalf("zero options (%d cycles) differ from defaults (%d)",
			e.Mach.Counters().Cycles, d.Mach.Counters().Cycles)
	}
}

// mixedGroupImg builds a loop whose block contains several sites that all
// alternate alignment together (they share a base pointer) — the situation
// where the paper prefers block-granularity multi-version code: one check
// covers all of them.
func mixedGroupImg(t *testing.T, n int32) []byte {
	return buildImg(t, func(b *guest.Builder) {
		b.MovImm(guest.EBX, guest.DataBase)
		b.MovImm(guest.ECX, 0)
		b.MovImm(guest.EAX, 0)
		b.Jmp("loop")
		b.Label("loop")
		b.Mov(guest.ESI, guest.ECX)
		b.ALUImm(guest.ANDri, guest.ESI, 1)
		b.ALUImm(guest.IMULri, guest.ESI, 2)
		b.ALU(guest.ADDrr, guest.ESI, guest.EBX) // esi = base or base+2
		b.Load(guest.LD4, guest.EDX, guest.MemRef{Base: guest.ESI, Disp: 8})
		b.ALU(guest.ADDrr, guest.EAX, guest.EDX)
		b.Load(guest.LD4, guest.EDX, guest.MemRef{Base: guest.ESI, Disp: 16})
		b.ALU(guest.XORrr, guest.EAX, guest.EDX)
		b.Load(guest.LD4, guest.EDX, guest.MemRef{Base: guest.ESI, Disp: 24})
		b.ALU(guest.ADDrr, guest.EAX, guest.EDX)
		b.Store(guest.ST4, guest.MemRef{Base: guest.ESI, Disp: 32}, guest.EAX)
		b.ALUImm(guest.ADDri, guest.ECX, 1)
		b.CmpImm(guest.ECX, n)
		b.Jcc(guest.L, "loop")
		b.Halt()
	})
}

func TestMVBlockGranularityCosim(t *testing.T) {
	img := mixedGroupImg(t, 800)
	refCPU, refArena := reference(t, img, patternData(128))
	opt := DefaultOptions(DPEH)
	opt.HeatThreshold = 8
	opt.MultiVersion = true
	opt.MVBlockGranularity = true
	gotCPU, gotArena, e := runDBT(t, img, patternData(128), opt)
	compareState(t, "mv-block", refCPU, gotCPU, refArena, gotArena)
	if e.Stats().MultiVersion == 0 {
		t.Fatal("no multi-version blocks")
	}
	if traps := e.Mach.Counters().MisalignTraps; traps > 2 {
		t.Errorf("traps = %d; the one guard covers all four sites", traps)
	}
}

func TestMVBlockBeatsPerSiteOnSharedBase(t *testing.T) {
	// Four mixed sites sharing one base: block granularity checks once per
	// iteration, per-site checks four times — the paper's §IV-D argument.
	img := mixedGroupImg(t, 30000)
	base := DefaultOptions(DPEH)
	base.HeatThreshold = 8
	base.MultiVersion = true
	perSite := engineFor(t, img, base)
	mustRun(t, perSite)
	blk := base
	blk.MVBlockGranularity = true
	blockG := engineFor(t, img, blk)
	mustRun(t, blockG)
	pc, bc := perSite.Mach.Counters().Cycles, blockG.Mach.Counters().Cycles
	if bc >= pc {
		t.Errorf("block granularity (%d cycles) not cheaper than per-site (%d)", bc, pc)
	}
}

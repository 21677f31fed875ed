package core

import (
	"testing"

	"mdabt/internal/guest"
	"mdabt/internal/host"
	"mdabt/internal/machine"
	"mdabt/internal/mem"
)

// TestStubZoneExhaustionFallsBack fills the stub zone so the exception
// handler must fall back to per-trap OS fixup — correctness must survive.
func TestStubZoneExhaustionFallsBack(t *testing.T) {
	// Many distinct always-MDA sites in a loop: each wants a stub.
	img := buildImg(t, func(b *guest.Builder) {
		b.MovImm(guest.EBX, guest.DataBase)
		b.MovImm(guest.ECX, 0)
		b.MovImm(guest.EAX, 0)
		b.Jmp("loop")
		b.Label("loop")
		for i := 0; i < 24; i++ {
			b.Load(guest.LD4, guest.EDX, guest.MemRef{Base: guest.EBX, Disp: int32(2 + 8*i)})
			b.ALU(guest.ADDrr, guest.EAX, guest.EDX)
		}
		b.ALUImm(guest.ADDri, guest.ECX, 1)
		b.CmpImm(guest.ECX, 40)
		b.Jcc(guest.L, "loop")
		b.Halt()
	})
	refCPU, refArena := reference(t, img, patternData(512))
	opt := DefaultOptions(ExceptionHandling)
	opt.CodeCacheBytes = 1 << 10 // 1KB: only a few stubs fit
	gotCPU, gotArena, e := runDBT(t, img, patternData(512), opt)
	compareState(t, "stub-exhaustion", refCPU, gotCPU, refArena, gotArena)
	if e.Stats().Flushes == 0 && e.Stats().Patches == 0 {
		t.Error("test exercised neither flush nor patching")
	}
	// Some traps repeated (OS-fixup fallback) — more traps than sites.
	if e.Mach.Counters().MisalignTraps <= 24 {
		t.Errorf("traps = %d, expected repeats under stub exhaustion", e.Mach.Counters().MisalignTraps)
	}
}

// TestFlushUnderLoadKeepsState: a tiny code cache forces repeated full
// flushes while MDA patching is active; final state must stay correct.
func TestFlushUnderLoadKeepsState(t *testing.T) {
	// The multi-block loop body exceeds an 80-byte cache, so every
	// iteration cycle forces flushes while MDA patching stays active.
	img := multiBlockLoopImg(t, 400)
	refCPU, refArena := reference(t, img, patternData(256))
	for _, mech := range []Mechanism{ExceptionHandling, DPEH} {
		opt := DefaultOptions(mech)
		opt.HeatThreshold = 3
		opt.CodeCacheBytes = 80
		gotCPU, gotArena, e := runDBT(t, img, patternData(256), opt)
		compareState(t, "flush/"+mech.String(), refCPU, gotCPU, refArena, gotArena)
		if e.Stats().Flushes == 0 {
			t.Errorf("%v: no flushes with an 80-byte cache", mech)
		}
	}
}

// TestRunTwiceIsDeterministic: two engines over the same program produce
// identical cycle counts (the simulator has no hidden nondeterminism).
func TestRunTwiceIsDeterministic(t *testing.T) {
	img := multiBlockLoopImg(t, 2000)
	opt := DefaultOptions(DPEH)
	opt.Retranslate = true
	opt.MultiVersion = true
	opt.Superblocks = true
	run := func() (uint64, uint64) {
		e := engineFor(t, img, opt)
		mustRun(t, e)
		return e.Mach.Counters().Cycles, e.Mach.Counters().Insts
	}
	c1, i1 := run()
	c2, i2 := run()
	if c1 != c2 || i1 != i2 {
		t.Fatalf("nondeterministic: run1=%d/%d run2=%d/%d", c1, i1, c2, i2)
	}
}

// TestEngineReRunAfterHalt: the same engine can run a second program image
// region (a fresh entry) after halting.
func TestEngineReRunAfterHalt(t *testing.T) {
	e := engineFor(t, mdaLoopImg(t, 50), DefaultOptions(ExceptionHandling))
	mustRun(t, e)
	first := e.FinalCPU().R[guest.EAX]
	// Run again from the same entry: state resets, result identical.
	mustRun(t, e)
	if got := e.FinalCPU().R[guest.EAX]; got != first {
		t.Fatalf("second run eax=%#x, first=%#x", got, first)
	}
}

// TestTrapInUnknownCodeFallsBackToFixup: a trap at a host PC outside every
// translation unit (e.g. hand-written host code) uses the OS-style fixup
// even under the patching mechanisms.
func TestTrapInUnknownCodeFallsBackToFixup(t *testing.T) {
	m := mem.New()
	mach := machine.New(m, machine.DefaultParams())
	NewEngine(m, mach, DefaultOptions(ExceptionHandling)) // registers the handler
	m.Write64(0x2000, 0x1122334455667788)
	a := host.NewAsm(0x100000)
	a.MovImm(host.R2, 0x2002)
	a.Mem(host.LDL, host.R1, 0, host.R2) // misaligned: in no unit
	a.Brk(machine.HaltService)
	words, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	mach.WriteCode(0x100000, words)
	mach.SetPC(0x100000)
	if _, _, err := mach.Run(100); err != nil {
		t.Fatal(err)
	}
	if mach.Counters().MisalignTraps != 1 {
		t.Fatalf("traps = %d, want 1", mach.Counters().MisalignTraps)
	}
	// Bytes at 0x2002..0x2005 little-endian: 0x66,0x55,0x44,0x33.
	if got := uint32(mach.Reg(host.R1)); got != 0x33445566 {
		t.Fatalf("fixup value %#x, want 0x33445566", got)
	}
}

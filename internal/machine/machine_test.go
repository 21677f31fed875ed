package machine

import (
	"math/rand"
	"testing"

	"mdabt/internal/host"
	"mdabt/internal/mem"
)

func newMachine(caches bool) *Machine {
	p := DefaultParams()
	p.UseCaches = caches
	return New(mem.New(), p)
}

// load assembles the program with base addr and writes it as code.
func load(t *testing.T, m *Machine, base uint64, build func(a *host.Asm)) {
	t.Helper()
	a := host.NewAsm(base)
	build(a)
	words, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	m.WriteCode(base, words)
	m.SetPC(base)
}

func run(t *testing.T, m *Machine) (StopReason, uint32) {
	t.Helper()
	r, payload, err := m.Run(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	return r, payload
}

func TestHaltAndArithmetic(t *testing.T) {
	m := newMachine(false)
	load(t, m, 0x1000, func(a *host.Asm) {
		a.MovImm(host.R1, 40)
		a.OprLit(host.ADDQ, host.R1, 2, host.R2)
		a.Opr(host.SUBQ, host.R2, host.R1, host.R3)
		a.Brk(HaltService)
	})
	r, _ := run(t, m)
	if r != StopHalt {
		t.Fatalf("stop = %v, want halt", r)
	}
	if m.Reg(host.R2) != 42 || m.Reg(host.R3) != 2 {
		t.Fatalf("r2=%d r3=%d, want 42, 2", m.Reg(host.R2), m.Reg(host.R3))
	}
}

func TestZeroRegister(t *testing.T) {
	m := newMachine(false)
	load(t, m, 0x1000, func(a *host.Asm) {
		a.MovImm(host.R31, 99) // write to zero register is discarded
		a.Opr(host.ADDQ, host.R31, host.R31, host.R1)
		a.Brk(HaltService)
	})
	run(t, m)
	if m.Reg(host.R31) != 0 || m.Reg(host.R1) != 0 {
		t.Fatalf("zero register leaked: r31=%d r1=%d", m.Reg(host.R31), m.Reg(host.R1))
	}
}

func TestMovImmProperty(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	values := []int64{0, 1, -1, 42, -42, 0x7FFF, 0x8000, -0x8000, -0x8001,
		0x7FFFFFFF, -0x80000000, 0x123456789, -0x123456789,
		0x7FFFFFFFFFFFFFFF, -0x8000000000000000, 0x0123456789ABCDEF}
	for i := 0; i < 200; i++ {
		values = append(values, int64(rnd.Uint64()))
	}
	for _, v := range values {
		m := newMachine(false)
		load(t, m, 0x1000, func(a *host.Asm) {
			a.MovImm(host.R5, v)
			a.Brk(HaltService)
		})
		run(t, m)
		if got := m.Reg(host.R5); got != uint64(v) {
			t.Fatalf("MovImm(%#x): machine computed %#x", v, got)
		}
	}
}

func TestLoadStoreAligned(t *testing.T) {
	m := newMachine(false)
	m.Mem.Write64(0x2000, 0x8899AABBCCDDEEFF)
	load(t, m, 0x1000, func(a *host.Asm) {
		a.MovImm(host.R2, 0x2000)
		a.Mem(host.LDQ, host.R1, 0, host.R2)
		a.Mem(host.LDL, host.R3, 4, host.R2)  // sign-extends 0x8899AABB
		a.Mem(host.LDWU, host.R4, 2, host.R2) // zero-extends
		a.Mem(host.LDBU, host.R5, 7, host.R2)
		a.Mem(host.STL, host.R1, 8, host.R2)
		a.Mem(host.STW, host.R1, 12, host.R2)
		a.Mem(host.STB, host.R1, 14, host.R2)
		a.Brk(HaltService)
	})
	run(t, m)
	if m.Reg(host.R1) != 0x8899AABBCCDDEEFF {
		t.Errorf("ldq = %#x", m.Reg(host.R1))
	}
	if m.Reg(host.R3) != 0xFFFFFFFF8899AABB {
		t.Errorf("ldl sign extension = %#x", m.Reg(host.R3))
	}
	if m.Reg(host.R4) != 0xCCDD {
		t.Errorf("ldwu = %#x", m.Reg(host.R4))
	}
	if m.Reg(host.R5) != 0x88 {
		t.Errorf("ldbu = %#x", m.Reg(host.R5))
	}
	if got := m.Mem.Read32(0x2008); got != 0xCCDDEEFF {
		t.Errorf("stl wrote %#x", got)
	}
	if got := m.Mem.Read16(0x200C); got != 0xEEFF {
		t.Errorf("stw wrote %#x", got)
	}
	if got := m.Mem.Read8(0x200E); got != 0xFF {
		t.Errorf("stb wrote %#x", got)
	}
}

func TestLdqUStqUIgnoreLowBits(t *testing.T) {
	m := newMachine(false)
	m.Mem.Write64(0x2000, 0x1111111111111111)
	load(t, m, 0x1000, func(a *host.Asm) {
		a.MovImm(host.R2, 0x2005)
		a.Mem(host.LDQU, host.R1, 0, host.R2) // reads quad at 0x2000
		a.MovImm(host.R3, 0x2222222222222222)
		a.Mem(host.STQU, host.R3, 0, host.R2) // writes quad at 0x2000
		a.Brk(HaltService)
	})
	run(t, m)
	if m.Reg(host.R1) != 0x1111111111111111 {
		t.Errorf("ldq_u = %#x", m.Reg(host.R1))
	}
	if got := m.Mem.Read64(0x2000); got != 0x2222222222222222 {
		t.Errorf("stq_u wrote %#x", got)
	}
	if m.Counters().MisalignTraps != 0 {
		t.Error("unaligned quadword ops must not trap")
	}
}

func TestMisalignDefaultFixup(t *testing.T) {
	m := newMachine(false)
	m.Mem.Write64(0x2000, 0x8877665544332211)
	load(t, m, 0x1000, func(a *host.Asm) {
		a.MovImm(host.R2, 0x2000)
		a.Mem(host.LDL, host.R1, 3, host.R2) // misaligned: traps, OS fixes up
		a.MovImm(host.R4, 0x0A0B0C0D)
		a.Mem(host.STL, host.R4, 5, host.R2) // misaligned store
		a.Brk(HaltService)
	})
	base := m.Counters().Cycles
	_ = base
	run(t, m)
	if got := m.Reg(host.R1); got != 0x0000000077665544 {
		t.Errorf("fixed-up ldl = %#x, want 0x77665544", got)
	}
	if got := m.Mem.Read32(0x2005); got != 0x0A0B0C0D {
		t.Errorf("fixed-up stl wrote %#x", got)
	}
	c := m.Counters()
	if c.MisalignTraps != 2 {
		t.Fatalf("traps = %d, want 2", c.MisalignTraps)
	}
	if c.TrapCycles != 2*m.Params.MisalignTrapCycles {
		t.Errorf("trap cycles = %d, want %d", c.TrapCycles, 2*m.Params.MisalignTrapCycles)
	}
	if c.Cycles < c.TrapCycles {
		t.Error("total cycles below trap cycles")
	}
}

func TestMisalignLDLSignExtendsOnFixup(t *testing.T) {
	m := newMachine(false)
	m.Mem.Write64(0x2000, 0xFFFFFFFF80000000)
	load(t, m, 0x1000, func(a *host.Asm) {
		a.MovImm(host.R2, 0x2001)
		a.Mem(host.LDL, host.R1, 2, host.R2) // bytes 3..6 = 0xFFFFFF80
		a.Brk(HaltService)
	})
	run(t, m)
	if got := m.Reg(host.R1); got != 0xFFFFFFFFFFFFFF80 {
		t.Errorf("fixed-up ldl = %#x, want sign-extended", got)
	}
}

func TestCustomMisalignHandlerPatches(t *testing.T) {
	// The handler patches the faulting LDL into a BR to an MDA sequence,
	// exactly like the paper's exception-handling mechanism (Fig. 5), and
	// resumes at the faulting pc so the patched instruction executes.
	m := newMachine(false)
	m.Mem.Write64(0x2000, 0x8877665544332211)
	var faultPC uint64
	seqBase := uint64(0x9000)
	m.SetMisalignHandler(func(mm *Machine, pc uint64, inst host.Inst, ea uint64) uint64 {
		faultPC = pc
		// Emit: ldq_u r1, 3(r2); ldq_u r21, 6(r2); lda r22, 3(r2);
		// extll r1, r22, r1; extlh r21, r22, r21; bis; addl; br pc+4
		a := host.NewAsm(seqBase)
		a.Mem(host.LDQU, inst.Ra, inst.Disp, inst.Rb)
		a.Mem(host.LDQU, host.R21, inst.Disp+3, inst.Rb)
		a.Mem(host.LDA, host.R22, inst.Disp, inst.Rb)
		a.Opr(host.EXTLL, inst.Ra, host.R22, inst.Ra)
		a.Opr(host.EXTLH, host.R21, host.R22, host.R21)
		a.Opr(host.BIS, host.R21, inst.Ra, inst.Ra)
		a.Opr(host.ADDL, host.Zero, inst.Ra, inst.Ra)
		a.BrTo(host.BR, host.Zero, pc+host.InstBytes)
		words, err := a.Finish()
		if err != nil {
			t.Fatal(err)
		}
		mm.WriteCode(seqBase, words)
		br, _ := host.BrDispFor(pc, seqBase)
		mm.Patch(pc, host.MustEncode(host.Inst{Op: host.BR, Ra: host.Zero, Disp: br}))
		return pc
	})
	load(t, m, 0x1000, func(a *host.Asm) {
		a.MovImm(host.R2, 0x2000)
		loop := a.NewLabel()
		a.Bind(loop)
		a.Mem(host.LDL, host.R1, 3, host.R2)
		a.OprLit(host.ADDQ, host.R3, 1, host.R3)
		a.OprLit(host.CMPULT, host.R3, 10, host.R4)
		a.Br(host.BNE, host.R4, loop)
		a.Brk(HaltService)
	})
	run(t, m)
	if got := m.Reg(host.R1); got != 0x0000000077665544 {
		t.Errorf("patched MDA sequence result = %#x, want 0x77665544", got)
	}
	if m.Reg(host.R3) != 10 {
		t.Errorf("loop count = %d, want 10", m.Reg(host.R3))
	}
	c := m.Counters()
	if c.MisalignTraps != 1 {
		t.Fatalf("traps = %d, want exactly 1 (patched after first)", c.MisalignTraps)
	}
	if faultPC == 0 {
		t.Fatal("handler never ran")
	}
}

func TestPatchInvalidatesDecodedCache(t *testing.T) {
	m := newMachine(false)
	load(t, m, 0x1000, func(a *host.Asm) {
		top := a.NewLabel()
		a.Bind(top)
		a.OprLit(host.ADDQ, host.R1, 1, host.R1)
		a.Brk(2) // runtime callback
	})
	// First run executes ADDQ then stops at BRKBT.
	r, payload := run(t, m)
	if r != StopBrk || payload != 2 {
		t.Fatalf("stop = %v/%d", r, payload)
	}
	// Patch the ADDQ (already decoded and cached) into ADDQ r1, #5, r1.
	m.Patch(0x1000, host.MustEncode(host.Inst{Op: host.ADDQ, Ra: host.R1, Lit: 5, IsLit: true, Rc: host.R1}))
	m.SetPC(0x1000)
	run(t, m)
	if got := m.Reg(host.R1); got != 6 {
		t.Fatalf("r1 = %d, want 6 (1 from old inst + 5 from patched)", got)
	}
}

func TestBranchesAndJumps(t *testing.T) {
	m := newMachine(false)
	load(t, m, 0x1000, func(a *host.Asm) {
		a.MovImm(host.R1, 3)
		loop := a.NewLabel()
		a.Bind(loop)
		a.OprLit(host.SUBQ, host.R1, 1, host.R1)
		a.Br(host.BNE, host.R1, loop)
		sub := a.NewLabel()
		a.Br(host.BSR, host.R26, sub) // call
		a.Brk(HaltService)
		a.Bind(sub)
		a.MovImm(host.R9, 0x5A)
		a.Jmp(host.RET, host.Zero, host.R26)
	})
	r, _ := run(t, m)
	if r != StopHalt {
		t.Fatalf("stop = %v", r)
	}
	if m.Reg(host.R1) != 0 || m.Reg(host.R9) != 0x5A {
		t.Fatalf("r1=%d r9=%#x", m.Reg(host.R1), m.Reg(host.R9))
	}
}

func TestRunLimit(t *testing.T) {
	m := newMachine(false)
	load(t, m, 0x1000, func(a *host.Asm) {
		spin := a.NewLabel()
		a.Bind(spin)
		a.Br(host.BR, host.Zero, spin)
	})
	r, _, err := m.Run(100)
	if err != nil || r != StopLimit {
		t.Fatalf("got %v/%v, want limit", r, err)
	}
	if m.Counters().Insts != 100 {
		t.Fatalf("insts = %d, want 100", m.Counters().Insts)
	}
}

// TestFetchErrorOnGarbage: an undecodable word is Run's fetch error, at
// once or after the code before it retired, and the fetch charges the
// I-cache as any fetch of a new line does.
func TestFetchErrorOnGarbage(t *testing.T) {
	m := newMachine(true)
	m.Mem.Write32(0x1000, 0x04<<26) // unassigned opcode
	m.SetPC(0x1000)
	if _, _, err := m.Run(10); err == nil || m.PC() != 0x1000 || m.Counters().Cycles == 0 {
		t.Fatalf("executing garbage: err %v, pc %#x, %d cycles: want a fetch error at 0x1000 after an I-cache charge", err, m.PC(), m.Counters().Cycles)
	}
	m.Mem.Write32(0x2000, host.MustEncode(host.Inst{Op: host.ADDQ, Ra: host.R1, Rc: host.R1, IsLit: true, Lit: 1}))
	m.Mem.Write32(0x2004, 0x04<<26)
	m.SetPC(0x2000)
	if _, _, err := m.Run(10); err == nil || m.PC() != 0x2004 || m.Reg(host.R1) != 1 || m.Counters().Insts != 1 {
		t.Fatalf("garbage after an add: err %v, pc %#x, r1 %d, %d insts", err, m.PC(), m.Reg(host.R1), m.Counters().Insts)
	}
}

func TestCacheChargesColdMisses(t *testing.T) {
	cold := newMachine(true)
	warm := newMachine(true)
	prog := func(a *host.Asm) {
		a.MovImm(host.R1, 100)
		loop := a.NewLabel()
		a.Bind(loop)
		a.OprLit(host.SUBQ, host.R1, 1, host.R1)
		a.Br(host.BNE, host.R1, loop)
		a.Brk(HaltService)
	}
	load(t, cold, 0x1000, prog)
	load(t, warm, 0x1000, prog)
	run(t, warm) // first pass warms the caches
	warmStart := warm.Counters().Cycles
	warm.SetPC(0x1000)
	warm.SetReg(host.R1, 0)
	run(t, warm)
	warmCycles := warm.Counters().Cycles - warmStart
	run(t, cold)
	if cold.Counters().Cycles <= warmCycles {
		t.Fatalf("cold run (%d cycles) not slower than warm (%d)", cold.Counters().Cycles, warmCycles)
	}
}

func TestIMBFlushesDecoded(t *testing.T) {
	m := newMachine(false)
	load(t, m, 0x1000, func(a *host.Asm) {
		a.OprLit(host.ADDQ, host.R1, 1, host.R1)
		a.Brk(2)
	})
	run(t, m)
	// Bypass Patch: write code through plain memory, then IMB.
	m.Mem.Write32(0x1000, host.MustEncode(host.Inst{Op: host.ADDQ, Ra: host.R1, Lit: 7, IsLit: true, Rc: host.R1}))
	m.IMB()
	m.SetPC(0x1000)
	run(t, m)
	if got := m.Reg(host.R1); got != 8 {
		t.Fatalf("r1 = %d, want 8 after IMB", got)
	}
}

func TestSetPCMisalignedPanics(t *testing.T) {
	m := newMachine(false)
	defer func() {
		if recover() == nil {
			t.Fatal("SetPC(odd) did not panic")
		}
	}()
	m.SetPC(0x1001)
}

func TestCounters(t *testing.T) {
	m := newMachine(false)
	m.Mem.Write64(0x2000, 1)
	load(t, m, 0x1000, func(a *host.Asm) {
		a.MovImm(host.R2, 0x2000) // 2 insts (ldah+lda) or 1
		a.Mem(host.LDQ, host.R1, 0, host.R2)
		a.Mem(host.STQ, host.R1, 8, host.R2)
		a.Brk(HaltService)
	})
	run(t, m)
	c := m.Counters()
	if c.Loads != 1 || c.Stores != 1 {
		t.Fatalf("loads=%d stores=%d, want 1/1", c.Loads, c.Stores)
	}
	if c.Brks != 1 {
		t.Fatalf("brks = %d", c.Brks)
	}
	if c.Insts == 0 || c.Cycles < c.Insts {
		t.Fatalf("insts=%d cycles=%d", c.Insts, c.Cycles)
	}
}

func BenchmarkTightLoop(b *testing.B) {
	m := newMachine(true)
	a := host.NewAsm(0x1000)
	a.MovImm(host.R1, 1<<30)
	loop := a.NewLabel()
	a.Bind(loop)
	a.OprLit(host.SUBQ, host.R1, 1, host.R1)
	a.Br(host.BNE, host.R1, loop)
	a.Brk(HaltService)
	words, err := a.Finish()
	if err != nil {
		b.Fatal(err)
	}
	m.WriteCode(0x1000, words)
	m.SetPC(0x1000)
	b.ReportAllocs()
	b.ResetTimer()
	if _, _, err := m.Run(uint64(b.N)); err != nil {
		b.Fatal(err)
	}
}

// farCode is an address 64 MiB above the low test code, so one machine
// runs code in two places far apart.
const farCode = 0x1000 + 64<<20 + 0x2000

// TestPatchInvalidatesFarDecodedCache repeats the patch-coherence check for
// code far from the rest: a patch must replace the decoded step of the
// trace over it just like one over low code, in place, and the low code's
// trace must survive.
func TestPatchInvalidatesFarDecodedCache(t *testing.T) {
	m := newMachine(false)
	load(t, m, 0x1000, func(a *host.Asm) {
		a.Brk(HaltService)
	})
	run(t, m)
	load(t, m, farCode, func(a *host.Asm) {
		a.OprLit(host.ADDQ, host.R1, 1, host.R1)
		a.Brk(2)
	})
	if r, payload := run(t, m); r != StopBrk || payload != 2 {
		t.Fatalf("stop = %v/%d", r, payload)
	}
	if !trLive(m, farCode) {
		t.Fatalf("code at %#x runs in no trace", farCode)
	}
	// Patch the already-decoded far ADDQ into ADDQ r1, #5, r1.
	far := m.traces.get(farCode).tr
	add5 := host.Inst{Op: host.ADDQ, Ra: host.R1, Lit: 5, IsLit: true, Rc: host.R1}
	m.Patch(farCode, host.MustEncode(add5))
	if ent := m.traces.get(farCode); ent.tr != far || len(far.steps) != 3 || ent.tr.steps[ent.idx].slot != lower(farCode, add5) {
		t.Fatal("the patched far step was not rewritten in place")
	}
	if ts := m.TraceStats(); ts.Relowered != 1 || ts.Invalidations != 0 {
		t.Fatalf("trace stats %+v: want 1 step relowered and no trace dropped", ts)
	}
	if err := m.CheckTraceCoherence(); err != nil {
		t.Fatal(err)
	}
	if !trLive(m, 0x1000) {
		t.Fatal("patching far code dropped the low trace")
	}
	m.SetPC(farCode)
	run(t, m)
	if got := m.Reg(host.R1); got != 6 {
		t.Fatalf("r1 = %d, want 6 (1 from old inst + 5 from patched)", got)
	}
}

// TestIMBFlushesFarDecoded: IMB must drop the traces over far code too.
func TestIMBFlushesFarDecoded(t *testing.T) {
	m := newMachine(false)
	load(t, m, 0x1000, func(a *host.Asm) {
		a.Brk(HaltService)
	})
	run(t, m)
	load(t, m, farCode+0x2000, func(a *host.Asm) {
		a.MovImm(host.R2, 11)
		a.Brk(HaltService)
	})
	run(t, m)
	if len(m.traceList) != 2 {
		t.Fatalf("%d live traces after running low and far code, want 2", len(m.traceList))
	}
	// Rewrite the whole far body behind the tier's back, then IMB.
	a := host.NewAsm(farCode + 0x2000)
	a.MovImm(host.R2, 77)
	a.Brk(HaltService)
	words, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range words {
		m.Mem.Write32(farCode+0x2000+uint64(i)*4, w)
	}
	m.IMB()
	if len(m.traceList) != 0 || m.traces.live != 0 {
		t.Fatalf("%d traces (%d steps) live after IMB, want 0", len(m.traceList), m.traces.live)
	}
	m.SetPC(farCode + 0x2000)
	run(t, m)
	if got := m.Reg(host.R2); got != 77 {
		t.Fatalf("r2 = %d, want 77 from the rewritten code", got)
	}
}

package machine

import (
	"math/rand"
	"testing"

	"mdabt/internal/host"
	"mdabt/internal/mem"
)

// TestOperateSemanticsOnMachine cross-checks every operate-format opcode as
// executed by the machine against the pure host.EvalOp semantics, for both
// register and literal operand forms, over random values.
func TestOperateSemanticsOnMachine(t *testing.T) {
	ops := []host.Op{
		host.ADDL, host.SUBL, host.ADDQ, host.SUBQ, host.MULL, host.MULQ,
		host.CMPEQ, host.CMPLT, host.CMPLE, host.CMPULT, host.CMPULE,
		host.AND, host.BIC, host.BIS, host.ORNOT, host.XOR, host.EQV,
		host.SLL, host.SRL, host.SRA,
		host.EXTBL, host.EXTWL, host.EXTLL, host.EXTQL,
		host.EXTWH, host.EXTLH, host.EXTQH,
		host.INSBL, host.INSWL, host.INSLL, host.INSQL,
		host.INSWH, host.INSLH, host.INSQH,
		host.MSKBL, host.MSKWL, host.MSKLL, host.MSKQL,
		host.MSKWH, host.MSKLH, host.MSKQH,
	}
	rnd := rand.New(rand.NewSource(33))
	p := DefaultParams()
	p.UseCaches = false
	for _, op := range ops {
		for trial := 0; trial < 40; trial++ {
			av, bv := rnd.Uint64(), rnd.Uint64()
			lit := uint8(rnd.Uint32())

			m := New(mem.New(), p)
			m.SetReg(host.R1, av)
			m.SetReg(host.R2, bv)
			a := host.NewAsm(0x1000)
			a.Opr(op, host.R1, host.R2, host.R3) // register form
			a.OprLit(op, host.R1, lit, host.R4)  // literal form
			a.Opr(op, host.R1, host.R2, host.R1) // dst aliases src
			a.Brk(HaltService)
			words, err := a.Finish()
			if err != nil {
				t.Fatal(err)
			}
			m.WriteCode(0x1000, words)
			m.SetPC(0x1000)
			if _, _, err := m.Run(100); err != nil {
				t.Fatal(err)
			}
			if got, want := m.Reg(host.R3), host.EvalOp(op, av, bv); got != want {
				t.Fatalf("%v(%#x,%#x) machine=%#x eval=%#x", op, av, bv, got, want)
			}
			if got, want := m.Reg(host.R4), host.EvalOp(op, av, uint64(lit)); got != want {
				t.Fatalf("%v(%#x,#%d) machine=%#x eval=%#x", op, av, lit, got, want)
			}
			if got, want := m.Reg(host.R1), host.EvalOp(op, av, bv); got != want {
				t.Fatalf("%v aliased dst machine=%#x eval=%#x", op, got, want)
			}
		}
	}
}

// TestBranchSemanticsOnMachine checks every conditional branch against
// host.BranchTaken for boundary register values.
func TestBranchSemanticsOnMachine(t *testing.T) {
	values := []uint64{0, 1, 2, 3, ^uint64(0), 1 << 63, 1<<63 - 1, 0x8000000000000001}
	branches := []host.Op{host.BEQ, host.BNE, host.BLT, host.BLE, host.BGT, host.BGE, host.BLBC, host.BLBS}
	p := DefaultParams()
	p.UseCaches = false
	for _, op := range branches {
		for _, v := range values {
			m := New(mem.New(), p)
			m.SetReg(host.R1, v)
			a := host.NewAsm(0x1000)
			taken := a.NewLabel()
			a.Br(op, host.R1, taken)
			a.MovImm(host.R2, 1) // fallthrough marker
			a.Brk(HaltService)
			a.Bind(taken)
			a.MovImm(host.R2, 2)
			a.Brk(HaltService)
			words, err := a.Finish()
			if err != nil {
				t.Fatal(err)
			}
			m.WriteCode(0x1000, words)
			m.SetPC(0x1000)
			if _, _, err := m.Run(100); err != nil {
				t.Fatal(err)
			}
			want := uint64(1)
			if host.BranchTaken(op, v) {
				want = 2
			}
			if got := m.Reg(host.R2); got != want {
				t.Fatalf("%v with %#x: path %d, want %d", op, v, got, want)
			}
		}
	}
}

// TestBSRAndRETLinkage checks call/return linkage registers.
func TestBSRAndRETLinkage(t *testing.T) {
	p := DefaultParams()
	p.UseCaches = false
	m := New(mem.New(), p)
	a := host.NewAsm(0x1000)
	sub := a.NewLabel()
	a.Br(host.BSR, host.R26, sub)
	a.MovImm(host.R1, 0x11)
	a.Brk(HaltService)
	a.Bind(sub)
	a.Mov(host.R26, host.R9) // capture return address
	a.Jmp(host.RET, host.Zero, host.R26)
	words, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	m.WriteCode(0x1000, words)
	m.SetPC(0x1000)
	if _, _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if m.Reg(host.R1) != 0x11 {
		t.Fatal("did not return to caller")
	}
	if got := m.Reg(host.R9); got != 0x1004 {
		t.Fatalf("return address = %#x, want 0x1004", got)
	}
}

// TestJSRWritesLink checks that JSR records the successor PC.
func TestJSRWritesLink(t *testing.T) {
	p := DefaultParams()
	p.UseCaches = false
	m := New(mem.New(), p)
	m.SetReg(host.R5, 0x2000)
	a := host.NewAsm(0x1000)
	a.Jmp(host.JSR, host.R26, host.R5)
	words, _ := a.Finish()
	m.WriteCode(0x1000, words)
	m.Mem.Write32(0x2000, host.MustEncode(host.Inst{Op: host.BRKBT}))
	m.SetPC(0x1000)
	if _, _, err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	if got := m.Reg(host.R26); got != 0x1004 {
		t.Fatalf("jsr link = %#x, want 0x1004", got)
	}
	// Low target bits are cleared (as on Alpha).
	m2 := New(mem.New(), p)
	m2.SetReg(host.R5, 0x2003)
	m2.WriteCode(0x1000, words)
	m2.Mem.Write32(0x2000, host.MustEncode(host.Inst{Op: host.BRKBT}))
	m2.SetPC(0x1000)
	if _, _, err := m2.Run(10); err != nil {
		t.Fatal(err)
	}
	if m2.PC() != 0x2004 {
		t.Fatalf("jmp target with low bits: pc = %#x, want 0x2004", m2.PC())
	}
}

// TestDualIssuePairing verifies the issue model: two dependent ALU ops cost
// one cycle when pairing is on, two when off.
func TestDualIssuePairing(t *testing.T) {
	run := func(dual bool) uint64 {
		p := DefaultParams()
		p.UseCaches = false
		p.DualIssueALU = dual
		m := New(mem.New(), p)
		a := host.NewAsm(0x1000)
		for i := 0; i < 100; i++ {
			a.OprLit(host.ADDQ, host.R1, 1, host.R1)
		}
		a.Brk(HaltService)
		words, _ := a.Finish()
		m.WriteCode(0x1000, words)
		m.SetPC(0x1000)
		if _, _, err := m.Run(1000); err != nil {
			t.Fatal(err)
		}
		return m.Counters().Cycles
	}
	paired, unpaired := run(true), run(false)
	if unpaired <= paired {
		t.Fatalf("dual-issue off (%d cycles) not slower than on (%d)", unpaired, paired)
	}
	// 100 ALU ops: ~50 cycles paired vs ~100 unpaired (plus brk overhead).
	if diff := unpaired - paired; diff < 40 || diff > 60 {
		t.Fatalf("pairing saved %d cycles, want ~50", diff)
	}
}

// TestTrapChargesAndHandlerResume verifies trap accounting and that a
// handler-chosen resume PC is honored.
func TestTrapChargesAndHandlerResume(t *testing.T) {
	p := DefaultParams()
	p.UseCaches = false
	m := New(mem.New(), p)
	var handled int
	m.SetMisalignHandler(func(mm *Machine, pc uint64, inst host.Inst, ea uint64) uint64 {
		handled++
		mm.EmulateAccess(inst, ea)
		return pc + 2*host.InstBytes // skip the marker instruction after the load
	})
	m.Mem.Write64(0x2000, 0xAABBCCDD11223344)
	a := host.NewAsm(0x1000)
	a.MovImm(host.R2, 0x2001)
	a.Mem(host.LDL, host.R1, 0, host.R2) // misaligned
	a.MovImm(host.R3, 99)                // skipped by the handler
	a.Brk(HaltService)
	words, _ := a.Finish()
	m.WriteCode(0x1000, words)
	m.SetPC(0x1000)
	if _, _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if handled != 1 {
		t.Fatalf("handler ran %d times", handled)
	}
	if m.Reg(host.R3) == 99 {
		t.Fatal("resume PC not honored (marker executed)")
	}
	// Bytes at 0x2001..0x2004 little-endian: 0x33, 0x22, 0x11, 0xDD.
	if got := uint32(m.Reg(host.R1)); got != 0xDD112233 {
		t.Fatalf("fixed-up value %#x, want 0xDD112233", got)
	}
	c := m.Counters()
	if c.TrapCycles != p.MisalignTrapCycles {
		t.Fatalf("TrapCycles = %d, want %d", c.TrapCycles, p.MisalignTrapCycles)
	}
}

// TestHandlerMisalignedResumePanics documents the contract that handlers
// must return instruction-aligned PCs.
func TestHandlerMisalignedResumePanics(t *testing.T) {
	p := DefaultParams()
	p.UseCaches = false
	m := New(mem.New(), p)
	m.SetMisalignHandler(func(mm *Machine, pc uint64, inst host.Inst, ea uint64) uint64 {
		return pc + 1 // bogus
	})
	a := host.NewAsm(0x1000)
	a.MovImm(host.R2, 0x2001)
	a.Mem(host.LDL, host.R1, 0, host.R2)
	words, _ := a.Finish()
	m.WriteCode(0x1000, words)
	m.SetPC(0x1000)
	defer func() {
		if recover() == nil {
			t.Fatal("misaligned resume PC did not panic")
		}
	}()
	_, _, _ = m.Run(100)
}

// TestWriteCodePanicsOnMisalignment documents the WriteCode contract.
func TestWriteCodePanicsOnMisalignment(t *testing.T) {
	m := New(mem.New(), DefaultParams())
	defer func() {
		if recover() == nil {
			t.Fatal("misaligned WriteCode did not panic")
		}
	}()
	m.WriteCode(0x1002, []uint32{0})
}

// TestAddCyclesAccounting checks the runtime-cost charging helpers.
func TestAddCyclesAccounting(t *testing.T) {
	m := New(mem.New(), DefaultParams())
	m.AddCycles(100)
	m.AddTrapCycles(50)
	c := m.Counters()
	if c.Cycles != 150 || c.TrapCycles != 50 {
		t.Fatalf("cycles=%d trap=%d, want 150/50", c.Cycles, c.TrapCycles)
	}
}

package machine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mdabt/internal/faultinject"
	"mdabt/internal/host"
	"mdabt/internal/mem"
)

// The trace executor's whole contract is bit-identical simulation: a
// machine with unit traces built over any subset of the code, and fill
// traces over the rest, must produce exactly the same architectural state
// and Counters as the single-stepping reference (refMachine, lower_test.go),
// instruction for instruction, including trap paths and budget exhaustion
// mid-trace. These tests enforce that contract directly at the machine
// level; the core-level golden matrix enforces it end to end.

const trDataBase = 0x100000

type trSnap struct {
	Stop    StopReason
	Payload uint32
	Err     bool
	PC      uint64
	Regs    [host.NumRegs]uint64
	C       Counters
}

func trRun(m *Machine, budget uint64) trSnap {
	stop, payload, err := m.Run(budget)
	s := trSnap{Stop: stop, Payload: payload, Err: err != nil, PC: m.PC(), C: m.Counters()}
	for r := 0; r < host.NumRegs; r++ {
		s.Regs[r] = m.Reg(host.Reg(r))
	}
	return s
}

// trRef runs the reference for budget instructions.
func trRef(r *refMachine, budget uint64) trSnap {
	stop, payload, err := r.run(budget)
	return trSnap{Stop: stop, Payload: payload, Err: err != nil, PC: r.pc, Regs: r.regs, C: r.c}
}

func trSeedData(mm *mem.Memory) {
	for i := uint64(0); i < 4096; i++ {
		mm.Write(trDataBase+i, (i*2654435761)>>3, 1)
	}
}

// trProgram assembles a program and returns its words.
func trProgram(t *testing.T, base uint64, build func(a *host.Asm)) []uint32 {
	t.Helper()
	a := host.NewAsm(base)
	build(a)
	words, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return words
}

// trCompare runs words on the reference and on machines with three trace
// layouts — fill traces only, one unit trace over the whole span, and unit
// traces over alternating chunks so control crosses unit and fill traces
// both ways — asserting bit-identical outcomes at every budget.
func trCompare(t *testing.T, base uint64, words []uint32, budgets []uint64, caches bool, chunk int) {
	t.Helper()
	trCompareArm(t, base, words, budgets, caches, chunk, nil)
}

// trCompareArm is trCompare with a hook that arms identical extra memory
// state (e.g. page protections) on every compared memory before running.
func trCompareArm(t *testing.T, base uint64, words []uint32, budgets []uint64, caches bool, chunk int, arm func(mm *mem.Memory)) {
	t.Helper()
	for _, budget := range budgets {
		p := DefaultParams()
		p.UseCaches = caches
		ref := newRef(p, mem.New())
		trSeedData(ref.mem)
		if arm != nil {
			arm(ref.mem)
		}
		for i, w := range words {
			ref.mem.Write32(base+uint64(i)*host.InstBytes, w)
		}
		ref.pc = base
		want := trRef(ref, budget)

		for _, variant := range []string{"fills", "whole", "chunks"} {
			m := newMachine(caches)
			trSeedData(m.Mem)
			if arm != nil {
				arm(m.Mem)
			}
			m.WriteCode(base, words)
			m.SetPC(base)
			switch variant {
			case "whole":
				if !m.BuildTrace(base, base+uint64(len(words))*host.InstBytes) {
					t.Fatalf("BuildTrace over whole span failed")
				}
			case "chunks":
				for start := 0; start < len(words); start += 2 * chunk {
					end := start + chunk
					if end > len(words) {
						end = len(words)
					}
					if !m.BuildTrace(base+uint64(start)*host.InstBytes, base+uint64(end)*host.InstBytes) {
						t.Fatalf("BuildTrace over chunk [%d,%d) failed", start, end)
					}
				}
			}
			got := trRun(m, budget)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("variant=%s budget=%d caches=%v:\n got %+v\nwant %+v\n(trace stats %+v)",
					variant, budget, caches, got, want, m.TraceStats())
			}
			if err := m.CheckTraceCoherence(); err != nil {
				t.Fatalf("variant=%s: coherence after run: %v", variant, err)
			}
			if ts := m.TraceStats(); ts.TracedInsts != got.C.Insts {
				t.Fatalf("variant=%s: %d of %d instructions retired in traces", variant, ts.TracedInsts, got.C.Insts)
			}
		}
	}
}

// trEveryBudget returns the budgets 1, 2, ... up to the instruction count
// of a reference run of words from base (capped at limit), plus one budget
// large enough to finish any program that halts.
func trEveryBudget(t *testing.T, base uint64, words []uint32, caches bool, arm func(mm *mem.Memory), limit uint64) []uint64 {
	t.Helper()
	p := DefaultParams()
	p.UseCaches = caches
	ref := newRef(p, mem.New())
	trSeedData(ref.mem)
	if arm != nil {
		arm(ref.mem)
	}
	for i, w := range words {
		ref.mem.Write32(base+uint64(i)*host.InstBytes, w)
	}
	ref.pc = base
	const full = 200000
	trRef(ref, full)
	budgets := []uint64{}
	for b := uint64(1); b <= min(ref.c.Insts, limit); b++ {
		budgets = append(budgets, b)
	}
	return append(budgets, full)
}

// trMegaSteps counts the mega-steps of m's live traces.
func trMegaSteps(m *Machine) (n int) {
	for _, tr := range m.traceList {
		for i := range tr.steps {
			if k := tr.steps[i].kind; k == stepMisLd || k == stepMisSt {
				n++
			}
		}
	}
	return n
}

// TestTraceParityRandomPrograms compares traced and generic runs of random
// programs at every budget up to the generic run's length. The programs
// mix random operate, memory and branch instructions with the MDA load
// and store sequences the trace tier fuses into mega-steps (random size,
// displacement and sign extension). On half the seeds one data page is
// protected, so plain accesses and mega-step constituents fault, some in
// the middle of a sequence that straddles the page boundary.
func TestTraceParityRandomPrograms(t *testing.T) {
	aluOps := []host.Op{
		host.ADDL, host.ADDQ, host.SUBL, host.SUBQ, host.CMPEQ, host.CMPLT,
		host.CMPULE, host.AND, host.BIC, host.BIS, host.ORNOT, host.XOR,
		host.EQV, host.SLL, host.SRL, host.SRA, host.EXTBL, host.EXTLH,
		host.INSWL, host.MSKQL,
	}
	memOps := []host.Op{
		host.LDBU, host.LDWU, host.LDL, host.LDQ, host.LDQU,
		host.STB, host.STW, host.STL, host.STQ, host.STQU,
	}
	condOps := []host.Op{
		host.BEQ, host.BNE, host.BLT, host.BLE, host.BGT, host.BGE,
		host.BLBC, host.BLBS,
	}
	regW := []host.Reg{host.R1, host.R2, host.R3, host.R4, host.R5, host.R6, host.R7, host.R8}
	regR := append([]host.Reg{host.R31}, regW...)
	sizes := []int{2, 4, 8}

	const base = 0x1000
	const pageB = trDataBase + mem.PageSize // the data page after trDataBase's
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 40 + rng.Intn(80)
		// Data base: the seeded data, or just below a page boundary when a
		// page is protected, so that sequences straddle it.
		dataBase := int64(trDataBase)
		var arm func(mm *mem.Memory)
		if seed%4 >= 2 {
			dataBase = pageB - 16
			// Every pairing of page and protection (none, read-only,
			// write-only) appears.
			page, prot := uint64(pageB), []mem.Prot{0, mem.ProtRead, mem.ProtWrite}[seed%3]
			if seed/4%2 == 0 {
				page = trDataBase
			}
			arm = func(mm *mem.Memory) { mm.Protect(page, mem.PageSize, prot) }
		}
		idioms := 0
		words := trProgram(t, base, func(a *host.Asm) {
			a.MovImm(host.R9, dataBase)
			for _, r := range regW {
				a.MovImm(r, int64(rng.Uint64()>>16))
			}
			for i := 0; i < n; i++ {
				a.Label(fmt.Sprintf("L%d", i))
				switch rng.Intn(14) {
				case 0, 1, 2, 3:
					op := aluOps[rng.Intn(len(aluOps))]
					if rng.Intn(2) == 0 {
						a.OprLit(op, regR[rng.Intn(len(regR))], uint8(rng.Intn(256)), regW[rng.Intn(len(regW))])
					} else {
						a.Opr(op, regR[rng.Intn(len(regR))], regR[rng.Intn(len(regR))], regW[rng.Intn(len(regW))])
					}
				case 4:
					a.Opr(host.MULQ, regR[rng.Intn(len(regR))], regR[rng.Intn(len(regR))], regW[rng.Intn(len(regW))])
				case 5:
					// LDA/LDAH address arithmetic off the data base so
					// register values stay in the data page's neighbourhood.
					if rng.Intn(2) == 0 {
						a.Mem(host.LDA, regW[rng.Intn(len(regW))], int32(rng.Intn(128)-64), host.R9)
					} else {
						a.Mem(host.LDAH, regW[rng.Intn(len(regW))], 0, host.R31)
					}
				case 6, 7, 8, 9:
					// Memory traffic off the fixed data base: displacements
					// land aligned and misaligned, so the default-fixup
					// misalignment trap path runs under traces too.
					op := memOps[rng.Intn(len(memOps))]
					a.Mem(op, regW[rng.Intn(len(regW))], int32(rng.Intn(512)), host.R9)
				case 10:
					// Mostly-forward conditional branches; occasional backward
					// edges are budget-bounded by the comparison harness.
					var target int
					if rng.Intn(4) == 0 {
						target = rng.Intn(i + 1)
					} else {
						target = i + 1 + rng.Intn(n-i)
					}
					label := fmt.Sprintf("L%d", target)
					if target >= n {
						label = "Lend"
					}
					a.Br(condOps[rng.Intn(len(condOps))], regR[rng.Intn(len(regR))], label)
				case 11:
					target := i + 1 + rng.Intn(n-i)
					label := fmt.Sprintf("L%d", target)
					if target >= n {
						label = "Lend"
					}
					a.Br(host.BR, host.R31, label)
				case 12, 13:
					// On protected seeds the sequences straddle the page
					// boundary at dataBase+16.
					sz := sizes[rng.Intn(len(sizes))]
					disp := int32(rng.Intn(32))
					if arm != nil {
						disp = int32(15 - rng.Intn(sz-1))
					}
					if rng.Intn(2) == 0 {
						trMegaLd(a, sz, disp, sz == 4 && rng.Intn(2) == 0)
					} else {
						trMegaSt(a, sz, disp)
					}
					idioms++
				}
			}
			a.Label("Lend")
			a.Brk(HaltService)
		})
		caches := seed%2 == 0
		chunk := 4 + rng.Intn(9)

		// Every spliced sequence must fuse in a whole-span trace; without
		// this the runs below could silently test no mega-step.
		m := newMachine(caches)
		m.WriteCode(base, words)
		if !m.BuildTrace(base, base+uint64(len(words))*host.InstBytes) {
			t.Fatal("BuildTrace failed")
		}
		if got := trMegaSteps(m); got != idioms {
			t.Fatalf("seed %d: %d mega-steps, want one per spliced sequence (%d)", seed, got, idioms)
		}
		trCompareArm(t, base, words, trEveryBudget(t, base, words, caches, arm, 300), caches, chunk, arm)
	}
}

func TestTraceParityKernels(t *testing.T) {
	const base = 0x1000
	kernels := map[string]func(a *host.Asm){
		// A counted loop with aligned+misaligned memory traffic — backward
		// in-trace branch, the shape the dispatch-loop bench measures.
		"loop": func(a *host.Asm) {
			a.MovImm(host.R9, trDataBase)
			a.MovImm(host.R1, 50)
			a.Label("top")
			a.Mem(host.LDQ, host.R2, 0, host.R9)
			a.OprLit(host.ADDQ, host.R2, 3, host.R2)
			a.Mem(host.LDL, host.R3, 1, host.R9) // misaligned: traps, default fixup
			a.Opr(host.XOR, host.R2, host.R3, host.R4)
			a.Mem(host.STQ, host.R4, 8, host.R9)
			a.OprLit(host.SUBQ, host.R1, 1, host.R1)
			a.Br(host.BNE, host.R1, "top")
			a.Brk(HaltService)
		},
		// Call/return through BSR + RET: dynamic jump chains back into the
		// trace through the LUT probe.
		"call": func(a *host.Asm) {
			a.MovImm(host.R9, trDataBase)
			a.MovImm(host.R1, 7)
			a.Br(host.BSR, host.R5, "fn")
			a.Opr(host.ADDQ, host.R1, host.R1, host.R2)
			a.Brk(HaltService)
			a.Label("fn")
			a.OprLit(host.ADDQ, host.R1, 5, host.R1)
			a.Jmp(host.RET, host.R31, host.R5)
		},
		// Dual-issue pairing across LDA/LDAH/operate runs and slot-closing
		// multiplies — the cycle accounting the EV6 model is touchiest about.
		"dual": func(a *host.Asm) {
			a.MovImm(host.R9, trDataBase)
			a.Mem(host.LDA, host.R1, 8, host.R9)
			a.Mem(host.LDAH, host.R2, 1, host.R31)
			a.OprLit(host.ADDQ, host.R1, 1, host.R3)
			a.OprLit(host.ADDQ, host.R3, 1, host.R4)
			a.Opr(host.MULQ, host.R4, host.R4, host.R5)
			a.Mem(host.LDQ, host.R6, 0, host.R9)
			a.OprLit(host.SUBQ, host.R6, 1, host.R6)
			a.Mem(host.LDQU, host.R7, 3, host.R9)
			a.Brk(HaltService)
		},
	}
	for name, build := range kernels {
		words := trProgram(t, base, build)
		for _, caches := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/caches=%v", name, caches), func(t *testing.T) {
				trCompare(t, base, words, []uint64{1, 3, 17, 1 << 20}, caches, 3)
			})
		}
	}
}

// TestTraceOperateParity pins the executor's operate and branch cases to
// the reference op by op, over register and literal forms.
func TestTraceOperateParity(t *testing.T) {
	aluOps := []host.Op{
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
	rng := rand.New(rand.NewSource(1))
	const base = 0x1000
	for _, op := range aluOps {
		for trial := 0; trial < 6; trial++ {
			av, bv := int64(rng.Uint64()), int64(rng.Uint64())
			if trial%2 == 0 {
				bv &= 63 // exercise shift-count and byte-offset ranges densely
			}
			lit := uint8(rng.Intn(256))
			words := trProgram(t, base, func(a *host.Asm) {
				a.MovImm(host.R1, av)
				a.MovImm(host.R2, bv)
				a.Opr(op, host.R1, host.R2, host.R3)
				a.OprLit(op, host.R1, lit, host.R4)
				a.Opr(op, host.R31, host.R2, host.R5)
				a.Brk(HaltService)
			})
			trCompare(t, base, words, []uint64{1 << 20}, false, 2)
		}
	}
	condOps := []host.Op{
		host.BEQ, host.BNE, host.BLT, host.BLE, host.BGT, host.BGE,
		host.BLBC, host.BLBS,
	}
	for _, op := range condOps {
		for _, av := range []int64{0, 1, 2, -1, -2, int64(^uint64(0) >> 1), int64(1) << 62} {
			words := trProgram(t, base, func(a *host.Asm) {
				a.MovImm(host.R1, av)
				a.Br(op, host.R1, "skip")
				a.OprLit(host.ADDQ, host.R31, 1, host.R2)
				a.Label("skip")
				a.Brk(HaltService)
			})
			trCompare(t, base, words, []uint64{1 << 20}, false, 2)
		}
	}
}

func TestTraceChainFollowAndSever(t *testing.T) {
	const base = 0x1000
	m := newMachine(false)
	trSeedData(m.Mem)
	words := trProgram(t, base, func(a *host.Asm) {
		a.MovImm(host.R1, 10)
		a.Label("a")
		a.OprLit(host.SUBQ, host.R1, 1, host.R1)
		a.Br(host.BR, host.R31, "b") // tail of trace A → chain into trace B
		a.Label("b")
		a.Br(host.BNE, host.R1, "a") // tail of trace B → chain back into A
		a.Brk(HaltService)
	})
	m.WriteCode(base, words)
	m.SetPC(base)
	// Split the program at label "b" into two traces.
	var bPC uint64
	for i, w := range words {
		inst, err := host.Decode(w)
		if err != nil {
			t.Fatal(err)
		}
		if inst.Op == host.BNE {
			bPC = base + uint64(i)*host.InstBytes
		}
	}
	if bPC == 0 {
		t.Fatal("BNE not found")
	}
	end := base + uint64(len(words))*host.InstBytes
	if !m.BuildTrace(base, bPC) || !m.BuildTrace(bPC, end) {
		t.Fatal("BuildTrace failed")
	}
	if got := trRun(m, 1<<20); got.Stop != StopHalt {
		t.Fatalf("stop = %v, want halt", got.Stop)
	}
	ts := m.TraceStats()
	if ts.Formed != 2 || ts.ChainFollows == 0 || ts.TracedInsts == 0 {
		t.Fatalf("trace stats %+v: want 2 formed, nonzero chain follows and traced insts", ts)
	}
	if err := m.CheckTraceCoherence(); err != nil {
		t.Fatal(err)
	}

	// Patching a word inside trace B drops it, severs A's memoized link
	// into it, and leaves trace A executable and coherent.
	m.Patch(bPC, words[(bPC-base)/host.InstBytes])
	if m.HasTrace(bPC) {
		t.Fatal("patched trace still live")
	}
	if !m.HasTrace(base) {
		t.Fatal("untouched trace dropped")
	}
	if got := m.TraceStats().Invalidations; got != 1 {
		t.Fatalf("invalidations = %d, want 1", got)
	}
	if err := m.CheckTraceCoherence(); err != nil {
		t.Fatalf("coherence after sever: %v", err)
	}
	m.SetReg(host.R1, 10)
	m.SetPC(base)
	if got := trRun(m, 1<<20); got.Stop != StopHalt {
		t.Fatalf("stop after sever = %v, want halt", got.Stop)
	}
}

// TestTraceBuildRejects: BuildTrace refuses bad bounds, undecodable words
// and overlap with a live unit trace, and leaves no trace behind when it
// does; a fill trace it overlaps is dropped instead.
func TestTraceBuildRejects(t *testing.T) {
	const base = 0x1000
	m := newMachine(false)
	words := trProgram(t, base, func(a *host.Asm) {
		a.OprLit(host.ADDQ, host.R1, 1, host.R1)
		a.OprLit(host.ADDQ, host.R1, 1, host.R1)
		a.Brk(HaltService)
	})
	m.WriteCode(base, words)
	end := base + uint64(len(words))*host.InstBytes

	if m.BuildTrace(base+2, end) || m.BuildTrace(base, end+2) || m.BuildTrace(end, base) {
		t.Fatal("BuildTrace accepted misaligned or inverted bounds")
	}
	m.Mem.Write32(end, 0x04<<26) // unassigned opcode
	if m.BuildTrace(base, end+host.InstBytes) {
		t.Fatal("BuildTrace accepted an undecodable word")
	}
	if len(m.traceList) != 0 || m.TraceStats().Formed != 0 {
		t.Fatalf("rejected builds left %d traces (%d formed)", len(m.traceList), m.TraceStats().Formed)
	}
	// Run the code once: it executes in a fill trace from the second add,
	// which a unit trace over the whole span replaces.
	m.SetPC(base + host.InstBytes)
	if got := trRun(m, 1<<20); got.Stop != StopHalt || m.HasTrace(base+host.InstBytes) || len(m.traceList) != 1 {
		t.Fatalf("stop %v, unit trace %v, %d traces: want a halt in one fill trace", got.Stop, m.HasTrace(base+host.InstBytes), len(m.traceList))
	}
	if !m.BuildTrace(base, end) {
		t.Fatal("BuildTrace failed on valid span")
	}
	if len(m.traceList) != 1 || !m.HasTrace(base) || !m.HasTrace(base+host.InstBytes) {
		t.Fatalf("%d traces after the unit build: want only the unit trace", len(m.traceList))
	}
	if m.BuildTrace(base, base+host.InstBytes) {
		t.Fatal("BuildTrace accepted an overlap with a live trace")
	}
	if got := m.TraceStats().Formed; got != 2 {
		t.Fatalf("formed = %d, want 2 (the fill and the unit trace)", got)
	}
}

func TestTraceIMBAndResetDropAll(t *testing.T) {
	const base = 0x1000
	m := newMachine(false)
	words := trProgram(t, base, func(a *host.Asm) {
		a.OprLit(host.ADDQ, host.R1, 1, host.R1)
		a.Brk(HaltService)
	})
	m.WriteCode(base, words)
	end := base + uint64(len(words))*host.InstBytes
	if !m.BuildTrace(base, end) {
		t.Fatal("BuildTrace failed")
	}
	m.IMB()
	if m.HasTrace(base) {
		t.Fatal("trace survived IMB")
	}
	if got := m.TraceStats().Invalidations; got != 1 {
		t.Fatalf("invalidations = %d, want 1", got)
	}
	if !m.BuildTrace(base, end) {
		t.Fatal("rebuild after IMB failed")
	}
	m.Reset()
	if m.HasTrace(base) || len(m.traceList) != 0 {
		t.Fatal("Reset left a trace live")
	}
	if got := m.TraceStats(); got != (TraceStats{}) {
		t.Fatalf("Reset left trace stats %+v", got)
	}
}

// TestTraceMidEntry enters a unit trace at a PC in its middle (as a stub
// return would) and checks parity with a machine that runs fill traces.
func TestTraceMidEntry(t *testing.T) {
	const base = 0x1000
	words := trProgram(t, base, func(a *host.Asm) {
		a.OprLit(host.ADDQ, host.R1, 1, host.R1)
		a.OprLit(host.ADDQ, host.R1, 2, host.R1)
		a.OprLit(host.ADDQ, host.R1, 3, host.R1)
		a.Brk(HaltService)
	})
	entry := uint64(base + 2*host.InstBytes)

	ref := newMachine(true)
	ref.WriteCode(base, words)
	ref.SetPC(entry)
	want := trRun(ref, 1<<20)

	m := newMachine(true)
	m.WriteCode(base, words)
	if !m.BuildTrace(base, base+uint64(len(words))*host.InstBytes) {
		t.Fatal("BuildTrace failed")
	}
	m.SetPC(entry)
	got := trRun(m, 1<<20)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mid-entry:\n got %+v\nwant %+v", got, want)
	}
	if ts := m.TraceStats(); ts.TracedInsts != 2 || ts.Formed != 1 {
		t.Fatalf("trace stats %+v: want 2 insts traced in the one unit trace", ts)
	}
}

// TestTraceFaultPlanParity runs seeded random programs with MDA
// sequences the executor fuses into mega-steps, under seeded fault plans
// (spurious misalignment traps, spurious access faults, duplicate traps),
// on fill traces and on one unit trace over the whole program, in Run
// calls of every budget from 1 to the program length. After each call
// registers, PC, counters and issue-slot state must match the reference;
// at the halt the data area and the whole injection stream — every fired
// point with its check count — must match too.
func TestTraceFaultPlanParity(t *testing.T) {
	const base = 0x1000
	type fire struct {
		pt faultinject.Point
		n  uint64
	}
	points := []faultinject.Point{faultinject.SpuriousTrap, faultinject.DuplicateTrap, faultinject.SpuriousAccessFault}
	fired := map[faultinject.Point]uint64{}
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(300 + seed))
		words := lowerRandomProgram(t, rng, base, true)
		for _, unit := range []bool{false, true} {
			for budget := uint64(1); budget <= uint64(len(words)); budget++ {
				name := fmt.Sprintf("seed %d unit %v budget %d", seed, unit, budget)
				m, ref := lowerPair(base, words)
				if unit {
					if !m.BuildTrace(base, base+uint64(len(words))*host.InstBytes) || trMegaSteps(m) == 0 {
						t.Fatalf("%s: no unit trace with mega-steps", name)
					}
				}
				var got, want []fire
				arm := func(log *[]fire) *faultinject.Plan {
					p := faultinject.New(seed).Rate(faultinject.SpuriousTrap, 0.05).
						Rate(faultinject.DuplicateTrap, 0.3).Rate(faultinject.SpuriousAccessFault, 0.05)
					p.Observe(func(pt faultinject.Point) { *log = append(*log, fire{pt, p.Checks(pt)}) })
					return p
				}
				plan, refPlan := arm(&got), arm(&want)
				m.SetFaultPlan(plan)
				ref.faults = refPlan
				for calls := 0; ; calls++ {
					stop, payload, err := m.Run(budget)
					g := machineSnap(m, stop, payload, err)
					rstop, rpayload, rerr := ref.run(budget)
					if w := refSnap(ref, rstop, rpayload, rerr); g != w {
						t.Fatalf("%s call %d:\n got %+v\nwant %+v", name, calls, g, w)
					}
					if stop != StopLimit || err != nil {
						break
					}
				}
				if err := lowerDataSame(m.Mem, ref.mem, lowerDataBase-1024, lowerDataBase+16384); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for _, pt := range points {
					if plan.Checks(pt) != refPlan.Checks(pt) {
						t.Fatalf("%s: %s checked %d times, reference %d", name, pt, plan.Checks(pt), refPlan.Checks(pt))
					}
					fired[pt] += plan.Fired(pt)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: injection stream\n got %v\nwant %v", name, got, want)
				}
				if ts := m.TraceStats(); ts.TracedInsts == 0 || ts.TracedInsts != m.Counters().Insts {
					t.Fatalf("%s: %d of %d instructions retired in traces", name, ts.TracedInsts, m.Counters().Insts)
				}
			}
		}
	}
	for _, pt := range points {
		if fired[pt] == 0 {
			t.Errorf("%s never fired", pt)
		}
	}
}

// TestTraceCoherenceDetectsCorruption corrupts the trace tables, and
// writes code under live traces behind the machine's back (raw memory
// writes skip WriteCode's invalidation), and expects CheckTraceCoherence
// to report each: a dropped LUT entry, a stale plain step, a stale
// mega-step constituent, and a word rewritten so that its sequence fuses
// differently or not at all.
func TestTraceCoherenceDetectsCorruption(t *testing.T) {
	const base = 0x1000
	words := trProgram(t, base, func(a *host.Asm) {
		a.MovImm(host.R9, trDataBase)
		trMegaLd(a, 4, 3, true)
		a.OprLit(host.ADDQ, host.R7, 1, host.R8)
		trMegaSt(a, 8, 5)
		a.Brk(HaltService)
	})
	build := func() *Machine {
		m := newMachine(false)
		m.WriteCode(base, words)
		if !m.BuildTrace(base, base+uint64(len(words))*host.InstBytes) {
			t.Fatal("BuildTrace failed")
		}
		if err := m.CheckTraceCoherence(); err != nil {
			t.Fatal(err)
		}
		if trMegaSteps(m) != 2 {
			t.Fatal("the sequences did not fuse")
		}
		return m
	}
	m := build()
	delete(m.traces, base+host.InstBytes)
	if err := m.CheckTraceCoherence(); err == nil {
		t.Fatal("coherence check missed a dropped LUT entry")
	}

	at := func(op host.Op, nth int) uint64 {
		for i, w := range words {
			if inst, _ := host.Decode(w); inst.Op == op {
				if nth == 0 {
					return base + uint64(i)*host.InstBytes
				}
				nth--
			}
		}
		t.Fatalf("no %v #%d", op, nth)
		return 0
	}
	enc := host.MustEncode
	for _, c := range []struct {
		name  string
		pc    uint64
		word  uint32
		stale bool
	}{
		{"plain step", at(host.ADDQ, 0), enc(host.Inst{Op: host.ADDQ, Ra: host.R7, IsLit: true, Lit: 2, Rc: host.R8}), true},
		{"mega-step constituent", at(host.EXTLH, 0), enc(host.Inst{Op: host.EXTLL, Ra: host.R3, Rb: host.R4, Rc: host.R6}), true},
		{"fused sign extension dropped", at(host.ADDL, 0), enc(host.Inst{Op: host.ADDQ, Ra: host.R31, Rb: host.R7, Rc: host.R7}), true},
		{"store displacement changed", at(host.STQU, 1), enc(host.Inst{Op: host.STQU, Ra: host.R2, Rb: host.R9, Disp: 6}), true},
		{"undecodable word", at(host.EXTLL, 0), 0x04 << 26, true},
		{"same word", at(host.ADDL, 0), enc(host.Inst{Op: host.ADDL, Ra: host.R31, Rb: host.R7, Rc: host.R7}), false},
	} {
		m := build()
		m.Mem.Write32(c.pc, c.word)
		if err := m.CheckTraceCoherence(); (err != nil) != c.stale {
			t.Errorf("%s: raw write at %#x: coherence error %v, want stale=%v", c.name, c.pc, err, c.stale)
		}
	}
}

// benchKernel is a tight counted loop (no misaligned traffic) approximating
// translated hot-loop code: the shape the dispatch-loop perfbench measures.
// With unit set it runs in one unit trace, otherwise in the fill traces Run
// builds.
func benchKernel(b *testing.B, unit bool) {
	const base = 0x1000
	a := host.NewAsm(base)
	a.MovImm(host.R9, trDataBase)
	a.Label("top")
	a.Mem(host.LDQ, host.R2, 0, host.R9)
	a.OprLit(host.ADDQ, host.R2, 3, host.R2)
	a.Mem(host.LDQ, host.R3, 8, host.R9)
	a.Opr(host.XOR, host.R2, host.R3, host.R4)
	a.Mem(host.STQ, host.R4, 16, host.R9)
	a.OprLit(host.ADDQ, host.R5, 1, host.R5)
	a.OprLit(host.SUBQ, host.R1, 1, host.R1)
	a.Br(host.BNE, host.R1, "top")
	a.Brk(HaltService)
	words, err := a.Finish()
	if err != nil {
		b.Fatal(err)
	}
	m := New(mem.New(), DefaultParams())
	m.WriteCode(base, words)
	if unit && !m.BuildTrace(base, base+uint64(len(words))*host.InstBytes) {
		b.Fatal("BuildTrace failed")
	}
	const iters = 4096
	insts := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SetPC(base)
		m.SetReg(host.R1, iters)
		before := m.Counters().Insts
		if stop, _, err := m.Run(1 << 40); err != nil || stop != StopHalt {
			b.Fatalf("stop=%v err=%v", stop, err)
		}
		insts += m.Counters().Insts - before
	}
	b.ReportMetric(float64(insts)/float64(b.Elapsed().Nanoseconds())*1000, "MIPS")
}

func BenchmarkFillTraceLoop(b *testing.B) { benchKernel(b, false) }
func BenchmarkTracedLoop(b *testing.B)    { benchKernel(b, true) }

// trMegaLd emits the translator's misalignment-safe load idiom in the
// exact shape fuseMegaLd matches: base in R9, result in R7, temporaries
// R2-R6 (lo, hi, ea, extl, exth).
func trMegaLd(a *host.Asm, sz int, disp int32, sext bool) {
	var xl, xh host.Op
	switch sz {
	case 2:
		xl, xh = host.EXTWL, host.EXTWH
	case 4:
		xl, xh = host.EXTLL, host.EXTLH
	case 8:
		xl, xh = host.EXTQL, host.EXTQH
	}
	a.Mem(host.LDQU, host.R2, disp, host.R9)
	a.Mem(host.LDQU, host.R3, disp+int32(sz)-1, host.R9)
	a.Mem(host.LDA, host.R4, disp, host.R9)
	a.Opr(xl, host.R2, host.R4, host.R5)
	a.Opr(xh, host.R3, host.R4, host.R6)
	a.Opr(host.BIS, host.R6, host.R5, host.R7)
	if sext {
		a.Opr(host.ADDL, host.R31, host.R7, host.R7)
	}
}

// trMegaSt emits the misalignment-safe store idiom fuseMegaSt matches:
// base in R9, data in R7, temporaries R2-R6 (lo, hi, ea, insh, insl),
// with the in-place msk/bis merge the real translator uses.
func trMegaSt(a *host.Asm, sz int, disp int32) {
	var ih, il, mh, ml host.Op
	switch sz {
	case 2:
		ih, il, mh, ml = host.INSWH, host.INSWL, host.MSKWH, host.MSKWL
	case 4:
		ih, il, mh, ml = host.INSLH, host.INSLL, host.MSKLH, host.MSKLL
	case 8:
		ih, il, mh, ml = host.INSQH, host.INSQL, host.MSKQH, host.MSKQL
	}
	a.Mem(host.LDA, host.R4, disp, host.R9)
	a.Mem(host.LDQU, host.R3, disp+int32(sz)-1, host.R9)
	a.Mem(host.LDQU, host.R2, disp, host.R9)
	a.Opr(ih, host.R7, host.R4, host.R5)
	a.Opr(il, host.R7, host.R4, host.R6)
	a.Opr(mh, host.R3, host.R4, host.R3)
	a.Opr(ml, host.R2, host.R4, host.R2)
	a.Opr(host.BIS, host.R3, host.R5, host.R3)
	a.Opr(host.BIS, host.R2, host.R6, host.R2)
	a.Mem(host.STQU, host.R3, disp+int32(sz)-1, host.R9)
	a.Mem(host.STQU, host.R2, disp, host.R9)
}

// trMegaNops pads the program so the idiom head lands at a chosen offset
// within its 64-byte I-line, moving the line crossing onto different
// constituents (the mega-step charges the crossing mid-sequence).
func trMegaNops(a *host.Asm, n int) {
	for i := 0; i < n; i++ {
		a.Mem(host.LDA, host.R8, 0, host.R8)
	}
}

// trAssertMega builds one whole-span trace over words and asserts the
// idiom actually compacted into a single mega step of wantN constituents
// — without this, the parity runs below could silently test nothing.
func trAssertMega(t *testing.T, base uint64, words []uint32, kind slotKind, wantN int) {
	t.Helper()
	m := newMachine(false)
	trSeedData(m.Mem)
	m.WriteCode(base, words)
	m.SetPC(base)
	if !m.BuildTrace(base, base+uint64(len(words))*host.InstBytes) {
		t.Fatal("BuildTrace failed")
	}
	megas := 0
	for _, tr := range m.traceList {
		for i := range tr.steps {
			st := &tr.steps[i]
			if st.kind == stepMisLd || st.kind == stepMisSt {
				megas++
				if st.kind != kind {
					t.Errorf("fused into kind %d, want %d", st.kind, kind)
				}
				if int(st.n) != wantN {
					t.Errorf("mega step retires %d insts, want %d", st.n, wantN)
				}
			}
		}
	}
	if megas != 1 {
		t.Errorf("idiom compacted into %d mega steps, want exactly 1", megas)
	}
}

// TestTraceMegaStepParity pins the fused MDA mega-steps to the reference: the exact load/store expansion idioms the translator emits must
// fuse into one dispatch and stay bit-identical across word sizes,
// quadword straddles, sign extension, I-line-crossing positions, budget
// exhaustion at and inside the idiom, and cache modeling on/off.
func TestTraceMegaStepParity(t *testing.T) {
	const base = 0x1000
	budgets := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 20, 40, 1 << 20}

	loads := []struct {
		sz   int
		disp int32
		sext bool
		pad  int
	}{
		{2, 7, false, 0},  // word straddling a quadword boundary
		{4, 5, true, 13},  // longword straddle + sext, line cross at k=1
		{4, 5, false, 9},  // line cross mid-idiom
		{8, 3, false, 11}, // quadword straddle
		{8, 0, false, 0},  // aligned: idiom still runs, hi==lo quadword+8
		{2, 2, false, 13}, // within-quadword misalignment
	}
	for _, c := range loads {
		words := trProgram(t, base, func(a *host.Asm) {
			a.MovImm(host.R9, trDataBase)
			a.MovImm(host.R1, 3)
			trMegaNops(a, c.pad)
			a.Label("top")
			trMegaLd(a, c.sz, c.disp, c.sext)
			a.OprLit(host.ADDQ, host.R7, 1, host.R8)
			a.OprLit(host.SUBQ, host.R1, 1, host.R1)
			a.Br(host.BNE, host.R1, "top")
			a.Brk(HaltService)
		})
		wantN := 6
		if c.sext {
			wantN = 7
		}
		t.Run(fmt.Sprintf("ld/sz=%d/disp=%d/sext=%v/pad=%d", c.sz, c.disp, c.sext, c.pad), func(t *testing.T) {
			trAssertMega(t, base, words, stepMisLd, wantN)
			for _, caches := range []bool{false, true} {
				trCompare(t, base, words, budgets, caches, 4)
			}
		})
	}

	stores := []struct {
		sz   int
		disp int32
		pad  int
	}{
		{2, 7, 0},
		{4, 5, 1},  // line cross at k=10 (stq_u lo)
		{4, 4, 5},  // line cross mid-merge
		{8, 3, 8},  // line cross at the ins half
		{8, 0, 10}, // aligned, line cross at k=1 (ldq_u hi)
	}
	for _, c := range stores {
		c := c
		words := trProgram(t, base, func(a *host.Asm) {
			a.MovImm(host.R9, trDataBase)
			a.MovImm(host.R7, 0x1234_5678)
			a.MovImm(host.R1, 3)
			trMegaNops(a, c.pad)
			a.Label("top")
			trMegaSt(a, c.sz, c.disp)
			a.OprLit(host.ADDQ, host.R7, 7, host.R7)
			a.OprLit(host.SUBQ, host.R1, 1, host.R1)
			a.Br(host.BNE, host.R1, "top")
			// Fold the stored bytes back into registers so trSnap's
			// register comparison covers the memory effect too.
			a.Mem(host.LDQ, host.R5, c.disp&^7, host.R9)
			a.Mem(host.LDQ, host.R6, (c.disp+int32(c.sz)-1)&^7, host.R9)
			a.Brk(HaltService)
		})
		t.Run(fmt.Sprintf("st/sz=%d/disp=%d/pad=%d", c.sz, c.disp, c.pad), func(t *testing.T) {
			trAssertMega(t, base, words, stepMisSt, 11)
			for _, caches := range []bool{false, true} {
				trCompare(t, base, words, budgets, caches, 4)
			}
		})
	}
}

// TestTraceMegaStepFaults makes individual constituents of a fused mega
// step take access faults mid-idiom, via page protections straddled by
// the access. The machine's default access-trap path (count, charge,
// complete, continue) must leave a traced run bit-identical to the
// reference: the mega exits at the faulting constituent's PC with the
// architecturally visible prefix retired, resumes through the idiom tail
// in a fill trace, and re-enters the unit trace on the next iteration.
func TestTraceMegaStepFaults(t *testing.T) {
	const base = 0x1000
	const pageA = uint64(trDataBase)           // [0x100000, 0x102000)
	const pageB = pageA + uint64(mem.PageSize) // next data page
	const straddle = pageB - 4                 // quadword access spans A|B
	budgets := []uint64{1, 3, 6, 9, 12, 14, 25, 1 << 20}

	loadProg := trProgram(t, base, func(a *host.Asm) {
		a.MovImm(host.R9, int64(straddle))
		a.MovImm(host.R1, 4)
		a.Label("top")
		trMegaLd(a, 8, 0, false)
		a.OprLit(host.SUBQ, host.R1, 1, host.R1)
		a.Br(host.BNE, host.R1, "top")
		a.Brk(HaltService)
	})
	trAssertMega(t, base, loadProg, stepMisLd, 6)

	storeProg := trProgram(t, base, func(a *host.Asm) {
		a.MovImm(host.R9, int64(straddle))
		a.MovImm(host.R7, 0x1234_5678)
		a.MovImm(host.R1, 4)
		a.Label("top")
		trMegaSt(a, 8, 0)
		a.OprLit(host.ADDQ, host.R7, 7, host.R7)
		a.OprLit(host.SUBQ, host.R1, 1, host.R1)
		a.Br(host.BNE, host.R1, "top")
		a.Mem(host.LDQ, host.R5, -8, host.R9) // aligned readback: low quad
		a.Mem(host.LDQ, host.R6, 4, host.R9)  // aligned readback: high quad
		a.Brk(HaltService)
	})
	trAssertMega(t, base, storeProg, stepMisSt, 11)

	// memoProg loops over a plain access that points the executor's page
	// memo at pageB, then body within pageB: on a write-only or read-only
	// page the memo then holds a page whose loads or stores must trap.
	memoProg := func(prime host.Op, body func(a *host.Asm)) []uint32 {
		return trProgram(t, base, func(a *host.Asm) {
			a.MovImm(host.R9, int64(pageB))
			a.MovImm(host.R7, 0x1234_5678)
			a.MovImm(host.R1, 4)
			a.Label("top")
			a.Mem(prime, host.R8, 40, host.R9)
			body(a)
			a.OprLit(host.SUBQ, host.R1, 1, host.R1)
			a.Br(host.BNE, host.R1, "top")
			a.Brk(HaltService)
		})
	}
	writeOnlyB := func(mm *mem.Memory) { mm.Protect(pageB, mem.PageSize, mem.ProtWrite) }
	readOnlyB := func(mm *mem.Memory) { mm.Protect(pageB, mem.PageSize, mem.ProtRead) }

	cases := []struct {
		name  string
		words []uint32
		arm   func(mm *mem.Memory)
	}{
		// Load: fault on the second, first, then both ldq_u constituents.
		{"ld-hi-faults", loadProg, func(mm *mem.Memory) { mm.Protect(pageB, mem.PageSize, 0) }},
		{"ld-lo-faults", loadProg, func(mm *mem.Memory) { mm.Protect(pageA, mem.PageSize, 0) }},
		{"ld-both-fault", loadProg, func(mm *mem.Memory) { mm.Protect(pageA, 2*mem.PageSize, 0) }},
		// Store: unreadable high page faults ldq_u hi AND stq_u hi;
		// read-only pages fault exactly the trailing stq_u constituents.
		{"st-hi-unreadable", storeProg, func(mm *mem.Memory) { mm.Protect(pageB, mem.PageSize, 0) }},
		{"st-hi-write-faults", storeProg, func(mm *mem.Memory) { mm.Protect(pageB, mem.PageSize, mem.ProtRead) }},
		{"st-both-writes-fault", storeProg, func(mm *mem.Memory) { mm.Protect(pageA, 2*mem.PageSize, mem.ProtRead) }},
		// A load or store that hits the page memo must still trap.
		{"ld-memo-write-only", memoProg(host.STQ, func(a *host.Asm) { a.Mem(host.LDQ, host.R6, 32, host.R9) }), writeOnlyB},
		{"mega-ld-memo-write-only", memoProg(host.STQ, func(a *host.Asm) { trMegaLd(a, 8, 16, false) }), writeOnlyB},
		{"mega-st-memo-write-only", memoProg(host.STQ, func(a *host.Asm) { trMegaSt(a, 8, 16) }), writeOnlyB},
		{"mega-st-memo-read-only", memoProg(host.LDQ, func(a *host.Asm) { trMegaSt(a, 8, 16) }), readOnlyB},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, caches := range []bool{false, true} {
				trCompareArm(t, base, tc.words, budgets, caches, 4, tc.arm)
			}
			// Sanity: the protections really did fire faults.
			m := newMachine(false)
			trSeedData(m.Mem)
			tc.arm(m.Mem)
			m.WriteCode(base, tc.words)
			m.SetPC(base)
			if !m.BuildTrace(base, base+uint64(len(tc.words))*host.InstBytes) {
				t.Fatal("BuildTrace failed")
			}
			trRun(m, 1<<20)
			if m.Counters().AccessFaults == 0 {
				t.Error("protections armed but no access faults were taken")
			}
		})
	}
}

// TestTraceStallOnStaleMega: when the budget ends inside a mega-step whose
// head word was overwritten behind the tier's back with an undecodable
// one, the executor cannot unfuse it; it drops the stale trace and Run
// reports the fetch error there, as for any undecodable word, instead of
// re-entering the stale step forever.
func TestTraceStallOnStaleMega(t *testing.T) {
	const base = 0x1000
	words := trProgram(t, base, func(a *host.Asm) {
		a.MovImm(host.R9, trDataBase)
		trMegaLd(a, 4, 3, false)
		a.Brk(HaltService)
	})
	m := newMachine(false)
	trSeedData(m.Mem)
	m.WriteCode(base, words)
	if !m.BuildTrace(base, base+uint64(len(words))*host.InstBytes) || trMegaSteps(m) != 1 {
		t.Fatal("no mega-step to stall on")
	}
	var head uint64
	for pc := range m.traces {
		if m.traces[pc].tr.steps[m.traces[pc].idx].kind == stepMisLd {
			head = pc
		}
	}
	m.Mem.Write32(head, 0x04<<26) // unassigned opcode
	m.SetPC(base)
	pre := (head - base) / host.InstBytes
	if _, _, err := m.Run(pre + 3); err == nil || m.PC() != head || m.Counters().Insts != pre {
		t.Fatalf("err %v at pc %#x after %d insts: want the fetch error at %#x after %d", err, m.PC(), m.Counters().Insts, head, pre)
	}
	if m.HasTrace(base) {
		t.Fatal("the stale trace is still live")
	}
}

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
// machine running any tiling of the code into traces — the ones Run forms,
// or spans built directly (trBuild) with Run forming the rest — must
// produce exactly the same architectural state and Counters as the
// single-stepping reference (refMachine, lower_test.go), instruction for
// instruction, including trap paths and budget exhaustion mid-trace.
// These tests enforce that contract directly at the machine level; the
// core-level golden matrix enforces it end to end.

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

// trBuild builds one trace over exactly [start, end), as formation would
// if its rule ended the trace there. It builds nothing and reports false
// when a word does not decode, a live trace has a step in the span, or
// the span is empty or longer than a trace may be.
func trBuild(m *Machine, start, end uint64) bool {
	var low []slot
	for pc := start; pc < end; pc += host.InstBytes {
		inst, err := host.Decode(m.Mem.Read32(pc))
		if trLive(m, pc) || err != nil {
			return false
		}
		low = append(low, lower(pc, inst))
	}
	if len(low) == 0 || len(low) > maxTraceSteps {
		return false
	}
	m.build(start, low)
	return true
}

// trLive reports whether pc is a step head of a live trace.
func trLive(m *Machine, pc uint64) bool {
	return m.traces.get(pc).tr != nil
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
// layouts — the traces Run forms, one trace built over the whole span, and
// traces built over alternating chunks with Run forming the rest, so
// control crosses built and formed traces both ways — asserting
// bit-identical outcomes at every budget.
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

		for _, variant := range []string{"formed", "whole", "chunks"} {
			m := newMachine(caches)
			trSeedData(m.Mem)
			if arm != nil {
				arm(m.Mem)
			}
			m.WriteCode(base, words)
			m.SetPC(base)
			switch variant {
			case "whole":
				if !trBuild(m, base, base+uint64(len(words))*host.InstBytes) {
					t.Fatalf("trBuild over whole span failed")
				}
			case "chunks":
				for start := 0; start < len(words); start += 2 * chunk {
					end := start + chunk
					if end > len(words) {
						end = len(words)
					}
					if !trBuild(m, base+uint64(start)*host.InstBytes, base+uint64(end)*host.InstBytes) {
						t.Fatalf("trBuild over chunk [%d,%d) failed", start, end)
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
			// labels[i] is instruction i's; labels[n] ends the program.
			labels := make([]host.Label, n+1)
			for i := range labels {
				labels[i] = a.NewLabel()
			}
			for i := 0; i < n; i++ {
				a.Bind(labels[i])
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
					a.Br(condOps[rng.Intn(len(condOps))], regR[rng.Intn(len(regR))], labels[target])
				case 11:
					target := i + 1 + rng.Intn(n-i)
					a.Br(host.BR, host.R31, labels[target])
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
			a.Bind(labels[n])
			a.Brk(HaltService)
		})
		caches := seed%2 == 0
		chunk := 4 + rng.Intn(9)

		// Every spliced sequence must fuse in a whole-span trace; without
		// this the runs below could silently test no mega-step.
		m := newMachine(caches)
		m.WriteCode(base, words)
		if !trBuild(m, base, base+uint64(len(words))*host.InstBytes) {
			t.Fatal("trBuild failed")
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
			top := a.NewLabel()
			a.Bind(top)
			a.Mem(host.LDQ, host.R2, 0, host.R9)
			a.OprLit(host.ADDQ, host.R2, 3, host.R2)
			a.Mem(host.LDL, host.R3, 1, host.R9) // misaligned: traps, default fixup
			a.Opr(host.XOR, host.R2, host.R3, host.R4)
			a.Mem(host.STQ, host.R4, 8, host.R9)
			a.OprLit(host.SUBQ, host.R1, 1, host.R1)
			a.Br(host.BNE, host.R1, top)
			a.Brk(HaltService)
		},
		// Call/return through BSR + RET: dynamic jump chains back into the
		// trace through the LUT probe.
		"call": func(a *host.Asm) {
			a.MovImm(host.R9, trDataBase)
			a.MovImm(host.R1, 7)
			fn := a.NewLabel()
			a.Br(host.BSR, host.R5, fn)
			a.Opr(host.ADDQ, host.R1, host.R1, host.R2)
			a.Brk(HaltService)
			a.Bind(fn)
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
				skip := a.NewLabel()
				a.Br(op, host.R1, skip)
				a.OprLit(host.ADDQ, host.R31, 1, host.R2)
				a.Bind(skip)
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
		labA := a.NewLabel()
		a.Bind(labA)
		a.OprLit(host.SUBQ, host.R1, 1, host.R1)
		labB := a.NewLabel()
		a.Br(host.BR, host.R31, labB) // tail of trace A → chain into trace B
		a.Bind(labB)
		a.Br(host.BNE, host.R1, labA) // tail of trace B → chain back into A
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
	if !trBuild(m, base, bPC) || !trBuild(m, bPC, end) {
		t.Fatal("trBuild failed")
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

	// Patching trace B's head word rewrites its step in place: B stays
	// live, A's memoized link into it still lands on that step, and the
	// step's own memoized link back into A is cleared.
	entA, entB := m.traces.get(base), m.traces.get(bPC)
	var aLink *traceStep
	for i := range entA.tr.steps {
		if l := entA.tr.steps[i].link; l != nil {
			aLink = l
		}
	}
	stB := &entB.tr.steps[entB.idx]
	if aLink != stB || stB.link == nil {
		t.Fatalf("A links to %p, B's BNE links to %p: want A→B and B→A memoized", aLink, stB.link)
	}
	m.Patch(bPC, words[(bPC-base)/host.InstBytes])
	if m.traces.get(bPC) != entB || m.traces.get(base) != entA || len(entB.tr.steps) != 3 {
		t.Fatal("patching B's head word dropped or split a trace")
	}
	if stB.link != nil || stB.linkTr != nil || stB.linkVer != 0 {
		t.Fatal("the patched step kept its chain-link memo")
	}
	if ts := m.TraceStats(); ts.Relowered != 1 || ts.Invalidations != 0 {
		t.Fatalf("trace stats %+v: want 1 step relowered and no trace dropped", ts)
	}
	if err := m.CheckTraceCoherence(); err != nil {
		t.Fatalf("coherence after in-place patch: %v", err)
	}
	m.SetReg(host.R1, 10)
	m.SetPC(base)
	if got := trRun(m, 1<<20); got.Stop != StopHalt {
		t.Fatalf("stop after in-place patch = %v, want halt", got.Stop)
	}

	// Rewriting the word with WriteCode drops trace B, severs A's
	// memoized link into it, and leaves trace A executable and coherent.
	m.WriteCode(bPC, words[(bPC-base)/host.InstBytes:][:1])
	if trLive(m, bPC) {
		t.Fatal("patched trace still live")
	}
	if !trLive(m, base) {
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

// TestTraceBuildRejects: formation refuses an undecodable word at its
// entry (Run's fetch error, which leaves no trace behind), and ends a
// trace before an undecodable word and before a live trace's step.
func TestTraceBuildRejects(t *testing.T) {
	const base = 0x1000
	m := newMachine(false)
	words := trProgram(t, base, func(a *host.Asm) {
		a.OprLit(host.ADDQ, host.R1, 1, host.R1)
		a.OprLit(host.ADDQ, host.R1, 1, host.R1)
		a.Brk(HaltService)
	})
	m.WriteCode(base, words)
	brk := uint64(base + 2*host.InstBytes)
	m.Mem.Write32(brk, 0x04<<26) // unassigned opcode
	m.SetPC(base)
	if _, _, err := m.Run(1 << 20); err == nil || m.PC() != brk || m.Counters().Insts != 2 {
		t.Fatalf("err %v at pc %#x after %d insts: want the fetch error at %#x after 2", err, m.PC(), m.Counters().Insts, brk)
	}
	if start, end, ok := traceSpan(m, base); !ok || start != base || end != brk || len(m.traceList) != 1 {
		t.Fatalf("%d traces, the one at %#x spanning [%#x,%#x): want only [%#x,%#x)", len(m.traceList), base, start, end, base, brk)
	}

	// With the halt back, a trace built from the second add is live: a
	// trace formed at the first ends before it and chains into it.
	m.Reset()
	m.WriteCode(base, words)
	if !trBuild(m, base+host.InstBytes, base+uint64(len(words))*host.InstBytes) {
		t.Fatal("trBuild failed")
	}
	m.SetPC(base)
	if got := trRun(m, 1<<20); got.Stop != StopHalt || got.Regs[host.R1] != 2 {
		t.Fatalf("stop %v, r1 %d: want a halt after both adds", got.Stop, got.Regs[host.R1])
	}
	if start, end, ok := traceSpan(m, base); !ok || start != base || end != base+host.InstBytes {
		t.Fatalf("formed trace spans [%#x,%#x) (live %v), want [%#x,%#x)", start, end, ok, base, base+host.InstBytes)
	}
	if ts := m.TraceStats(); ts.Formed != 2 || ts.ChainFollows != 1 {
		t.Fatalf("trace stats %+v: want 2 formed and 1 chain follow", ts)
	}
}

// TestFormationCoversForwardRegion hand-assembles the unit shapes the
// translator emits and requires formation at the unit's entry to cover
// each with one trace, from its entry through its last stub and no
// further, with every branch into the trace threaded to its target step
// and every branch out of it a side exit. An EH-patched BR (a branch to an
// MDA stub outside the trace, whose sequence returns to the next word)
// does not end the trace: formation runs through it whether or not a
// conditional branch before it targets past it. A BR whose target code
// returns elsewhere, or does not return, ends the trace when no
// conditional branch before it reaches past it, and the rest of the unit
// forms its own.
func TestFormationCoversForwardRegion(t *testing.T) {
	const base, stub = 0x1000, 0x8000
	var patched uint64
	ehPatch := func(a *host.Asm) {
		patched = a.PC()
		d, _ := host.BrDispFor(a.PC(), stub)
		a.Emit(host.Inst{Op: host.BR, Ra: host.R31, Disp: d})
	}
	for _, c := range []struct {
		name  string
		shape func(a *host.Asm)
		ret   int // the stub returns this many words past the patched BR's next word; -1: no stub
		cut   int // words in the trace when the shape does not form one; 0: all
	}{
		{"cond-exit", func(a *host.Asm) {
			a.OprLit(host.CMPLT, host.R1, 9, host.R10)
			taken := a.NewLabel()
			a.Br(host.BNE, host.R10, taken)
			a.Brk(1) // fallthrough exit stub
			a.Bind(taken)
			a.Brk(2) // taken exit stub
		}, -1, 0},
		{"two-version", func(a *host.Asm) {
			a.Mem(host.LDA, host.R10, 3, host.R9)
			a.OprLit(host.AND, host.R10, 3, host.R10)
			v2 := a.NewLabel()
			a.Br(host.BNE, host.R10, v2)
			a.Mem(host.LDL, host.R7, 3, host.R9) // optimistic copy
			a.OprLit(host.ADDQ, host.R7, 1, host.R8)
			a.Brk(1)
			a.Bind(v2)
			trMegaLd(a, 4, 3, true) // pessimistic copy
			a.OprLit(host.ADDQ, host.R7, 1, host.R8)
			a.Brk(1)
		}, -1, 0},
		{"repmovs", func(a *host.Asm) {
			a.OprLit(host.ADDQ, host.R8, 1, host.R8)
			top := a.NewLabel()
			a.Bind(top)
			done := a.NewLabel()
			a.Br(host.BEQ, host.R1, done)
			a.Mem(host.LDL, host.R2, 0, host.R3)
			a.Mem(host.STL, host.R2, 0, host.R4)
			a.Mem(host.LDA, host.R3, 4, host.R3)
			a.Mem(host.LDA, host.R4, 4, host.R4)
			a.OprLit(host.SUBL, host.R1, 1, host.R1)
			a.Br(host.BR, host.R31, top)
			a.Bind(done)
			a.Brk(1)
		}, -1, 0},
		{"eh-patched", func(a *host.Asm) {
			side := a.NewLabel()
			a.Br(host.BNE, host.R5, side) // a superblock's folded side exit
			a.OprLit(host.ADDQ, host.R1, 1, host.R1)
			ehPatch(a)
			a.OprLit(host.CMPLT, host.R1, 9, host.R10)
			taken := a.NewLabel()
			a.Br(host.BNE, host.R10, taken)
			a.Brk(1)
			a.Bind(taken)
			a.Brk(2)
			a.Bind(side)
			a.Brk(3)
		}, -1, 0},
		{"eh-patched-plain", func(a *host.Asm) {
			a.OprLit(host.ADDQ, host.R1, 1, host.R1)
			ehPatch(a)
			a.OprLit(host.CMPLT, host.R1, 9, host.R10)
			taken := a.NewLabel()
			a.Br(host.BNE, host.R10, taken)
			a.Brk(1)
			a.Bind(taken)
			a.Brk(2)
		}, 0, 0},
		{"br-returns-elsewhere", func(a *host.Asm) {
			a.OprLit(host.ADDQ, host.R1, 1, host.R1)
			ehPatch(a)
			a.OprLit(host.CMPLT, host.R1, 9, host.R10)
			taken := a.NewLabel()
			a.Br(host.BNE, host.R10, taken)
			a.Brk(1)
			a.Bind(taken)
			a.Brk(2)
		}, 1, 2},
		{"br-no-return", func(a *host.Asm) {
			a.OprLit(host.ADDQ, host.R1, 1, host.R1)
			ehPatch(a)
			a.OprLit(host.CMPLT, host.R1, 9, host.R10)
			taken := a.NewLabel()
			a.Br(host.BNE, host.R10, taken)
			a.Brk(1)
			a.Bind(taken)
			a.Brk(2)
		}, -1, 2},
	} {
		var n int
		words := trProgram(t, base, func(a *host.Asm) {
			c.shape(a)
			n = a.Len()
			a.OprLit(host.ADDQ, host.R1, 1, host.R1) // the next unit: not in the trace
			a.Brk(HaltService)
		})
		if c.cut > 0 {
			n = c.cut
		}
		m := newMachine(false)
		m.WriteCode(base, words)
		if c.ret >= 0 { // the MDA stub: the sequence, then a BR back
			m.WriteCode(stub, trProgram(t, stub, func(a *host.Asm) {
				trMegaLd(a, 4, 3, true)
				a.BrTo(host.BR, host.R31, patched+uint64(1+c.ret)*host.InstBytes)
			}))
		}
		if _, err := m.formTrace(base); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		tr := m.traces.get(base).tr
		if end := uint64(base + n*host.InstBytes); len(m.traceList) != 1 || tr.start != base || tr.end != end {
			t.Errorf("%s: %d traces, the first spanning [%#x,%#x): want one over [%#x,%#x)", c.name, len(m.traceList), tr.start, tr.end, uint64(base), end)
		}
		for i := range tr.steps[:len(tr.steps)-1] {
			st := &tr.steps[i]
			if !st.kind.branches() {
				continue
			}
			if in := st.imm >= tr.start && st.imm < tr.end; in != (st.taken != nil) || in && st.taken.pc != st.imm {
				t.Errorf("%s: branch at %#x to %#x: taken step %v", c.name, st.pc, st.imm, st.taken != nil)
			}
		}
		if err := m.CheckTraceCoherence(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
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
	if !trBuild(m, base, end) {
		t.Fatal("trBuild failed")
	}
	m.IMB()
	if trLive(m, base) {
		t.Fatal("trace survived IMB")
	}
	if got := m.TraceStats().Invalidations; got != 1 {
		t.Fatalf("invalidations = %d, want 1", got)
	}
	if !trBuild(m, base, end) {
		t.Fatal("rebuild after IMB failed")
	}
	m.Reset()
	if trLive(m, base) || len(m.traceList) != 0 {
		t.Fatal("Reset left a trace live")
	}
	if got := m.TraceStats(); got != (TraceStats{}) {
		t.Fatalf("Reset left trace stats %+v", got)
	}
}

// TestTraceMidEntry enters a built trace at a PC in its middle (as a stub
// return would) and checks parity with a machine that forms its own.
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
	if !trBuild(m, base, base+uint64(len(words))*host.InstBytes) {
		t.Fatal("trBuild failed")
	}
	m.SetPC(entry)
	got := trRun(m, 1<<20)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mid-entry:\n got %+v\nwant %+v", got, want)
	}
	if ts := m.TraceStats(); ts.TracedInsts != 2 || ts.Formed != 1 {
		t.Fatalf("trace stats %+v: want 2 insts traced in the one built trace", ts)
	}
}

// TestTraceFaultPlanParity runs seeded random programs with MDA
// sequences the executor fuses into mega-steps, under seeded fault plans
// (spurious misalignment traps, spurious access faults, duplicate traps),
// on the traces Run forms and on one trace built over the whole program, in Run
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
		for _, whole := range []bool{false, true} {
			for budget := uint64(1); budget <= uint64(len(words)); budget++ {
				name := fmt.Sprintf("seed %d whole %v budget %d", seed, whole, budget)
				m, ref := lowerPair(base, words)
				if whole {
					if !trBuild(m, base, base+uint64(len(words))*host.InstBytes) || trMegaSteps(m) == 0 {
						t.Fatalf("%s: no whole-program trace with mega-steps", name)
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
// to report each: a dropped LUT entry, an entry left for a dropped trace,
// a miscounted table, a stale plain step, a stale mega-step constituent,
// and a word rewritten so that its sequence fuses differently or not at
// all.
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
		if !trBuild(m, base, base+uint64(len(words))*host.InstBytes) {
			t.Fatal("trBuild failed")
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
	m.traces.del(base + host.InstBytes)
	if err := m.CheckTraceCoherence(); err == nil {
		t.Fatal("coherence check missed a dropped LUT entry")
	}
	m = build()
	ent := m.traces.get(base)
	m.dropTrace(ent.tr)
	m.traces.set(base, ent) // what a drop that missed a step would leave
	if err := m.CheckTraceCoherence(); err == nil {
		t.Fatal("coherence check missed a LUT entry of a dropped trace")
	}
	m = build()
	m.traces.live++
	if err := m.CheckTraceCoherence(); err == nil {
		t.Fatal("coherence check missed a LUT live count off by one")
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

// BenchmarkTracedLoop runs a tight counted loop (no misaligned traffic)
// approximating translated hot-loop code, the shape the dispatch-loop
// perfbench measures, in the one trace Run forms over it.
func BenchmarkTracedLoop(b *testing.B) {
	const base = 0x1000
	a := host.NewAsm(base)
	a.MovImm(host.R9, trDataBase)
	top := a.NewLabel()
	a.Bind(top)
	a.Mem(host.LDQ, host.R2, 0, host.R9)
	a.OprLit(host.ADDQ, host.R2, 3, host.R2)
	a.Mem(host.LDQ, host.R3, 8, host.R9)
	a.Opr(host.XOR, host.R2, host.R3, host.R4)
	a.Mem(host.STQ, host.R4, 16, host.R9)
	a.OprLit(host.ADDQ, host.R5, 1, host.R5)
	a.OprLit(host.SUBQ, host.R1, 1, host.R1)
	a.Br(host.BNE, host.R1, top)
	a.Brk(HaltService)
	words, err := a.Finish()
	if err != nil {
		b.Fatal(err)
	}
	m := New(mem.New(), DefaultParams())
	m.WriteCode(base, words)
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
	if !trBuild(m, base, base+uint64(len(words))*host.InstBytes) {
		t.Fatal("trBuild failed")
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
			top := a.NewLabel()
			a.Bind(top)
			trMegaLd(a, c.sz, c.disp, c.sext)
			a.OprLit(host.ADDQ, host.R7, 1, host.R8)
			a.OprLit(host.SUBQ, host.R1, 1, host.R1)
			a.Br(host.BNE, host.R1, top)
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
			top := a.NewLabel()
			a.Bind(top)
			trMegaSt(a, c.sz, c.disp)
			a.OprLit(host.ADDQ, host.R7, 7, host.R7)
			a.OprLit(host.SUBQ, host.R1, 1, host.R1)
			a.Br(host.BNE, host.R1, top)
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
// in a trace formed there, and re-enters the whole-span trace on the next
// iteration.
func TestTraceMegaStepFaults(t *testing.T) {
	const base = 0x1000
	const pageA = uint64(trDataBase)           // [0x100000, 0x102000)
	const pageB = pageA + uint64(mem.PageSize) // next data page
	const straddle = pageB - 4                 // quadword access spans A|B
	budgets := []uint64{1, 3, 6, 9, 12, 14, 25, 1 << 20}

	loadProg := trProgram(t, base, func(a *host.Asm) {
		a.MovImm(host.R9, int64(straddle))
		a.MovImm(host.R1, 4)
		top := a.NewLabel()
		a.Bind(top)
		trMegaLd(a, 8, 0, false)
		a.OprLit(host.SUBQ, host.R1, 1, host.R1)
		a.Br(host.BNE, host.R1, top)
		a.Brk(HaltService)
	})
	trAssertMega(t, base, loadProg, stepMisLd, 6)

	storeProg := trProgram(t, base, func(a *host.Asm) {
		a.MovImm(host.R9, int64(straddle))
		a.MovImm(host.R7, 0x1234_5678)
		a.MovImm(host.R1, 4)
		top := a.NewLabel()
		a.Bind(top)
		trMegaSt(a, 8, 0)
		a.OprLit(host.ADDQ, host.R7, 7, host.R7)
		a.OprLit(host.SUBQ, host.R1, 1, host.R1)
		a.Br(host.BNE, host.R1, top)
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
			top := a.NewLabel()
			a.Bind(top)
			a.Mem(prime, host.R8, 40, host.R9)
			body(a)
			a.OprLit(host.SUBQ, host.R1, 1, host.R1)
			a.Br(host.BNE, host.R1, top)
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
			if !trBuild(m, base, base+uint64(len(tc.words))*host.InstBytes) {
				t.Fatal("trBuild failed")
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
	if !trBuild(m, base, base+uint64(len(words))*host.InstBytes) || trMegaSteps(m) != 1 {
		t.Fatal("no mega-step to stall on")
	}
	var head uint64
	m.traces.each(func(pc uint64, ent traceEntry) error {
		if ent.tr.steps[ent.idx].kind == stepMisLd {
			head = pc
		}
		return nil
	})
	m.Mem.Write32(head, 0x04<<26) // unassigned opcode
	m.SetPC(base)
	pre := (head - base) / host.InstBytes
	if _, _, err := m.Run(pre + 3); err == nil || m.PC() != head || m.Counters().Insts != pre {
		t.Fatalf("err %v at pc %#x after %d insts: want the fetch error at %#x after %d", err, m.PC(), m.Counters().Insts, head, pre)
	}
	if trLive(m, base) {
		t.Fatal("the stale trace is still live")
	}
}

// TestSlotKindPredicates pins the kind predicates formation and the
// stretch rule use, over every slot and mega-step kind: a mega-step is
// straight-line code, not a transfer.
func TestSlotKindPredicates(t *testing.T) {
	for k := slotEmpty; k <= stepMisSt; k++ {
		isBranch := k >= slotBr && k <= slotBlbs
		want := [3]bool{
			k == slotPAL || isBranch || k == slotJmp, // transfers
			isBranch,                                 // branches
			isBranch && k >= slotBeq,                 // conditional
		}
		if got := [3]bool{k.transfers(), k.branches(), k.conditional()}; got != want {
			t.Errorf("kind %d: transfers, branches, conditional = %v, want %v", k, got, want)
		}
	}
}

// stretchProgram assembles TestTraceStretchParity's loop. Its stretches
// cross I-lines, hold load and store mega-steps that straddle a line
// boundary, reach the longest a stretch can be (a line of steps, the last
// an 11-word sequence), and end in every kind of transfer: BRKBT, a
// foldable BR, BSR,
// each conditional branch, JMP and RET. Each conditional branch skips
// the step after it, so its taken arm enters a stretch at its second
// step; the JMP goes to the second step of a stretch, and the loop's back
// edge to the third step of the first.
func stretchProgram(t *testing.T, base uint64) []uint32 {
	t.Helper()
	asm := func(mid uint64) (words []uint32, midPC uint64) {
		words = trProgram(t, base, func(a *host.Asm) {
			a.MovImm(host.R9, trDataBase)
			a.MovImm(host.R10, 3) // iterations
			a.MovImm(host.R11, int64(mid))
			a.Mem(host.LDQ, host.R1, 0, host.R9)
			a.OprLit(host.ADDQ, host.R1, 3, host.R2)
			again := a.NewLabel()
			a.Bind(again)
			a.Mem(host.STQ, host.R2, 8, host.R9)
			a.Opr(host.MULQ, host.R2, host.R2, host.R3)
			a.Mem(host.LDA, host.R4, 4, host.R9)
			a.Mem(host.LDL, host.R6, 1, host.R9) // misaligned: traps
			for i := uint8(0); a.Len()%ilineInsts != ilineInsts-3; i++ {
				a.OprLit([]host.Op{host.XOR, host.ADDL, host.BIS, host.CMPLT, host.SUBQ}[i%5], host.R5, i, host.R5)
			}
			trMegaLd(a, 4, 3, true) // crosses a line after its third word
			a.OprLit(host.ADDQ, host.R7, 1, host.R8)
			a.OprLit(host.SUBQ, host.R10, 2, host.R14) // 1, 0, -1 over the iterations
			for i, op := range []host.Op{host.BEQ, host.BNE, host.BLT, host.BLE, host.BGT, host.BGE, host.BLBC, host.BLBS} {
				r := host.R14
				if op == host.BLBC || op == host.BLBS {
					r = host.R10
				}
				skip := a.NewLabel()
				a.Br(op, r, skip)
				a.OprLit(host.ADDQ, host.R8, uint8(i+1), host.R8)
				a.Bind(skip)
				a.Mem(host.LDBU, host.R12, int32(i), host.R9)
			}
			fn := a.NewLabel()
			a.Br(host.BSR, host.R13, fn)
			a.Mem(host.LDBU, host.R12, 9, host.R9) // the BR is entered with the slot open
			skip := a.NewLabel()
			a.Br(host.BR, host.R31, skip)
			a.OprLit(host.ADDQ, host.R8, 100, host.R8) // never runs
			a.Bind(skip)
			a.OprLit(host.ADDQ, host.R8, 7, host.R8)
			a.Opr(host.MULL, host.R8, host.R12, host.R12)
			a.Jmp(host.JMP, host.R31, host.R11)
			a.OprLit(host.ADDQ, host.R8, 101, host.R8) // never runs
			midPC = a.PC()
			a.OprLit(host.ADDQ, host.R8, 5, host.R8)
			for a.Len()%ilineInsts != ilineInsts-9 {
				a.Mem(host.LDWU, host.R12, 2, host.R9)
			}
			trMegaSt(a, 8, 3) // crosses a line before its stq_u hi
			a.Mem(host.STL, host.R8, 16, host.R9)
			// The longest stretch there is: a line of fifteen plain steps
			// and a store sequence from its last word.
			for i := 0; i < ilineInsts || a.Len()%ilineInsts != ilineInsts-1; i++ {
				a.Mem(host.LDWU, host.R12, 4, host.R9)
			}
			trMegaSt(a, 4, 5)
			a.Brk(1)
			a.Mem(host.STQU, host.R8, 21, host.R9)
			a.Mem(host.STW, host.R3, 30, host.R9)
			a.OprLit(host.SUBQ, host.R10, 1, host.R10)
			a.Br(host.BNE, host.R10, again)
			a.Brk(HaltService)
			a.Bind(fn)
			a.OprLit(host.ADDQ, host.R8, 3, host.R8)
			a.Jmp(host.RET, host.R31, host.R13)
		})
		return words, midPC
	}
	_, mid := asm(base)
	words, mid2 := asm(mid)
	if mid2 != mid {
		t.Fatalf("JMP target moved from %#x to %#x", mid, mid2)
	}
	return words
}

// TestTraceStretchParity pins stretch accounting (one budget check,
// I-line fetch and static charge per straight-line stretch) to the
// single-stepping reference. stretchProgram runs on the traces Run forms,
// on one trace over the whole program, and on traces built over
// alternating five-word chunks, so stretches are entered mid-way by taken
// branches, chain links, the JMP and Run calls that resume where the
// last one stopped, and are cut short by synthetic exits. Every budget
// from 1 to the program's length runs, and, with Run calls of the whole
// budget and of five, a trap at every access: the Nth spurious access
// fault, which lands on every plain access and every mega-step
// constituent, and the Nth spurious misalignment trap. Each run starts
// under one cost model and switches to the other after its first Run call,
// with the traces formed under the first still live: DefaultParams, and a
// model without dual issue and with other load, multiply and taken-branch
// cycles. After each call registers, PC, counters and issue-slot state
// must match the reference; at the halt, the data area too.
func TestTraceStretchParity(t *testing.T) {
	const base = 0x1000
	words := stretchProgram(t, base)
	alt := DefaultParams()
	alt.DualIssueALU = false
	alt.LoadExtraCycles, alt.MulExtraCycles, alt.TakenBranchCycles = 5, 3, 4
	end := base + uint64(len(words))*host.InstBytes
	for _, models := range [][2]Params{{DefaultParams(), alt}, {alt, DefaultParams()}} {
		for _, layout := range []string{"formed", "whole", "chunks"} {
			run := func(budget uint64, pt faultinject.Point, nth uint64) bool {
				name := fmt.Sprintf("dual %v layout %s budget %d %s #%d", models[0].DualIssueALU, layout, budget, pt, nth)
				m, ref := lowerPair(base, words)
				m.Params, ref.p = models[0], models[0]
				switch layout {
				case "whole":
					if !trBuild(m, base, end) || trMegaSteps(m) != 3 {
						t.Fatalf("%s: no whole-program trace with its three mega-steps", name)
					}
				case "chunks":
					for pc := uint64(base); pc < end; pc += 10 * host.InstBytes {
						if !trBuild(m, pc, min(pc+5*host.InstBytes, end)) {
							t.Fatalf("%s: trBuild at %#x failed", name, pc)
						}
					}
				}
				var plan *faultinject.Plan
				if nth > 0 {
					plan = faultinject.New(1).At(pt, nth)
					m.SetFaultPlan(plan)
					ref.faults = faultinject.New(1).At(pt, nth)
				}
				for calls := 0; ; calls++ {
					if calls == 1 {
						m.Params, ref.p = models[1], models[1]
					}
					stop, payload, err := m.Run(budget)
					got := machineSnap(m, stop, payload, err)
					rstop, rpayload, rerr := ref.run(budget)
					if want := refSnap(ref, rstop, rpayload, rerr); got != want {
						t.Fatalf("%s call %d:\n got %+v\nwant %+v", name, calls, got, want)
					}
					if stop == StopHalt || err != nil || calls > 10000 {
						break
					}
				}
				if m.PC() < base || m.Counters().Brks != 4 {
					t.Fatalf("%s: stopped at %#x after %d BRKBTs, want the halt after 4", name, m.PC(), m.Counters().Brks)
				}
				if err := lowerDataSame(m.Mem, ref.mem, trDataBase, trDataBase+64); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if ts := m.TraceStats(); ts.TracedInsts != m.Counters().Insts {
					t.Fatalf("%s: %d of %d instructions retired in traces", name, ts.TracedInsts, m.Counters().Insts)
				}
				if err := m.CheckTraceCoherence(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return plan.Fired(pt) > 0
			}
			for budget := uint64(1); budget <= uint64(len(words)); budget++ {
				run(budget, "", 0)
			}
			// Each point fires at every access that draws it, at least as
			// many as the program makes in its loop.
			for pt, least := range map[faultinject.Point]uint64{faultinject.SpuriousAccessFault: 40, faultinject.SpuriousTrap: 8} {
				for _, budget := range []uint64{1 << 20, 5} {
					nth := uint64(1)
					for run(budget, pt, nth) {
						nth++
					}
					if nth <= least {
						t.Fatalf("%s fired at only %d accesses", pt, nth-1)
					}
				}
			}
		}
	}
}

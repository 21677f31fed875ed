package machine

import (
	"fmt"
	"math/rand"
	"testing"

	"mdabt/internal/faultinject"
	"mdabt/internal/host"
	"mdabt/internal/mem"
)

// Pair dispatch (pairOf) runs two adjacent plain steps in one executor
// case. These tests pin it to the single-stepping reference on programs
// dense in every pair of pairList: at every budget, so that Run calls
// stop between a pair's two instructions and retire the rest of the
// stretch from unfuse's copy; with the memory op of a pair, in either
// position, misaligned or on a read-only or unmapped page; under fault
// plans; and across patches that rewrite either instruction of a pair in
// place, which must pair or unpair the step before it.

// kindOps returns the opcodes that lower to a plain step of kind k (a
// BR lowers to slotBr only with Ra = R31, which pairProgram never pairs).
func kindOps(k slotKind) []host.Op {
	var ops []host.Op
	for _, op := range allOps() {
		if lower(0, host.Inst{Op: op}).kind == k {
			ops = append(ops, op)
		}
	}
	return ops
}

// Base registers of pairProgram's memory ops: the seeded data (R9, as
// the mega-step helpers use), a read-only page (stores fault) and an
// unmapped page (every access faults). R10 counts the loop.
const (
	pairROBase       = host.R11
	pairUnmappedBase = host.R12
)

// pairArm protects pairProgram's fault pages on mm.
func pairArm(mm *mem.Memory) {
	mm.Protect(trapROPage, mem.PageSize, mem.ProtRead)
	mm.Unmap(trapUnmappedPage, mem.PageSize)
}

// pairProgram builds a loop whose body is chosen by pick (rand.Intn, or
// fuzz bytes): pairs of adjacent instructions of every pairList entry,
// with the second often reading what the first wrote, half of the pairs
// of kind bias when bias is a pair kind; the MDA load and store
// sequences the executor fuses into mega-steps; a walk of the data base;
// and single operate and memory ops. A memory op's base is mostly the
// data, sometimes the read-only or unmapped page, and its displacement is
// misaligned one time in four. The loop runs two to four times, then the
// program halts.
func pairProgram(t *testing.T, pick func(int) int, base uint64, bias slotKind) []uint32 {
	vals := []host.Reg{host.R1, host.R2, host.R3, host.R4, host.R5, host.R6, host.R7, host.R8}
	dsts := append(vals, host.R31)
	reg := func(rs []host.Reg) host.Reg { return rs[pick(len(rs))] }
	n := 8 + pick(48)
	return trProgram(t, base, func(a *host.Asm) {
		a.MovImm(host.R9, lowerDataBase)
		a.MovImm(pairROBase, trapROPage)
		a.MovImm(pairUnmappedBase, trapUnmappedPage)
		for _, r := range vals {
			a.MovImm(r, int64(pick(1<<16))<<32|int64(pick(1<<16))<<16|int64(pick(1<<16)))
		}
		a.MovImm(host.R10, int64(2+pick(3)))
		top := a.NewLabel()
		a.Bind(top)
		// emit emits one instruction of op, reading src when src is not R31,
		// and returns the register it writes (R31 for none).
		emit := func(op host.Op, src host.Reg) host.Reg {
			if src == host.R31 {
				src = reg(vals)
			}
			switch host.FormatOf(op) {
			case host.FormatMem:
				size := int32(op.MemSize())
				b := host.R9
				switch pick(8) {
				case 0:
					b = pairROBase
				case 1:
					b = pairUnmappedBase
				}
				d := int32(pick(32)) * size
				if size > 1 && pick(4) == 0 {
					d += 1 + int32(pick(int(size)-1))
				}
				if op.IsStore() {
					a.Mem(op, src, d, b)
					return host.R31
				}
				dst := reg(dsts)
				a.Mem(op, dst, d, b)
				return dst
			case host.FormatBra: // a conditional branch over the next instruction
				skip := a.NewLabel()
				a.Br(op, src, skip)
				a.OprLit(host.ADDQ, reg(vals), uint8(pick(256)), reg(dsts))
				a.Bind(skip)
				return host.R31
			}
			dst := reg(dsts)
			if pick(3) == 0 {
				a.OprLit(op, src, uint8(pick(256)), dst)
			} else {
				a.Opr(op, src, reg(vals), dst)
			}
			return dst
		}
		for i := 0; i < n; i++ {
			switch c := pick(16); {
			case c < 10:
				p := pairList[pick(len(pairList))]
				if bias != slotEmpty && pick(2) == 0 {
					p = pairList[bias-pairAddqAddl]
				}
				firstOps, secondOps := kindOps(p.first), kindOps(p.second)
				w := emit(firstOps[pick(len(firstOps))], host.R31)
				if pick(2) == 0 {
					w = host.R31
				}
				emit(secondOps[pick(len(secondOps))], w)
			case c < 12:
				sz := []int{2, 4, 8}[pick(3)]
				if pick(2) == 0 {
					trMegaLd(a, sz, int32(pick(32)), sz == 4 && pick(2) == 0)
				} else {
					trMegaSt(a, sz, int32(pick(32)))
				}
			case c < 13:
				a.Mem(host.LDA, host.R9, int32(pick(96)-40), host.R9)
			default:
				ops := []host.Op{host.SUBQ, host.MULQ, host.BIS, host.CMPLT, host.LDQ, host.STL, host.LDBU, host.STQU}
				emit(ops[pick(len(ops))], host.R31)
			}
		}
		a.OprLit(host.SUBQ, host.R10, 1, host.R10)
		a.Br(host.BNE, host.R10, top)
		a.Brk(HaltService)
	})
}

// isPairKind reports whether dispatch kind k is a pair kind.
func isPairKind(k slotKind) bool { return k >= pairAddqAddl }

// pairSteps counts the live steps of m that dispatch on pair kind k.
func pairSteps(m *Machine, k slotKind) (n int) {
	for _, tr := range m.traceList {
		for i := range tr.steps {
			if tr.steps[i].disp == k {
				n++
			}
		}
	}
	return n
}

// pairRun runs words on a machine and on the reference under model p,
// with pairProgram's pages armed and, when plan is set, a fault plan
// from it on each side. The machine's code is laid out in traces Run
// forms (chunk 0) or in traces built over alternating chunks of chunk
// words. Both run in Run calls of budget to the halt, and after every
// call registers, PC, counters and issue-slot state must match and the
// trace tier must be coherent; at the end, so must the data.
func pairRun(t *testing.T, name string, words []uint32, p Params, budget uint64, chunk int, plan func() *faultinject.Plan) {
	t.Helper()
	const base = 0x1000
	m, ref := lowerPair(base, words)
	m.Params, ref.p = p, p
	if !p.UseCaches {
		m.caches, ref.caches = nil, nil
	}
	pairArm(m.Mem)
	pairArm(ref.mem)
	if chunk > 0 {
		end := base + uint64(len(words))*host.InstBytes
		for pc := uint64(base); pc < end; pc += 2 * uint64(chunk) * host.InstBytes {
			if !trBuild(m, pc, min(pc+uint64(chunk)*host.InstBytes, end)) {
				t.Fatalf("%s: trBuild at %#x failed", name, pc)
			}
		}
	}
	if plan != nil {
		m.SetFaultPlan(plan())
		ref.faults = plan()
	}
	calls := 0
	for ; ; calls++ {
		if calls > 1<<16 {
			t.Fatalf("%s: no halt after %d Run calls", name, calls)
		}
		stop, payload, err := m.Run(budget)
		got := machineSnap(m, stop, payload, err)
		rstop, rpayload, rerr := ref.run(budget)
		if want := refSnap(ref, rstop, rpayload, rerr); got != want {
			t.Fatalf("%s call %d:\n got %+v\nwant %+v", name, calls, got, want)
		}
		if err := m.CheckTraceCoherence(); err != nil {
			t.Fatalf("%s call %d: %v", name, calls, err)
		}
		if err != nil || stop == StopBrk {
			t.Fatalf("%s call %d: stopped with %v, %v before the halt", name, calls, stop, err)
		}
		if stop == StopHalt {
			break
		}
	}
	for _, lo := range []uint64{lowerDataBase - 1024, trapROPage, trapUnmappedPage} {
		if err := lowerDataSame(m.Mem, ref.mem, lo, lo+16384); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if ts := m.TraceStats(); ts.TracedInsts != m.Counters().Insts {
		t.Fatalf("%s: %d of %d instructions retired in traces", name, ts.TracedInsts, m.Counters().Insts)
	}
}

// TestTracePairParity runs, for every entry of pairList, two programs
// biased toward that pair against the reference: at every budget from 1
// to 48, well past the longest stretch, and one that runs to the halt,
// on the traces Run forms and on traces built over alternating five-word
// chunks (whose ends cut pairs apart); and under a plan that fires at a
// rate at every fault point. On the first program's formed traces a
// fault plan's Nth spurious access fault or spurious misalignment trap
// lands on every access in turn, with Run calls of the whole budget and
// of three. The pair must dispatch as one in a whole-program trace, or
// the runs could test no pair. The patch subtest rewrites either
// instruction of live pairs in place between Run slices.
func TestTracePairParity(t *testing.T) {
	budgets := []uint64{1 << 20}
	for b := uint64(1); b <= 48; b++ {
		budgets = append(budgets, b)
	}
	for _, p := range pairList {
		first, second := kindOps(p.first)[0], kindOps(p.second)[0]
		t.Run(fmt.Sprintf("%v-%v", first, second), func(t *testing.T) {
			for seed := int64(0); seed < 2; seed++ {
				rng := rand.New(rand.NewSource(int64(p.pair)*10 + seed))
				words := pairProgram(t, rng.Intn, 0x1000, p.pair)
				m, _ := lowerPair(0x1000, words)
				if !trBuild(m, 0x1000, 0x1000+uint64(len(words))*host.InstBytes) || pairSteps(m, p.pair) == 0 {
					t.Fatalf("seed %d: no %v-%v step dispatches as a pair", seed, first, second)
				}
				for _, chunk := range []int{0, 5} {
					for _, budget := range budgets {
						pairRun(t, fmt.Sprintf("seed %d chunk %d budget %d", seed, chunk, budget), words, DefaultParams(), budget, chunk, nil)
					}
					for _, pt := range []faultinject.Point{faultinject.SpuriousAccessFault, faultinject.SpuriousTrap} {
						for _, budget := range []uint64{1 << 20, 3} {
							for nth := uint64(1); chunk == 0 && seed == 0; nth++ {
								var last *faultinject.Plan
								pairRun(t, fmt.Sprintf("seed %d budget %d %s #%d", seed, budget, pt, nth), words, DefaultParams(), budget, chunk,
									func() *faultinject.Plan { last = faultinject.New(1).At(pt, nth); return last })
								if last.Fired(pt) == 0 {
									break
								}
							}
						}
					}
					pairRun(t, fmt.Sprintf("seed %d chunk %d rated plan", seed, chunk), words, DefaultParams(), 7, chunk, func() *faultinject.Plan {
						return faultinject.New(seed).Rate(faultinject.SpuriousTrap, 0.05).
							Rate(faultinject.DuplicateTrap, 0.3).Rate(faultinject.SpuriousAccessFault, 0.05)
					})
				}
			}
		})
	}
	t.Run("patch", func(t *testing.T) {
		for seed := int64(0); seed < 6; seed++ {
			pairPatchParity(t, seed, seed%2 == 1)
		}
	})
}

// pairPatchParity applies in-place patches to live pairs between Run
// slices, with a fault plan on both sides when planned: it rewrites the
// first or the second instruction of a pair into an instruction of
// another pairable kind, into a BRKBT, or, for a memory op, into an EH
// branch to its MDA stub, and restores patched words. After every patch
// the tier must be coherent, which requires every step's dispatch kind
// to be pairOf's, and after every slice the machine must match the
// reference. The sequence must both unpair and re-pair the step before a
// patched second instruction.
func pairPatchParity(t *testing.T, seed int64, planned bool) {
	const base, stubs = 0x1000, 0x9000
	rng := rand.New(rand.NewSource(500 + seed))
	words := pairProgram(t, rng.Intn, base, slotEmpty)
	r := newPatchRig(t, fmt.Sprintf("patch seed %d planned %v", seed, planned), base, words)
	pairArm(r.m.Mem)
	pairArm(r.ref.mem)
	if planned {
		plan := func() *faultinject.Plan {
			return faultinject.New(seed).Rate(faultinject.SpuriousTrap, 0.03).Rate(faultinject.SpuriousAccessFault, 0.03)
		}
		r.m.SetFaultPlan(plan())
		r.ref.faults = plan()
	}
	var kinds []slotKind // every kind some pair holds
	for _, p := range pairList {
		kinds = append(kinds, p.first, p.second)
	}
	orig := map[uint64]uint32{}
	nextStub := uint64(stubs)
	end := base + uint64(len(words))*host.InstBytes
	bne, err := host.Decode(words[len(words)-2])
	if err != nil || bne.Op != host.BNE {
		t.Fatal("the program does not end in its loop's BNE and a halt")
	}
	top := bne.BranchTarget(end - 2*host.InstBytes)
	var unpaired, repaired, firsts, seconds int
	for round := 0; round < 200; round++ {
		if s := r.run(uint64(1 + rng.Intn(60))); s.Stop == StopHalt || s.Err {
			r.setPC(base, host.R10, 2)
		}
		// A plain step of the loop's trace, in a pair as its first or its
		// second instruction, or patched before.
		tr := r.m.traces.get(top).tr
		var cands []int
		for i := 1; i < len(tr.steps)-1; i++ {
			st := &tr.steps[i]
			if _, patched := orig[st.pc]; st.n == 1 && st.pc >= top && (patched || isPairKind(st.disp) || isPairKind(tr.steps[i-1].disp)) {
				cands = append(cands, i)
			}
		}
		if len(cands) == 0 {
			continue
		}
		i := cands[rng.Intn(len(cands))]
		st, prev := &tr.steps[i], &tr.steps[i-1]
		pc, second := st.pc, isPairKind(prev.disp)
		if _, ok := orig[pc]; !ok {
			orig[pc] = r.m.Mem.Read32(pc)
		}
		var w uint32
		switch c := rng.Intn(5); {
		case c == 0 && r.m.Mem.Read32(pc) != orig[pc]:
			w = orig[pc]
		case c == 1 && (st.kind >= slotLd && st.kind <= slotSt):
			r.write(nextStub, ehStub(t, nextStub, pc+host.InstBytes, int32(st.imm)))
			w = brWord(t, pc, nextStub)
			nextStub += 0x40
		case c == 2:
			w = host.MustEncode(host.Inst{Op: host.BRKBT, Payload: 9})
		default:
			// An instruction of a pairable kind, for a second instruction
			// half the time one that pairs with the first; a conditional
			// branch skips the next word, which stays in the trace.
			k := kinds[rng.Intn(len(kinds))]
			if second && rng.Intn(2) == 0 {
				var with []slotKind
				for _, p := range pairList {
					if p.first == prev.kind {
						with = append(with, p.second)
					}
				}
				k = with[rng.Intn(len(with))]
			}
			ops := kindOps(k)
			inst := host.Inst{Op: ops[rng.Intn(len(ops))], Ra: host.Reg(1 + rng.Intn(8)), Rb: host.R9, Rc: host.Reg(1 + rng.Intn(8))}
			switch host.FormatOf(inst.Op) {
			case host.FormatMem:
				inst.Disp = int32(rng.Intn(64))
			case host.FormatBra:
				// The target must be a step head of the trace, or the
				// patch would drop it.
				inst.Disp = 1
				if pc+2*host.InstBytes >= end || r.m.traces.get(pc+2*host.InstBytes).tr != tr {
					continue
				}
			case host.FormatOpr:
				inst.Rb = host.Reg(1 + rng.Intn(8))
			}
			w = host.MustEncode(inst)
		}
		before := prev.disp
		if !r.patch(pc, w) {
			t.Fatalf("%s: the patch at %#x did not rewrite its step in place", r.name, pc)
		}
		if second {
			seconds++
		} else {
			firsts++
		}
		switch after := prev.disp; {
		case isPairKind(before) && !isPairKind(after):
			unpaired++
		case isPairKind(after) && after != before:
			repaired++
		}
	}
	if unpaired == 0 || repaired == 0 || firsts == 0 || seconds == 0 {
		t.Fatalf("%s: %d unpaired and %d re-paired predecessors, %d first and %d second instructions patched: the sequence did not exercise each",
			r.name, unpaired, repaired, firsts, seconds)
	}
}

// TestProtectionChangeBetweenRuns changes a page's protection between
// two Run calls over the same live trace, for a plain load step and for
// a pair whose first instruction is a load, and requires the next access
// to the page to trap at that load, and none once the protection is
// lifted again. The trace is formed once and never dropped.
func TestProtectionChangeBetweenRuns(t *testing.T) {
	const base = 0x1000
	const plainPage, pairPage = 0x400000, 0x500000
	var plainLd, pairLd uint64
	words := trProgram(t, base, func(a *host.Asm) {
		a.MovImm(host.R8, plainPage)
		a.MovImm(host.R9, pairPage)
		for a.PC()%(1<<ilineShift) != 0 { // the loop on one I-line: one stretch
			a.OprLit(host.BIS, host.R31, 0, host.R31)
		}
		top := a.NewLabel()
		a.Bind(top)
		plainLd = a.PC()
		a.Mem(host.LDQ, host.R1, 8, host.R8)
		a.Opr(host.SUBQ, host.R1, host.R2, host.R3)
		pairLd = a.PC()
		a.Mem(host.LDQ, host.R2, 16, host.R9)
		a.Opr(host.ADDQ, host.R2, host.R3, host.R4)
		a.Brk(1)
		a.Br(host.BR, host.R31, top)
	})
	m, ref := lowerPair(base, words)
	var traps []uint64
	m.SetAccessFaultHandler(func(m *Machine, pc uint64, inst host.Inst, ea uint64) uint64 {
		traps = append(traps, pc)
		m.PerformAccess(inst, ea)
		return pc + host.InstBytes
	})
	step := func(name string, want ...uint64) {
		t.Helper()
		traps = nil
		stop, payload, err := m.Run(1 << 10)
		got := machineSnap(m, stop, payload, err)
		rstop, rpayload, rerr := ref.run(1 << 10)
		if w := refSnap(ref, rstop, rpayload, rerr); got != w || stop != StopBrk {
			t.Fatalf("%s:\n got %+v\nwant %+v", name, got, w)
		}
		if fmt.Sprint(traps) != fmt.Sprint(want) {
			t.Fatalf("%s: access traps at %#x, want %#x", name, traps, want)
		}
	}
	protect := func(page uint64, p mem.Prot) {
		m.Mem.Protect(page, mem.PageSize, p)
		ref.mem.Protect(page, mem.PageSize, p)
	}
	for _, page := range []uint64{plainPage, pairPage} {
		m.Mem.Write64(page+8, 0x1234)
		ref.mem.Write64(page+8, 0x1234)
		m.Mem.Write64(page+16, 0x5678)
		ref.mem.Write64(page+16, 0x5678)
	}
	step("first run")
	step("second run") // forms the trace from the BRKBT's successor
	ent := m.traces.get(plainLd)
	if ent.tr == nil || ent.tr.steps[ent.idx].disp != slotLd || m.traces.get(pairLd).tr != ent.tr ||
		ent.tr.steps[ent.idx+2].disp != pairLdAddq {
		t.Fatal("the loop is not one trace with a plain load step and a load-first pair")
	}
	formed := m.TraceStats().Formed
	protect(plainPage, 0)
	step("plain page unmapped", plainLd)
	step("still unmapped", plainLd)
	protect(plainPage, mem.ProtAll)
	step("plain page mapped again")
	protect(pairPage, mem.ProtWrite)
	step("pair page write-only", pairLd)
	protect(pairPage, mem.ProtAll)
	step("pair page mapped again")
	if ts := m.TraceStats(); ts.Formed != formed || ts.Invalidations != 0 || m.traces.get(plainLd).tr != ent.tr {
		t.Fatalf("trace stats %+v: the protection changes formed or dropped a trace", ts)
	}
}

// fuzzPicker turns fuzz bytes into choices: pick(n) reads one byte, two
// when n exceeds 256, and returns the value modulo n; once the bytes run
// out every pick is 0.
type fuzzPicker []byte

func (b *fuzzPicker) pick(n int) int {
	v := 0
	for k := 0; k == 0 || k == 1 && n > 256; k++ {
		if len(*b) > 0 {
			v = v<<8 | int((*b)[0])
			*b = (*b)[1:]
		}
	}
	return v % n
}

// FuzzTraceParity is the machine layer's differential fuzz target: fuzz
// bytes choose a pairProgram (pairs of every pairList entry, one pair
// favoured or none, mega-steps, faulting and misaligned accesses), the
// Run-call budget, the cost model (DefaultParams, or one without dual
// issue and with other load, multiply and taken-branch cycles, each with
// or without caches), the tiling of the code into traces and a fault
// plan, and pairRun compares every Run call with the single-stepping
// reference. The run settings are read first, so a mutation of the
// program's bytes leaves them as they were. Its seed corpus is in
// testdata/fuzz/FuzzTraceParity.
func FuzzTraceParity(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		src := fuzzPicker(data)
		budget := uint64(1 + src.pick(64))
		p := DefaultParams()
		model := src.pick(4)
		if model&1 != 0 {
			p.DualIssueALU = false
			p.LoadExtraCycles, p.MulExtraCycles, p.TakenBranchCycles = 5, 3, 4
		}
		p.UseCaches = model&2 == 0
		chunk := []int{0, 0, 3, 5, 8}[src.pick(5)]
		var plan func() *faultinject.Plan
		if src.pick(4) == 0 {
			seed := int64(src.pick(256))
			plan = func() *faultinject.Plan {
				return faultinject.New(seed).Rate(faultinject.SpuriousTrap, 0.05).
					Rate(faultinject.DuplicateTrap, 0.3).Rate(faultinject.SpuriousAccessFault, 0.05)
			}
		}
		bias := slotEmpty
		if k := src.pick(len(pairList) + 1); k > 0 {
			bias = pairList[k-1].pair
		}
		words := pairProgram(t, src.pick, 0x1000, bias)
		pairRun(t, fmt.Sprintf("budget %d model %d chunk %d planned %v bias %d", budget, model, chunk, plan != nil, bias), words, p, budget, chunk, plan)
	})
}

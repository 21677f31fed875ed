package machine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mdabt/internal/host"
)

// patchRig runs a machine and the single-stepping reference side by side
// over the same code and data, with the cache hierarchy on, and applies
// every code write to both. After each patch it checks the trace tier's
// coherence; after each Run slice it compares registers, PC, stop,
// Counters (cycles included), the data area and the L1I access counts,
// which show a fetch the machine skipped even when it would have hit.
type patchRig struct {
	t    *testing.T
	name string
	m    *Machine
	ref  *refMachine
}

func newPatchRig(t *testing.T, name string, base uint64, words []uint32) *patchRig {
	m, ref := lowerPair(base, words)
	return &patchRig{t: t, name: name, m: m, ref: ref}
}

// write stores code both sides, as the BT runtime emits a stub or unit.
func (r *patchRig) write(addr uint64, words []uint32) {
	r.m.WriteCode(addr, words)
	for i, w := range words {
		r.ref.mem.Write32(addr+uint64(i)*host.InstBytes, w)
	}
}

// patch applies Patch to both sides and reports whether the machine
// rewrote a live step in place.
func (r *patchRig) patch(addr uint64, word uint32) bool {
	r.t.Helper()
	before := r.m.TraceStats().Relowered
	r.m.Patch(addr, word)
	r.ref.patch(addr, word)
	if err := r.m.CheckTraceCoherence(); err != nil {
		r.t.Fatalf("%s: after patching %#x: %v", r.name, addr, err)
	}
	return r.m.TraceStats().Relowered > before
}

// setPC moves both sides to pc and sets reg to v, to start a new round.
func (r *patchRig) setPC(pc uint64, reg host.Reg, v uint64) {
	r.m.SetPC(pc)
	r.ref.pc = pc
	r.m.SetReg(reg, v)
	r.ref.regs[reg] = v
}

// run runs both sides for budget instructions and compares them.
func (r *patchRig) run(budget uint64) lowerSnap {
	r.t.Helper()
	stop, payload, err := r.m.Run(budget)
	got := machineSnap(r.m, stop, payload, err)
	rstop, rpayload, rerr := r.ref.run(budget)
	r.compare(got, refSnap(r.ref, rstop, rpayload, rerr))
	return got
}

// runTo steps the reference until its PC is pc and runs the machine for
// as many instructions, so the machine's next Run enters its trace there.
func (r *patchRig) runTo(pc uint64) {
	r.t.Helper()
	n := uint64(0)
	for ; r.ref.pc != pc; n++ {
		if _, _, done, err := r.ref.step(); done || err != nil || n > 1<<16 {
			r.t.Fatalf("%s: the reference did not reach %#x", r.name, pc)
		}
	}
	stop, payload, err := r.m.Run(n)
	r.compare(machineSnap(r.m, stop, payload, err), refSnap(r.ref, StopLimit, 0, nil))
}

func (r *patchRig) compare(got, want lowerSnap) {
	r.t.Helper()
	if got != want {
		r.t.Fatalf("%s:\n got %+v\nwant %+v", r.name, got, want)
	}
	if err := lowerDataSame(r.m.Mem, r.ref.mem, lowerDataBase-1024, lowerDataBase+16384); err != nil {
		r.t.Fatalf("%s: %v", r.name, err)
	}
	if g, w := r.m.Caches().L1I.Stats(), r.ref.caches.L1I.Stats(); g != w {
		r.t.Fatalf("%s: L1I %+v, reference %+v", r.name, g, w)
	}
	if ts := r.m.TraceStats(); ts.TracedInsts != want.C.Insts {
		r.t.Fatalf("%s: %d of %d instructions retired in traces", r.name, ts.TracedInsts, want.C.Insts)
	}
}

// mustPanic requires a patch at a misaligned address to panic and to
// change neither memory nor the trace tier.
func (r *patchRig) mustPanic(addr uint64, word uint32) {
	r.t.Helper()
	old, ts := r.m.Mem.Read32(addr&^(host.InstBytes-1)), r.m.TraceStats()
	func() {
		defer func() {
			if recover() == nil {
				r.t.Fatalf("%s: Patch(%#x) did not panic", r.name, addr)
			}
		}()
		r.m.Patch(addr, word)
	}()
	if r.m.Mem.Read32(addr&^(host.InstBytes-1)) != old || r.m.TraceStats() != ts {
		r.t.Fatalf("%s: a misaligned Patch changed memory or the trace tier", r.name)
	}
	if err := r.m.CheckTraceCoherence(); err != nil {
		r.t.Fatalf("%s: %v", r.name, err)
	}
}

// brWord encodes a foldable BR at pc to target.
func brWord(t *testing.T, pc, target uint64) uint32 {
	t.Helper()
	d, ok := host.BrDispFor(pc, target)
	if !ok {
		t.Fatalf("BR %#x→%#x out of range", pc, target)
	}
	return host.MustEncode(host.Inst{Op: host.BR, Ra: host.R31, Disp: d})
}

// ehStub assembles, at stub, the MDA load sequence of an EH-patched
// longword load with displacement d off R9 into R7, returning to ret
// (paper Fig. 5).
func ehStub(t *testing.T, stub, ret uint64, d int32) []uint32 {
	return trProgram(t, stub, func(a *host.Asm) {
		trMegaLd(a, 4, d, true)
		a.BrTo(host.BR, host.R31, ret)
	})
}

// undecodable is a word with an unassigned opcode.
const undecodable = 0x04 << 26

// TestPatchInPlaceParity applies the patches the BT runtime makes between
// Run slices and requires every slice to match the reference: on the
// translated-unit shape of newFormUnit, in a scripted order whose runs
// enter the trace just before each patched step, and on random programs
// with MDA mega-steps, in random order. The patches are an EH patch of a
// load into a BR to its MDA stub and its restore, a chain link of a BRKBT
// into a BR to a unit outside the trace and to one of its own step heads,
// a link retargeted to another unit, an unlink back to BRKBT, a rewrite
// on the line being fetched, and the cases that fall back to dropping the
// trace: a BR into a mega-step's interior and an undecodable word. A
// patch at a misaligned address must panic and change nothing.
func TestPatchInPlaceParity(t *testing.T) {
	t.Run("unit", patchUnitParity)
	for seed := int64(0); seed < 12; seed++ {
		t.Run(fmt.Sprintf("random-%d", seed), func(t *testing.T) { patchRandomParity(t, seed) })
	}
}

func patchUnitParity(t *testing.T) {
	u := newFormUnit(t)
	r := newPatchRig(t, "unit", formBase, u.words)
	r.write(formStubs, u.stubs)
	const big = 1 << 20
	end := formBase + uint64(len(u.words))*host.InstBytes
	restart := func() { r.setPC(formBase, host.R9, lowerDataBase) }
	halted := func(what string, s lowerSnap) {
		t.Helper()
		if s.Stop != StopHalt || s.Err {
			t.Fatalf("%s: stop %v (err %v), want a halt", what, s.Stop, s.Err)
		}
		restart()
	}
	restart()
	halted("fresh unit", r.run(big))
	tr := r.m.traces.get(formBase).tr
	if tr == nil || tr.end != end {
		t.Fatal("the unit does not run in one trace")
	}
	unsplit := func(what string) {
		t.Helper()
		if r.m.traces.get(formBase).tr != tr || tr.end != end || r.m.TraceStats().Invalidations != 0 {
			t.Fatalf("%s: the unit's trace was dropped or split", what)
		}
	}

	// The first unpatched load off a line start, its stub, the unit's
	// halt, and two units outside the trace that count in R12 and R13.
	var ld, halt uint64
	var ldInst host.Inst
	for i, w := range u.words {
		pc := formBase + uint64(i)*host.InstBytes
		inst, err := host.Decode(w)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case ld == 0 && inst.Op == host.LDL && pc%(1<<ilineShift) != 0:
			ld, ldInst = pc, inst
		case halt == 0 && inst.Op == host.BRKBT:
			halt = pc
		}
	}
	const stub, unitX, unitY = formStubs + 0x8000, formStubs + 0x9000, formStubs + 0xA000
	r.write(stub, ehStub(t, stub, ld+host.InstBytes, ldInst.Disp))
	for _, x := range []struct {
		at  uint64
		reg host.Reg
	}{{unitX, host.R12}, {unitY, host.R13}} {
		r.write(x.at, trProgram(t, x.at, func(a *host.Asm) {
			a.OprLit(host.ADDQ, x.reg, 1, x.reg)
			a.Brk(HaltService)
		}))
	}
	ldWord, haltWord := u.words[(ld-formBase)/host.InstBytes], u.words[(halt-formBase)/host.InstBytes]

	// EH patch and restore, each entered just before the load, in its
	// stretch.
	for _, w := range []uint32{brWord(t, ld, stub), ldWord, brWord(t, ld, stub)} {
		r.runTo(ld - host.InstBytes)
		if !r.patch(ld, w) {
			t.Fatalf("patch %#x at %#x fell back to a drop", w, ld)
		}
		unsplit("EH patch")
		halted("after an EH patch", r.run(big))
	}

	// Chain the halt to unit X (twice, so the link is memoized), retarget
	// it to unit Y, unlink it, then chain it to the unit's own entry.
	for _, step := range []struct {
		word  uint32
		runs  int
		count host.Reg
	}{
		{brWord(t, halt, unitX), 2, host.R12},
		{brWord(t, halt, unitY), 2, host.R13},
		{haltWord, 1, 0},
	} {
		if !r.patch(halt, step.word) {
			t.Fatalf("patch %#x at %#x fell back to a drop", step.word, halt)
		}
		unsplit("chain link")
		for range step.runs {
			var before uint64
			if step.count != 0 {
				before = r.m.Reg(step.count)
			}
			halted("after a chain link", r.run(big))
			if step.count != 0 && r.m.Reg(step.count) != before+1 {
				t.Fatalf("the link to the unit counting in %v was not followed", step.count)
			}
		}
	}
	if !r.patch(halt, brWord(t, halt, formBase)) {
		t.Fatal("a BR to the trace's entry fell back to a drop")
	}
	if st := &tr.steps[r.m.traces.get(halt).idx]; st.taken != &tr.steps[0] {
		t.Fatal("a BR to the trace's entry is not threaded in-trace")
	}
	r.run(5000)
	r.patch(halt, haltWord)
	halted("after unlinking a loop", r.run(big))

	// A rewrite on the line being fetched: the next fetch charges the
	// I-cache again.
	var line []uint64 // operate steps on ld's line past its first word, in order
	for i := range tr.steps[:len(tr.steps)-1] {
		st := &tr.steps[i]
		if st.pc>>ilineShift == ld>>ilineShift && st.pc%(1<<ilineShift) != 0 && st.n == 1 &&
			st.kind >= slotOpr && st.kind < slotMul && st.kind != slotCmplt {
			line = append(line, st.pc)
		}
	}
	if len(line) < 2 {
		t.Fatalf("ld's line holds %d operate steps past its first word, want 2", len(line))
	}
	r.runTo(line[0])
	if r.m.curLineID != line[0]>>ilineShift {
		t.Fatal("the machine is not fetching ld's line")
	}
	if !r.patch(line[1], host.MustEncode(host.Inst{Op: host.SUBQ, Ra: host.R8, Rb: host.R1, Rc: host.R8})) {
		t.Fatal("a rewrite of an operate step fell back to a drop")
	}
	halted("after a patch on the fetched line", r.run(big))
	unsplit("a patch on the fetched line")

	r.mustPanic(ld+2, ldWord)

	// A trace built inside a mega-step of the unit's trace, as Run forms
	// one after a fault mid-sequence: the mega-step covers its steps, so a
	// patch of one drops both traces.
	megaStep := func() *traceStep {
		t.Helper()
		tr = r.m.traces.get(formBase).tr
		for i := range tr.steps {
			if tr.steps[i].kind == stepMisLd {
				return &tr.steps[i]
			}
		}
		t.Fatal("the unit's trace holds no MDA load mega-step")
		return nil
	}
	ms := megaStep()
	inner := ms.pc + 3*host.InstBytes
	if !trBuild(r.m, ms.pc+2*host.InstBytes, ms.pc+uint64(ms.n)*host.InstBytes) {
		t.Fatal("trBuild inside the mega-step failed")
	}
	innerWord := r.m.Mem.Read32(inner)
	if r.patch(inner, host.MustEncode(host.Inst{Op: host.BIS, Ra: host.R31, Rb: host.R31, Rc: host.R5})) || trLive(r.m, formBase) || trLive(r.m, inner) {
		t.Fatal("a patch under another trace's mega-step did not drop both traces")
	}
	halted("after a patch under a mega-step", r.run(big))
	r.patch(inner, innerWord)
	halted("after its restore", r.run(big))

	// A BR from the unit's entry into a mega-step's interior, and an
	// undecodable word: the trace is dropped, and formation takes over.
	mega := megaStep().pc
	entryWord := u.words[0]
	for _, w := range []uint32{brWord(t, formBase, mega+2*host.InstBytes), undecodable} {
		if r.patch(formBase, w) {
			t.Fatalf("patch %#x at the entry was rewritten in place, want a drop", w)
		}
		if r.m.traces.get(formBase).tr != nil {
			t.Fatal("the trace survived a patch that must drop it")
		}
		s := r.run(big)
		if (w == undecodable) != s.Err {
			t.Fatalf("patch %#x: run err %v", w, s.Err)
		}
		r.patch(formBase, entryWord)
		if s.Err {
			s = r.run(big)
		}
		halted("after a dropping patch", s)
	}
}

func patchRandomParity(t *testing.T, seed int64) {
	const base, stubs = 0x1000, 0x8000
	rng := rand.New(rand.NewSource(200 + seed))
	words := lowerRandomProgram(t, rng, base, true)
	r := newPatchRig(t, fmt.Sprintf("seed %d", seed), base, words)
	end := base + uint64(len(words))*host.InstBytes
	halt, bne := end-host.InstBytes, end-2*host.InstBytes
	bneInst, err := host.Decode(words[len(words)-2])
	if err != nil || bneInst.Op != host.BNE {
		t.Fatal("the program does not end in its loop's BNE and a halt")
	}
	top := bneInst.BranchTarget(bne)
	const unitX, unitY = stubs + 0x7000, stubs + 0x7100
	for _, at := range []uint64{unitX, unitY} {
		r.write(at, trProgram(t, at, func(a *host.Asm) {
			a.OprLit(host.XOR, host.R1, uint8(at>>8), host.R1)
			a.Brk(HaltService)
		}))
	}
	orig := map[uint64]uint32{} // patched words, for restores
	remember := func(pc uint64) {
		if _, ok := orig[pc]; !ok {
			orig[pc] = r.m.Mem.Read32(pc)
		}
	}
	var patched []uint64
	patchAt := func(pc uint64, w uint32) bool {
		remember(pc)
		patched = append(patched, pc)
		return r.patch(pc, w)
	}
	// step returns the live plain step at a random body word, if any.
	step := func() *traceStep {
		pc := top + uint64(rng.Intn(int(bne-top)/host.InstBytes))*host.InstBytes
		if ent := r.m.traces.get(pc); ent.tr != nil && ent.tr.steps[ent.idx].n == 1 {
			return &ent.tr.steps[ent.idx]
		}
		return nil
	}
	nextStub := uint64(stubs)
	relowered, drops := 0, 0
	r.mustPanic(top+1, words[0])
	for round := 0; round < 60; round++ {
		s := r.run(uint64(1 + rng.Intn(150)))
		switch {
		case s.Err:
			for pc, w := range orig {
				if r.m.Mem.Read32(pc) == undecodable {
					r.patch(pc, w)
				}
			}
		case s.Stop == StopHalt:
			r.setPC(base, host.R10, 40)
		}
		var ok bool
		switch rng.Intn(8) {
		case 0: // EH patch of a plain memory op
			st := step()
			if st == nil || st.kind < slotLd || st.kind > slotStu {
				continue
			}
			pc, d := st.pc, int32(st.imm)
			r.write(nextStub, ehStub(t, nextStub, pc+host.InstBytes, d))
			ok = patchAt(pc, brWord(t, pc, nextStub))
			nextStub += 0x40
		case 1: // restore a patched word
			if len(patched) == 0 {
				continue
			}
			pc := patched[rng.Intn(len(patched))]
			ok = r.patch(pc, orig[pc])
		case 2: // chain the halt out of the trace, or to a step of the loop
			target := []uint64{unitX, unitY, top, top + uint64(rng.Intn(int(bne-top)/host.InstBytes))*host.InstBytes}[rng.Intn(4)]
			ok = patchAt(halt, brWord(t, halt, target))
		case 3: // unlink the halt, or a plain step into a BRKBT
			pc, w := halt, uint32(host.MustEncode(host.Inst{Op: host.BRKBT, Payload: HaltService}))
			if rng.Intn(2) == 0 {
				st := step()
				if st == nil {
					continue
				}
				pc, w = st.pc, host.MustEncode(host.Inst{Op: host.BRKBT, Payload: 7})
			}
			ok = patchAt(pc, w)
		case 4: // a BR into the interior of a mega-step of the same trace
			st := step()
			if st == nil {
				continue
			}
			tr := r.m.traces.get(st.pc).tr
			var into uint64
			for i := range tr.steps {
				if tr.steps[i].n > 1 {
					into = tr.steps[i].pc + uint64(1+rng.Intn(int(tr.steps[i].n)-1))*host.InstBytes
				}
			}
			if into == 0 {
				continue
			}
			if patchAt(st.pc, brWord(t, st.pc, into)) || r.m.traces.get(st.pc).tr != nil {
				t.Fatalf("seed %d: a BR into a mega-step's interior did not drop its trace", seed)
			}
			drops++
		case 5: // an undecodable word
			st := step()
			if st == nil {
				continue
			}
			if patchAt(st.pc, undecodable) || r.m.traces.get(st.pc).tr != nil {
				t.Fatalf("seed %d: an undecodable word did not drop its trace", seed)
			}
			drops++
		case 6, 7: // an operate rewrite, half the time on the line being fetched
			pc := top + uint64(rng.Intn(int(bne-top)/host.InstBytes))*host.InstBytes
			if l := r.m.curLineID; rng.Intn(2) == 0 && l != noLineID && l<<ilineShift >= top && l<<ilineShift < bne {
				pc = l<<ilineShift + uint64(rng.Intn(ilineInsts))*host.InstBytes
				pc = min(max(pc, top), bne-host.InstBytes)
			}
			ok = patchAt(pc, host.MustEncode(host.Inst{
				Op: []host.Op{host.ADDQ, host.XOR, host.SUBL}[rng.Intn(3)],
				Ra: host.Reg(1 + rng.Intn(5)), IsLit: true, Lit: uint8(rng.Intn(256)), Rc: host.Reg(1 + rng.Intn(5)),
			}))
		}
		if ok {
			relowered++
		}
	}
	if relowered < 10 || drops == 0 {
		t.Fatalf("seed %d: %d patches rewritten in place and %d dropping patches: the sequence did not exercise both", seed, relowered, drops)
	}
}

// TestTraceStatsSub: Sub subtracts every counter of TraceStats.
func TestTraceStatsSub(t *testing.T) {
	var a, b, want TraceStats
	va, vb, vw := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem(), reflect.ValueOf(&want).Elem()
	for i := range va.NumField() {
		va.Field(i).SetUint(uint64(100 + 10*i))
		vb.Field(i).SetUint(uint64(i))
		vw.Field(i).SetUint(uint64(100 + 9*i))
	}
	if got := a.Sub(b); got != want {
		t.Fatalf("%+v.Sub(%+v) = %+v, want %+v", a, b, got, want)
	}
}

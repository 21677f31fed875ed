package machine

import (
	"reflect"
	"testing"
	"unsafe"

	"mdabt/internal/host"
)

// resetProgA loops over a fused MDA load and store with literal operate
// forms, so its trace steps carry mega-step operands, literals, taken
// pointers and (split in two traces) chain links.
func resetProgA(a *host.Asm) {
	a.MovImm(host.R9, trDataBase)
	a.MovImm(host.R1, 40)
	top := a.NewLabel()
	a.Bind(top)
	trMegaLd(a, 4, 3, true)
	a.OprLit(host.ADDQ, host.R7, 17, host.R8)
	a.OprLit(host.XOR, host.R8, 99, host.R7)
	trMegaSt(a, 8, 21)
	a.OprLit(host.SUBQ, host.R1, 1, host.R1)
	a.Br(host.BNE, host.R1, top)
	a.Brk(HaltService)
}

// resetProgB has register operate forms and plain accesses at the same
// addresses, so a field left over from resetProgA's steps would change its
// result.
func resetProgB(a *host.Asm) {
	a.MovImm(host.R9, trDataBase)
	a.MovImm(host.R1, 30)
	a.MovImm(host.R2, 5)
	a.MovImm(host.R6, 1)
	top := a.NewLabel()
	a.Bind(top)
	a.Mem(host.LDQ, host.R3, 8, host.R9)
	a.Opr(host.ADDQ, host.R3, host.R2, host.R4)
	a.Opr(host.XOR, host.R4, host.R1, host.R5)
	a.Mem(host.STQ, host.R5, 16, host.R9)
	a.Mem(host.LDL, host.R7, 1, host.R9) // misaligned: default fixup
	a.Opr(host.SUBQ, host.R1, host.R6, host.R1)
	a.Br(host.BGT, host.R1, top)
	a.Brk(HaltService)
}

// resetLoad seeds data, writes words at base, and returns the span's end
// and the PC of the loop's decrement, where the tests split traces.
func resetLoad(t *testing.T, m *Machine, base uint64, words []uint32) (mid, end uint64) {
	t.Helper()
	trSeedData(m.Mem)
	m.WriteCode(base, words)
	m.SetPC(base)
	for i, w := range words {
		if inst, _ := host.Decode(w); inst.Op == host.SUBQ {
			mid = base + uint64(i)*host.InstBytes
		}
	}
	return mid, base + uint64(len(words))*host.InstBytes
}

// resetTrace builds a trace over each span.
func resetTrace(t *testing.T, m *Machine, spans ...[2]uint64) {
	t.Helper()
	for _, s := range spans {
		if !trBuild(m, s[0], s[1]) {
			t.Fatalf("trBuild(%#x, %#x) failed", s[0], s[1])
		}
	}
}

// TestResetRecyclesLinesAndSteps runs program A on the traces Run forms
// and on two chained built traces, resets, and runs program B on the same
// machine: B's registers, counters and trace stats must equal a fresh
// machine's, while B's trace steps come from the pool A's traces went to
// and its trace tables are the ones A filled. That proves recycled steps
// come back zeroed and Reset keeps the tables.
func TestResetRecyclesLinesAndSteps(t *testing.T) {
	const base = 0x1000
	wordsA := trProgram(t, base, resetProgA)
	wordsB := trProgram(t, base, resetProgB)
	for _, caches := range []bool{false, true} {
		// A runs on the traces Run forms, then, after IMB drops them,
		// again over two chained built traces, so its steps are dirty at
		// Reset.
		m := newMachine(caches)
		mid, end := resetLoad(t, m, base, wordsA)
		if got := trRun(m, 1<<20); got.Stop != StopHalt {
			t.Fatalf("program A stopped with %v", got.Stop)
		}
		m.IMB()
		m.SetPC(base)
		resetTrace(t, m, [2]uint64{base, mid}, [2]uint64{mid, end})
		if got := trRun(m, 1<<20); got.Stop != StopHalt {
			t.Fatalf("program A stopped with %v", got.Stop)
		}
		if ts := m.TraceStats(); ts.ChainFollows == 0 || ts.TracedInsts == 0 {
			t.Fatalf("program A trace stats %+v: want chained traced execution", ts)
		}
		tables := [3]unsafe.Pointer{reflect.ValueOf(m.traces.chunks).UnsafePointer(), reflect.ValueOf(m.traceList).UnsafePointer(), unsafe.Pointer(m.traces.chunks[base>>pcChunkShift])}

		m.Reset()
		m.Mem.Reset()
		pooled := map[*traceStep]bool{}
		for _, class := range m.steps.free {
			for _, steps := range class {
				pooled[&steps[0]] = true
			}
		}
		if m.traces.live != 0 || len(m.traceList) != 0 || m.curLineID != noLineID {
			t.Fatalf("Reset left %d steps, %d traces and line %#x", m.traces.live, len(m.traceList), m.curLineID)
		}
		// B's loop back-edge runs in a trace built on pooled steps, and
		// its head in a trace Run forms.
		mid, end = resetLoad(t, m, base, wordsB)
		resetTrace(t, m, [2]uint64{mid, end})
		got, gotStats := trRun(m, 1<<20), m.TraceStats()

		fresh := newMachine(caches)
		resetLoad(t, fresh, base, wordsB)
		resetTrace(t, fresh, [2]uint64{mid, end})
		want, wantStats := trRun(fresh, 1<<20), fresh.TraceStats()

		if !reflect.DeepEqual(got, want) {
			t.Fatalf("caches=%v: recycled machine ran B to\n%+v\nfresh machine to\n%+v", caches, got, want)
		}
		if gotStats != wantStats {
			t.Fatalf("caches=%v: trace stats %+v, fresh %+v", caches, gotStats, wantStats)
		}
		if tr := m.traceList[1]; tr == nil || !pooled[&tr.steps[0]] {
			t.Fatal("program B's built trace is not on pooled steps")
		}
		if got := [3]unsafe.Pointer{reflect.ValueOf(m.traces.chunks).UnsafePointer(), reflect.ValueOf(m.traceList).UnsafePointer(), unsafe.Pointer(m.traces.chunks[base>>pcChunkShift])}; got != tables {
			t.Fatal("Reset replaced the trace tables")
		}
		if err := m.CheckTraceCoherence(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStepArenaBoundedWithoutReset rewrites a traced span and rebuilds its
// trace many times with no Reset, next to a trace that stays live
// throughout. The rebuilds must reuse pooled steps rather than allocate,
// the pool must stay within its bound, and the long-lived trace must still
// run correctly.
func TestStepArenaBoundedWithoutReset(t *testing.T) {
	const churn, stay = 0x1000, 0x4000
	wordsA := trProgram(t, churn, resetProgA)
	wordsB := trProgram(t, stay, resetProgB)
	m := newMachine(true)
	_, stayEnd := resetLoad(t, m, stay, wordsB)
	_, end := resetLoad(t, m, churn, wordsA)
	resetTrace(t, m, [2]uint64{stay, stayEnd}, [2]uint64{churn, end})
	slices := map[*traceStep]bool{}
	for i := 0; i < 1000; i++ {
		m.WriteCode(churn, wordsA) // drops the churn trace
		if !trBuild(m, churn, end) {
			t.Fatal("rebuild failed")
		}
		slices[&m.traceList[m.traceSeq].steps[0]] = true
		if m.steps.held > maxPooledSteps {
			t.Fatalf("after %d rebuilds the pool holds %d steps", i+1, m.steps.held)
		}
	}
	if len(slices) > 2 {
		t.Fatalf("1000 rebuilds used %d step slices: the pool is not reused", len(slices))
	}
	if err := m.CheckTraceCoherence(); err != nil {
		t.Fatal(err)
	}

	m.SetPC(stay)
	got := trRun(m, 1<<20)
	ref := newMachine(true)
	resetLoad(t, ref, stay, wordsB)
	want := trRun(ref, 1<<20)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("long-lived trace ran to %+v, a fresh machine to %+v", got, want)
	}
	if m.TraceStats().TracedInsts == 0 {
		t.Fatalf("trace stats %+v: want traced execution", m.TraceStats())
	}
}

// TestStepPoolBound: dropping more steps than maxPooledSteps leaves the
// excess to the garbage collector, and every pooled slice comes back
// zeroed.
func TestStepPoolBound(t *testing.T) {
	var p stepPool
	for i := 0; i < 2*maxPooledSteps/64; i++ {
		s := make([]traceStep, 40, 64)
		s[39].pc = 1
		p.put(s)
	}
	if p.held != maxPooledSteps {
		t.Fatalf("pool holds %d steps, want its bound %d", p.held, maxPooledSteps)
	}
	s := p.get(33)
	if len(s) != 33 || cap(s) != 64 || p.held != maxPooledSteps-64 {
		t.Fatalf("get(33): len %d cap %d, pool %d", len(s), cap(s), p.held)
	}
	for i := range s[:cap(s)] {
		if s[:cap(s)][i] != (traceStep{}) {
			t.Fatalf("pooled step %d not zeroed", i)
		}
	}
}

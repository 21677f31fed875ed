package machine

import (
	"reflect"
	"testing"

	"mdabt/internal/host"
)

// resetProgA loops over a fused MDA load and store with literal operate
// forms, so its trace steps carry mega-step operands, literals, taken
// pointers and (split in two traces) chain links.
func resetProgA(a *host.Asm) {
	a.MovImm(host.R9, trDataBase)
	a.MovImm(host.R1, 40)
	a.Label("top")
	trMegaLd(a, 4, 3, true)
	a.OprLit(host.ADDQ, host.R7, 17, host.R8)
	a.OprLit(host.XOR, host.R8, 99, host.R7)
	trMegaSt(a, 8, 21)
	a.OprLit(host.SUBQ, host.R1, 1, host.R1)
	a.Br(host.BNE, host.R1, "top")
	a.Brk(HaltService)
}

// resetProgB has register operate forms and plain accesses at the same
// addresses, so a field left over from resetProgA's steps or decoded
// slots would change its result.
func resetProgB(a *host.Asm) {
	a.MovImm(host.R9, trDataBase)
	a.MovImm(host.R1, 30)
	a.MovImm(host.R2, 5)
	a.MovImm(host.R6, 1)
	a.Label("top")
	a.Mem(host.LDQ, host.R3, 8, host.R9)
	a.Opr(host.ADDQ, host.R3, host.R2, host.R4)
	a.Opr(host.XOR, host.R4, host.R1, host.R5)
	a.Mem(host.STQ, host.R5, 16, host.R9)
	a.Mem(host.LDL, host.R7, 1, host.R9) // misaligned: default fixup
	a.Opr(host.SUBQ, host.R1, host.R6, host.R1)
	a.Br(host.BGT, host.R1, "top")
	a.Brk(HaltService)
}

// resetLoad seeds data, writes words at base, and returns the span's end
// and the PC of the loop's decrement, where the tests split traces.
func resetLoad(t *testing.T, m *Machine, base uint64, words []uint32) (mid, end uint64) {
	t.Helper()
	trSeedData(m)
	m.WriteCode(base, words)
	m.SetPC(base)
	for i, w := range words {
		if inst, _ := host.Decode(w); inst.Op == host.SUBQ {
			mid = base + uint64(i)*host.InstBytes
		}
	}
	return mid, base + uint64(len(words))*host.InstBytes
}

// resetTrace enables the trace tier and builds a trace over each span.
func resetTrace(t *testing.T, m *Machine, spans ...[2]uint64) {
	t.Helper()
	m.EnableTraces(true)
	for _, s := range spans {
		if !m.BuildTrace(s[0], s[1]) {
			t.Fatalf("BuildTrace(%#x, %#x) failed", s[0], s[1])
		}
	}
}

// TestResetRecyclesLinesAndSteps runs program A with traces, resets, and
// runs program B on the same machine: B's registers, counters and trace
// stats must equal a fresh machine's, while B's decoded lines and trace
// steps come from what A left behind. That proves recycled lines and
// steps come back zeroed.
func TestResetRecyclesLinesAndSteps(t *testing.T) {
	const base = 0x1000
	wordsA := trProgram(t, base, resetProgA)
	wordsB := trProgram(t, base, resetProgB)
	for _, caches := range []bool{false, true} {
		// A runs generically, then again over two chained traces, so
		// both its decoded lines and its steps are dirty at Reset.
		m := newMachine(caches)
		mid, end := resetLoad(t, m, base, wordsA)
		if got := trRun(m, 1<<20); got.Stop != StopHalt {
			t.Fatalf("program A stopped with %v", got.Stop)
		}
		m.SetPC(base)
		resetTrace(t, m, [2]uint64{base, mid}, [2]uint64{mid, end})
		if got := trRun(m, 1<<20); got.Stop != StopHalt {
			t.Fatalf("program A stopped with %v", got.Stop)
		}
		if ts := m.TraceStats(); ts.ChainFollows == 0 || ts.TracedInsts == 0 {
			t.Fatalf("program A trace stats %+v: want chained traced execution", ts)
		}
		arena := &m.steps.chunks[0][0]
		lines := len(m.farLines)
		for _, l := range m.dense {
			if l != nil {
				lines++
			}
		}

		m.Reset()
		m.Mem.Reset()
		if len(m.spare) != lines || len(m.filled) != 0 {
			t.Fatalf("Reset left %d spare lines and %d filled offsets, want %d and 0", len(m.spare), len(m.filled), lines)
		}
		// B's loop body runs generically on recycled lines; its
		// back-edge runs in a trace carved from the recycled arena.
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
		for _, tr := range m.traceList {
			if &tr.steps[0] != arena {
				t.Fatal("program B's trace was not carved from the recycled arena")
			}
		}
		if len(m.spare) >= lines {
			t.Fatalf("program B took no recycled line (%d spare of %d)", len(m.spare), lines)
		}
		if err := m.CheckTraceCoherence(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStepArenaBoundedWithoutReset rewrites a traced span and rebuilds its
// trace many times with no Reset, next to a trace that stays live
// throughout. The arena must not grow with the steps it has carved, and
// the long-lived trace must still run correctly after the arena abandoned
// the chunk holding it.
func TestStepArenaBoundedWithoutReset(t *testing.T) {
	const churn, stay = 0x1000, 0x4000
	wordsA := trProgram(t, churn, resetProgA)
	wordsB := trProgram(t, stay, resetProgB)
	m := newMachine(true)
	_, stayEnd := resetLoad(t, m, stay, wordsB)
	_, end := resetLoad(t, m, churn, wordsA)
	resetTrace(t, m, [2]uint64{stay, stayEnd}, [2]uint64{churn, end})
	carved := 0
	for i := 0; i < 1000; i++ {
		m.WriteCode(churn, wordsA) // drops the churn trace
		if !m.BuildTrace(churn, end) {
			t.Fatal("rebuild failed")
		}
		carved += len(m.traceList[m.traceSeq].steps)
		if r := m.steps.retained(); r > maxStepChunk {
			t.Fatalf("after %d rebuilds (%d steps carved) the arena retains %d steps", i+1, carved, r)
		}
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
		t.Fatalf("long-lived trace ran to %+v, generic run to %+v", got, want)
	}
	if m.steps.gen == 0 || m.TraceStats().TracedInsts == 0 {
		t.Fatalf("arena generation %d, trace stats %+v: want an abandoned chunk and traced execution", m.steps.gen, m.TraceStats())
	}
}

// retained reports the steps the arena's chunks hold.
func (a *stepArena) retained() int {
	n := 0
	for _, c := range a.chunks {
		n += len(c)
	}
	return n
}

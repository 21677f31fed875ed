package machine

import (
	"testing"

	"mdabt/internal/host"
)

// formUnit is a translated unit's shape at about 400 words: groups of
// operate ops around a longword load, every other group with a fused MDA
// load sequence, each group with a conditional side exit to a BRKBT stub
// past the unit's end, so that formation at the entry covers the whole
// unit with one trace. Every third load is EH-patched (paper Fig. 5): a BR
// to an MDA stub outside the unit that returns to the next word. patch is
// a load not yet patched, and patchWord the BR that patches it.
type formUnit struct {
	words, stubs []uint32
	patch        uint64
	patchWord    uint32
}

const formBase, formStubs = 0x10000, 0x40000

func newFormUnit(tb testing.TB) formUnit {
	tb.Helper()
	const groups = 35
	var u formUnit
	var loads []uint64
	a := host.NewAsm(formBase)
	exits := make([]host.Label, groups)
	for g := range exits {
		exits[g] = a.NewLabel()
	}
	for g := 0; g < groups; g++ {
		a.OprLit(host.ADDQ, host.R1, 1, host.R1)
		a.Opr(host.XOR, host.R1, host.R8, host.R10)
		loads = append(loads, a.PC())
		a.Mem(host.LDL, host.R7, int32(8*g+2), host.R9)
		a.Opr(host.ADDQ, host.R7, host.R8, host.R8)
		if g%2 == 0 {
			trMegaLd(a, 4, int32(8*g+3), true)
		}
		a.OprLit(host.CMPLT, host.R1, uint8(g), host.R10)
		a.Br(host.BNE, host.R10, exits[g])
		a.OprLit(host.SUBQ, host.R8, 3, host.R8)
	}
	a.Brk(HaltService)
	for g := 0; g < groups; g++ {
		a.Bind(exits[g])
		a.Brk(uint32(g + 1))
	}
	words, err := a.Finish()
	if err != nil {
		tb.Fatal(err)
	}
	s := host.NewAsm(formStubs)
	for i, pc := range loads {
		stub := s.PC()
		trMegaLd(s, 4, int32(8*i+2), true)
		s.BrTo(host.BR, host.R31, pc+host.InstBytes)
		d, _ := host.BrDispFor(pc, stub)
		br := host.MustEncode(host.Inst{Op: host.BR, Ra: host.R31, Disp: d})
		if i%3 == 0 {
			words[(pc-formBase)/host.InstBytes] = br
		} else if u.patch == 0 {
			u.patch, u.patchWord = pc, br
		}
	}
	if u.stubs, err = s.Finish(); err != nil {
		tb.Fatal(err)
	}
	u.words = words
	return u
}

// form forms the trace at the unit's entry and requires it to cover the
// whole unit.
func (u formUnit) form(tb testing.TB, m *Machine) {
	if _, err := m.formTrace(formBase); err != nil {
		tb.Fatal(err)
	}
	if tr := m.traces.get(formBase).tr; tr == nil || tr.end != formBase+uint64(len(u.words))*host.InstBytes {
		tb.Fatal("formation does not cover the unit")
	}
}

// TestTraceReformAllocs runs a served request's formation cycle on a
// warmed machine: Reset, load the unit, form its trace, EH-patch one load
// and re-form. The cycle may allocate one object per trace formed, the
// trace itself: the PC lookup table, the step pool and the live-trace
// list allocate nothing once warm.
func TestTraceReformAllocs(t *testing.T) {
	u := newFormUnit(t)
	m := newMachine(true)
	cycle := func() {
		m.Reset()
		m.WriteCode(formStubs, u.stubs)
		m.WriteCode(formBase, u.words)
		u.form(t, m)
		m.Patch(u.patch, u.patchWord)
		u.form(t, m)
	}
	cycle() // warm-up: allocates the table's chunks, the pooled steps and the pages
	allocs := testing.AllocsPerRun(20, cycle)
	ts := m.TraceStats()
	if ts.Formed != 2 || ts.Invalidations != 1 {
		t.Fatalf("trace stats %+v: want 2 formed and 1 invalidated per cycle", ts)
	}
	if allocs > float64(ts.Formed) {
		t.Fatalf("a formation cycle allocated %v objects, budget %d (one trace per formation)", allocs, ts.Formed)
	}
	if err := m.CheckTraceCoherence(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkTraceFormation forms the unit's trace, EH-patches one load
// (dropping the trace) and re-forms it, then restores the load (dropping
// it again): two formations of the whole unit per iteration, with no
// Reset. It reports the cost per word formed.
func BenchmarkTraceFormation(b *testing.B) {
	u := newFormUnit(b)
	m := newMachine(true)
	m.WriteCode(formStubs, u.stubs)
	m.WriteCode(formBase, u.words)
	orig := u.words[(u.patch-formBase)/host.InstBytes]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.form(b, m)
		m.Patch(u.patch, u.patchWord)
		u.form(b, m)
		m.Patch(u.patch, orig)
	}
	words := float64(b.N) * 2 * float64(len(u.words))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/words, "ns/word")
}

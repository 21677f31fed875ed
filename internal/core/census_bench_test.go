package core

import (
	"testing"

	"mdabt/internal/mem"
	"mdabt/internal/workload"
)

// BenchmarkCensus runs the train census of every selected benchmark model
// at Figure 16's scale: each spec's MDA target divided by 40 with an
// iteration floor of 400, the scale of dbtbench's fig16 workload. That is
// the reference interpreter's share of one Figure 16 pass. Loading each
// image is not timed. It reports the time per guest instruction.
func BenchmarkCensus(b *testing.B) {
	var progs []*workload.Program
	for _, sp := range workload.SelectedSpecs() {
		sp.PaperMDAs /= 40
		sp.IterFloor = 400
		p, err := workload.Generate(sp)
		if err != nil {
			b.Fatalf("generate %s: %v", sp.Name, err)
		}
		progs = append(progs, p)
	}
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			b.StopTimer()
			m := mem.New()
			p.Load(m, workload.Train)
			b.StartTimer()
			c, err := RunCensus(m, p.Entry(), CensusBudget)
			if err != nil || !c.Halted {
				b.Fatalf("census: halted=%v err=%v", c != nil && c.Halted, err)
			}
			insts += c.Insts
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/guest-inst")
	b.ReportMetric(float64(insts)/float64(b.N), "guest-insts/op")
}

package experiments

import (
	"testing"

	"mdabt/internal/align"
	"mdabt/internal/core"
)

func TestStaticAlignStudyShape(t *testing.T) {
	r := runExp(t, "staticalign")
	t.Logf("staticalign means: Direct=%.3f Static=%.3f Dynamic=%.3f EH=%.3f DPEH=%.3f",
		r.Mean("Direct"), r.Mean("StaticProfiling"), r.Mean("DynamicProfiling"),
		r.Mean("ExceptionHandling"), r.Mean("DPEH"))
	// Direct pays the full MDA sequence at every site, so proving sites
	// aligned must buy a clearly positive mean gain.
	if g := r.Mean("Direct"); g <= 0.5 {
		t.Errorf("Direct mean gain %v%%, want clearly positive", g)
	}
	// Exception handling already executes aligned sites at native speed, so
	// the layer must not make it meaningfully slower (analysis cost only).
	if g := r.Mean("ExceptionHandling"); g < -1.5 {
		t.Errorf("ExceptionHandling mean gain %v%%, want ≥ analysis-cost noise", g)
	}
	// Aligned-biased benchmarks (Table I: near-zero MDA share) should gain
	// under Direct: every proven site drops the whole sequence.
	for _, name := range []string{"464.h264ref", "435.gromacs"} {
		if v := r.Value("Direct", name); v <= 0 {
			t.Errorf("Direct gain on aligned-biased %s = %v%%, want > 0", name, v)
		}
	}
}

func TestSiteHistogramShape(t *testing.T) {
	r := runExp(t, "sitehist")
	if len(r.Names) != 21 {
		t.Fatalf("sitehist has %d rows, want 21", len(r.Names))
	}
	for _, name := range r.Names {
		al, mis, un := r.Value("aligned", name), r.Value("misaligned", name), r.Value("unknown", name)
		if al+mis+un == 0 {
			t.Errorf("%s: no static sites classified", name)
		}
		if al == 0 {
			t.Errorf("%s: analysis proved no site aligned", name)
		}
		shares := r.Value("dynAligned%", name) + r.Value("dynMisaligned%", name) + r.Value("dynUnknown%", name)
		if shares < 99.9 || shares > 100.1 {
			t.Errorf("%s: dynamic shares sum to %v, want 100", name, shares)
		}
	}
}

// TestAnalyzeMatchesEngine pins the session-level Analyze against the
// verdicts the engine derives internally: same image, same decoder, same
// lattice — a drift here would desynchronize sitehist from what +staticalign
// actually emits.
func TestAnalyzeMatchesEngine(t *testing.T) {
	s := session()
	a, err := s.Analyze("164.gzip")
	if err != nil {
		t.Fatal(err)
	}
	var counts [3]int
	for _, site := range a.Sites() {
		counts[site.Verdict]++
	}
	run, err := s.Run("164.gzip", core.Options{Mechanism: core.Direct, StaticAlign: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := run.Stats.StaticAnalyzedInsts; got != uint64(a.Insts()) {
		t.Errorf("engine analyzed %d insts, session analysis %d", got, a.Insts())
	}
	if counts[align.Aligned] == 0 || counts[align.Unknown] == 0 {
		t.Errorf("degenerate verdict histogram %v", counts)
	}
}

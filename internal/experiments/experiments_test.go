package experiments

import (
	"strings"
	"sync"
	"testing"

	"mdabt/internal/core"
	"mdabt/internal/workload"
)

// testSession is shared across shape tests: experiments cache their runs in
// it, so the whole file costs roughly one shrunk sweep.
var (
	sessOnce sync.Once
	sess     *Session
)

func session() *Session {
	sessOnce.Do(func() {
		sess = NewSession()
		sess.Shrink = 40
		sess.IterFloor = 800
	})
	return sess
}

func runExp(t *testing.T, id string) *Result {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment sweeps are slow; skipped under -short (race CI job)")
	}
	run, ok := Lookup(id)
	if !ok {
		t.Fatalf("no experiment %q", id)
	}
	r, err := run(session())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return r
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "table2", "fig1", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "table3", "table4", "adaptive", "ablation-chaining", "ablation-ibtc", "ablation-superblocks", "traces", "staticalign", "sitehist", "speh", "aot", "faults"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	for i, e := range reg {
		if e.ID != want[i] {
			t.Errorf("registry[%d] = %s, want %s", i, e.ID, want[i])
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup(nope) succeeded")
	}
	if len(SortedIDs()) != len(want) {
		t.Error("SortedIDs wrong length")
	}
}

func TestFaultStudyShape(t *testing.T) {
	r := runExp(t, "faults")
	if len(r.Names) != 4 {
		t.Fatalf("faults has %d rows, want 4", len(r.Names))
	}
	for _, name := range []string{"straddle-store-fault", "straddle-load-unmapped"} {
		if v := r.Value("guest-faults", name); v != 1 {
			t.Errorf("%s delivered %v guest faults, want exactly 1", name, v)
		}
	}
	for _, name := range []string{"straddle-ok", "smc-rewrite"} {
		if v := r.Value("guest-faults", name); v != 0 {
			t.Errorf("%s delivered %v guest faults, want 0", name, v)
		}
	}
	if v := r.Value("smc-invals", "smc-rewrite"); v == 0 {
		t.Error("smc-rewrite triggered no code-page invalidations under dpeh")
	}
	if v := r.Value("traps(eh)", "straddle-ok"); v == 0 {
		t.Error("straddle-ok took no misalignment traps under eh")
	}
}

func TestFigure16Shape(t *testing.T) {
	r := runExp(t, "fig16")
	if len(r.Names) != 21 {
		t.Fatalf("fig16 has %d rows, want 21", len(r.Names))
	}
	ehG := r.Geomean("ExceptionHandling")
	dyG := r.Geomean("DynamicProfiling")
	stG := r.Geomean("StaticProfiling")
	diG := r.Geomean("Direct")
	if ehG != 1 {
		t.Errorf("EH geomean = %v, want 1 (baseline)", ehG)
	}
	// Headline ordering (§VI-C): EH beats dynamic, static and direct;
	// direct is worst on average.
	if dyG <= 1.02 {
		t.Errorf("DynamicProfiling geomean %v, want clearly above EH", dyG)
	}
	if diG <= dyG || diG <= stG {
		t.Errorf("Direct geomean %v not the worst (dyn %v, static %v)", diG, dyG, stG)
	}
	// The paper's outliers.
	if v := r.Value("DynamicProfiling", "483.xalancbmk"); v < 1.8 {
		t.Errorf("xalancbmk under dynamic profiling = %v, want large blowup", v)
	}
	if v := r.Value("DynamicProfiling", "410.bwaves"); v < 2.5 {
		t.Errorf("bwaves under dynamic profiling = %v, want large blowup", v)
	}
	if v := r.Value("StaticProfiling", "252.eon"); v < 1.4 {
		t.Errorf("eon under static profiling = %v, want large blowup", v)
	}
	if v := r.Value("StaticProfiling", "450.soplex"); v < 1.4 {
		t.Errorf("soplex under static profiling = %v, want large blowup", v)
	}
	// Benchmarks both profilers catch stay near EH under static profiling.
	if v := r.Value("StaticProfiling", "188.ammp"); v > 1.2 {
		t.Errorf("ammp under static profiling = %v, want near EH", v)
	}
}

func TestDPEHBeatsExceptionHandlingOverall(t *testing.T) {
	r := runExp(t, "fig16")
	if g := r.Geomean("DPEH"); g >= 1.01 {
		t.Errorf("DPEH geomean %v, want ≤ EH (paper: 4.5%% better)", g)
	}
}

func TestFigure10Shape(t *testing.T) {
	r := runExp(t, "fig10")
	// perlbench needs a threshold greater than 10 (paper §VI-A).
	if v := r.Value("TH=50", "400.perlbench"); v >= 0.97 {
		t.Errorf("perlbench TH=50 = %v, want well below TH=10", v)
	}
	// Very high thresholds pay for profiling overhead.
	if r.Geomean("TH=5000") <= r.Geomean("TH=50") {
		t.Errorf("TH=5000 geomean %v not above TH=50 %v", r.Geomean("TH=5000"), r.Geomean("TH=50"))
	}
	if r.Geomean("TH=10") != 1 {
		t.Error("fig10 baseline must be TH=10")
	}
}

func TestFigure11Shape(t *testing.T) {
	r := runExp(t, "fig11")
	// Paper: marginal overall effect (~+1.5%); at our scale it is ~0. The
	// shape claim we check: no catastrophic regression and the mechanism
	// actually runs (gains bounded).
	for i, name := range r.Names {
		if g := r.Series["gain%"][i]; g < -35 || g > 25 {
			t.Errorf("%s rearrangement gain %v%% out of plausible band", name, g)
		}
	}
}

func TestFigure12Shape(t *testing.T) {
	r := runExp(t, "fig12")
	mean := r.Mean("gain%")
	if mean < -1 {
		t.Errorf("DPEH mean gain %v%%, want ≥ ~0 (paper ~+2%%)", mean)
	}
	// At least a few benchmarks gain noticeably.
	big := 0
	for _, g := range r.Series["gain%"] {
		if g > 2 {
			big++
		}
	}
	if big < 2 {
		t.Errorf("only %d benchmarks gain >2%% from DPEH, want several", big)
	}
}

func TestFigure13Shape(t *testing.T) {
	r := runExp(t, "fig13")
	// Paper: "the benefit of retranslation is not substantial" — some up,
	// some down, small overall.
	if m := r.Mean("gain%"); m < -3 || m > 6 {
		t.Errorf("retranslation mean gain %v%%, want small", m)
	}
}

func TestFigure14Shape(t *testing.T) {
	r := runExp(t, "fig14")
	if m := r.Mean("gain%"); m < -1.5 || m > 4 {
		t.Errorf("multi-version mean gain %v%%, want marginal (paper +1.1%%)", m)
	}
	winners := 0
	for _, g := range r.Series["gain%"] {
		if g > 0.5 {
			winners++
		}
	}
	if winners == 0 {
		t.Error("multi-version never wins; paper shows up to +4.7%")
	}
}

func TestFigure15Shape(t *testing.T) {
	r := runExp(t, "fig15")
	always := r.Mean("ratio=100%")
	mostly := r.Mean("ratio>50%")
	rare := r.Mean("ratio<50%")
	if always < 25 || always+mostly < 55 {
		t.Errorf("misaligned-dominated share %v%% (+%v%% mostly), want dominant", always, mostly)
	}
	if rare > 25 {
		t.Errorf("frequently-aligned share %v%%, want small (paper ~4.5%%)", rare)
	}
	for i, name := range r.Names {
		sum := r.Series["ratio<50%"][i] + r.Series["ratio=50%"][i] +
			r.Series["ratio>50%"][i] + r.Series["ratio=100%"][i]
		if sum < 99.5 || sum > 100.5 {
			t.Errorf("%s ratio classes sum to %v%%, want 100", name, sum)
		}
	}
}

func TestTableIShape(t *testing.T) {
	r := runExp(t, "table1")
	if len(r.Names) != 54 {
		t.Fatalf("table1 has %d rows, want 54", len(r.Names))
	}
	// High-MDA benchmarks must measure high ratios; near-zero ones near zero.
	if v := r.Value("Ratio%", "188.ammp"); v < 10 {
		t.Errorf("ammp ratio %v%%, want large (paper 43%%)", v)
	}
	if v := r.Value("Ratio%", "458.sjeng"); v > 0.1 {
		t.Errorf("sjeng ratio %v%%, want ≈0", v)
	}
	if v := r.Value("NMI", "433.milc"); v < 50 {
		t.Errorf("milc NMI %v, want large static site count", v)
	}
	// The paper columns must be carried through for comparison.
	if v := r.Value("paperRatio%", "179.art"); v < 38 || v > 39 {
		t.Errorf("art paper ratio %v, want 38.33", v)
	}
}

func TestTableIIIShape(t *testing.T) {
	r := runExp(t, "table3")
	// Late-onset benchmarks leave many undetected MDAs; fully-profiled
	// ones almost none.
	if v := r.Value("undetected", "483.xalancbmk"); v < 1000 {
		t.Errorf("xalancbmk undetected = %v, want large", v)
	}
	if v := r.Value("undetected", "410.bwaves"); v < 1000 {
		t.Errorf("bwaves undetected = %v, want large", v)
	}
	if v := r.Value("undetected", "188.ammp"); v > 50 {
		t.Errorf("ammp undetected = %v, want ≈0 (paper: 0)", v)
	}
	if v := r.Value("paper", "410.bwaves"); v != 4.15e10 {
		t.Errorf("bwaves paper column = %v, want 4.15e10", v)
	}
}

func TestTableIVShape(t *testing.T) {
	r := runExp(t, "table4")
	if v := r.Value("remaining", "252.eon"); v < 500 {
		t.Errorf("eon remaining = %v, want large", v)
	}
	if v := r.Value("remaining", "450.soplex"); v < 500 {
		t.Errorf("soplex remaining = %v, want large", v)
	}
	if v := r.Value("remaining", "453.povray"); v > 50 {
		t.Errorf("povray remaining = %v, want ≈0 (paper: 0)", v)
	}
	if v := r.Value("paper", "252.eon"); v != 3.22e9 {
		t.Errorf("eon paper column = %v, want 3.22e9", v)
	}
}

func TestFigure1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("native sweeps are slow")
	}
	r := runExp(t, "fig1")
	// The paper's conclusion: no significant average benefit from
	// alignment-optimization flags (~1-2%).
	for _, series := range []string{"pathscale%", "icc%"} {
		m := r.Mean(series)
		if m < -2 || m > 8 {
			t.Errorf("%s mean speedup %v%%, want small", series, m)
		}
	}
	// High-MDA benchmarks gain the most from alignment.
	if r.Value("icc%", "188.ammp") <= r.Value("icc%", "464.h264ref") {
		t.Error("ammp (43% MDA) should gain more from alignment than h264ref (0.01%)")
	}
}

func TestResultHelpers(t *testing.T) {
	r := newResult("x", "t", []string{"a", "b"}, "s")
	r.set("s", "a", 2)
	r.set("s", "b", 8)
	if r.Value("s", "a") != 2 {
		t.Error("Value broken")
	}
	if g := r.Geomean("s"); g < 3.9 || g > 4.1 {
		t.Errorf("Geomean = %v, want 4", g)
	}
	if m := r.Mean("s"); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	out := r.Render()
	if !strings.Contains(out, "X — t") || !strings.Contains(out, "geomean") {
		t.Errorf("Render output missing pieces:\n%s", out)
	}
	defer func() {
		if recover() == nil {
			t.Error("Value(unknown row) did not panic")
		}
	}()
	r.Value("s", "zzz")
}

// TestSessionRunCaches: runs are cached by options fingerprint alone, and
// every run is on the trace tier. A zero knob and its explicit default
// share one entry, and so do a run that asks for Traces and one that does
// not: the fingerprint ignores the tier.
func TestSessionRunCaches(t *testing.T) {
	s := NewSession()
	s.Shrink = 100
	s.IterFloor = 600
	for _, c := range []struct {
		label   string
		opt     core.Options
		entries int // len(s.runs) after the run
	}{
		{"dynprof", core.Options{Mechanism: core.DynamicProfile}, 1},
		{"dynprof-th50", core.Options{Mechanism: core.DynamicProfile, HeatThreshold: 50}, 1},
		{"dpeh", core.Options{Mechanism: core.DPEH}, 2},
		{"dpeh-traced", core.Options{Mechanism: core.DPEH, Traces: true}, 2},
		{"dpeh-nochain", core.Options{Mechanism: core.DPEH, NoChain: true}, 3},
	} {
		r1, err := s.Run("470.lbm", c.opt)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		if n := len(s.runs); n != c.entries {
			t.Errorf("%s: %d cached runs, want %d", c.label, n, c.entries)
		}
		if r1.Traces.TracedInsts == 0 {
			t.Errorf("%s: run not traced", c.label)
		}
		r2, err := s.Run("470.lbm", c.opt)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		if r1 != r2 {
			t.Errorf("%s: cached run differs", c.label)
		}
	}
	if _, err := s.Run("no-such-benchmark", core.Options{Mechanism: core.ExceptionHandling}); err == nil {
		t.Error("unknown benchmark: want error")
	}
	if _, err := s.Program("470.lbm", "weird"); err == nil {
		t.Error("unknown variant: want error")
	}
}

func TestAdaptiveStudyShape(t *testing.T) {
	r := runExp(t, "adaptive")
	// The paper's §IV-D claim: the truly-adaptive method is not worth
	// pursuing — on the stable SPEC-like workloads its instrumentation
	// costs at least as much as multi-version checking.
	if am, mm := r.Mean("adaptive%"), r.Mean("multiversion%"); am > mm+0.5 {
		t.Errorf("adaptive mean gain %v%% beats multi-version %v%%; paper predicts the opposite", am, mm)
	}
}

func TestChainingAblationShape(t *testing.T) {
	r := runExp(t, "ablation-chaining")
	if g := r.Geomean("nochain"); g <= 1.005 {
		t.Errorf("no-chaining geomean %v, want a visible slowdown", g)
	}
}

func TestIBTCAblationShape(t *testing.T) {
	r := runExp(t, "ablation-ibtc")
	// The shared-library (call-heavy) benchmarks must gain; nothing should
	// regress materially (the probe replaces a strictly costlier path).
	if g := r.Value("gain%", "164.gzip"); g <= 0 {
		t.Errorf("gzip IBTC gain %v%%, want positive (one library call per iteration)", g)
	}
	for i, name := range r.Names {
		if g := r.Series["gain%"][i]; g < -2 {
			t.Errorf("%s IBTC gain %v%%, regression", name, g)
		}
	}
}

func TestResultCSV(t *testing.T) {
	r := newResult("x", "t", []string{"a", "b"}, "s1", "s2")
	r.set("s1", "a", 1.5)
	r.set("s2", "b", 2)
	csv := r.CSV()
	want := "benchmark,s1,s2\na,1.5,0\nb,0,2\n"
	if csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
}

func TestSuperblockAblationShape(t *testing.T) {
	r := runExp(t, "ablation-superblocks")
	if r.Mean("traces") == 0 {
		t.Fatal("no traces formed on any benchmark")
	}
	for i, name := range r.Names {
		if g := r.Series["gain%"][i]; g < -5 {
			t.Errorf("%s superblock gain %v%%, heavy regression", name, g)
		}
	}
}

func TestTableIIStatic(t *testing.T) {
	r := runExp(t, "table2")
	if len(r.Names) != 5 || len(r.Notes) != 5 {
		t.Fatalf("table2 rows/notes = %d/%d, want 5/5", len(r.Names), len(r.Notes))
	}
	out := r.Render()
	for _, frag := range []string{"Direct", "DPEH", "retranslation", "threshold"} {
		if !strings.Contains(out, frag) {
			t.Errorf("table2 render lacks %q", frag)
		}
	}
}

func TestFigure10PerlbenchOrdering(t *testing.T) {
	r := runExp(t, "fig10")
	// perlbench's own minimum lies at TH=50/500, not at the extremes.
	p10 := r.Value("TH=10", "400.perlbench")
	p50 := r.Value("TH=50", "400.perlbench")
	p5000 := r.Value("TH=5000", "400.perlbench")
	if !(p50 < p10 && p50 < p5000) {
		t.Errorf("perlbench thresholds: 10=%v 50=%v 5000=%v, want a TH=50 minimum", p10, p50, p5000)
	}
}

func TestTableIIPresentInRegistryOrder(t *testing.T) {
	reg := Registry()
	if reg[1].ID != "table2" {
		t.Fatalf("registry[1] = %s, want table2", reg[1].ID)
	}
}

func TestCensusCaching(t *testing.T) {
	s := session()
	c1, err := s.Census("470.lbm", workload.Ref)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s.Census("470.lbm", workload.Ref)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Error("census not cached (pointer differs)")
	}
}

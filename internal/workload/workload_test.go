package workload

import (
	"errors"
	"strings"
	"testing"

	"mdabt/internal/core"
	"mdabt/internal/guest"
	"mdabt/internal/machine"
	"mdabt/internal/mem"
)

func census(t *testing.T, p *Program, in Input) *core.Census {
	t.Helper()
	m := mem.New()
	p.Load(m, in)
	c, err := core.RunCensus(m, p.Entry(), 100_000_000)
	if err != nil {
		t.Fatalf("%s census: %v", p.Spec.Name, err)
	}
	if !c.Halted {
		t.Fatalf("%s census did not halt", p.Spec.Name)
	}
	return c
}

func TestSpecsTableComplete(t *testing.T) {
	specs := Specs()
	if len(specs) != 54 {
		t.Fatalf("got %d specs, want 54 (Table I)", len(specs))
	}
	sel := SelectedSpecs()
	if len(sel) != 21 {
		t.Fatalf("got %d selected, want 21 (paper §V-C)", len(sel))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.Name] {
			t.Errorf("duplicate spec %s", s.Name)
		}
		seen[s.Name] = true
		if s.PaperNMI <= 0 {
			t.Errorf("%s: missing NMI", s.Name)
		}
	}
	if _, ok := SpecByName("410.bwaves"); !ok {
		t.Error("SpecByName(410.bwaves) failed")
	}
	if _, ok := SpecByName("nonesuch"); ok {
		t.Error("SpecByName(nonesuch) succeeded")
	}
}

func TestGenerateAllSpecs(t *testing.T) {
	for _, spec := range Specs() {
		if _, err := Generate(spec); err != nil {
			t.Errorf("Generate(%s): %v", spec.Name, err)
		}
	}
}

// shrink reduces a spec's run length for fast unit tests by regenerating
// with a lighter paper-MDA target.
func shrink(t *testing.T, name string) *Program {
	t.Helper()
	spec, ok := SpecByName(name)
	if !ok {
		t.Fatalf("no spec %s", name)
	}
	spec.PaperMDAs /= 50
	p, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCensusRatioTracksSpec(t *testing.T) {
	// For benchmarks whose filler volume was not budget-clamped, the
	// census MDA ratio should land near the paper's Table I ratio.
	for _, name := range []string{"188.ammp", "179.art", "410.bwaves", "471.omnetpp"} {
		p := shrink(t, name)
		c := census(t, p, Ref)
		want := p.Spec.PaperRatio
		got := c.Ratio()
		if got < want/3 || got > want*3 {
			t.Errorf("%s: census ratio %.4f, want within 3x of %.4f", name, got, want)
		}
		if c.NMI() == 0 {
			t.Errorf("%s: no MDA sites seen", name)
		}
	}
}

func TestTrainRefDiverge(t *testing.T) {
	// 252.eon: 38% of ref MDA volume comes from sites aligned under train.
	p := shrink(t, "252.eon")
	train := census(t, p, Train)
	ref := census(t, p, Ref)
	if train.NMI() >= ref.NMI() {
		t.Errorf("train NMI %d not below ref NMI %d", train.NMI(), ref.NMI())
	}
	gap := 1 - float64(train.MDAs)/float64(ref.MDAs)
	spec := p.Spec
	if gap < spec.TrainMissFrac/3 || gap > spec.TrainMissFrac*3 {
		t.Errorf("train/ref MDA gap %.3f not near the dialed TrainMissFrac %.3f", gap, spec.TrainMissFrac)
	}
	// A no-train-divergence benchmark stays stable across inputs.
	p2 := shrink(t, "188.ammp")
	tr2, rf2 := census(t, p2, Train), census(t, p2, Ref)
	if tr2.NMI() != rf2.NMI() {
		t.Errorf("ammp NMI differs across inputs: %d vs %d", tr2.NMI(), rf2.NMI())
	}
}

func TestRatioClassesMatchSpec(t *testing.T) {
	// omnetpp has an enlarged sometimes-aligned population (Fig. 15).
	p := shrink(t, "471.omnetpp")
	c := census(t, p, Ref)
	lt, eq, gt, always := c.RatioClasses()
	if always == 0 || gt == 0 || lt == 0 || eq == 0 {
		t.Errorf("expected all four ratio classes populated, got %d/%d/%d/%d", lt, eq, gt, always)
	}
	total := lt + eq + gt + always
	if frac := float64(always) / float64(total); frac < 0.3 {
		t.Errorf("always-misaligned fraction %.2f, want dominant", frac)
	}
}

func TestSharedLibraryMDAs(t *testing.T) {
	// gzip places ~90% of its MDA sites behind the shared-library call.
	p := shrink(t, "164.gzip")
	if p.Lib == nil || p.LibGroups == 0 {
		t.Fatal("gzip workload has no library image")
	}
	c := census(t, p, Ref)
	var libMDAs, mainMDAs uint64
	for _, s := range c.Sites {
		if s.MDA == 0 {
			continue
		}
		if s.PC >= guest.SharedLib {
			libMDAs += s.MDA
		} else {
			mainMDAs += s.MDA
		}
	}
	if libMDAs == 0 {
		t.Fatal("no MDAs from the library region")
	}
	if frac := float64(libMDAs) / float64(libMDAs+mainMDAs); frac < 0.7 {
		t.Errorf("library MDA fraction %.2f, want >0.7 (paper §II: >90%%)", frac)
	}
}

func TestLateOnsetInvisibleToProfiling(t *testing.T) {
	// 483.xalancbmk's MDA volume appears after the profiling phase: the
	// dynamic-profiling mechanism keeps trapping (Table III behaviour).
	p := shrink(t, "483.xalancbmk")
	m := mem.New()
	p.Load(m, Ref)
	mach := machine.New(m, machine.DefaultParams())
	opt := core.DefaultOptions(core.DynamicProfile)
	e := core.NewEngine(m, mach, opt)
	if err := e.Run(p.Entry(), 2_000_000_000); err != nil {
		t.Fatal(err)
	}
	traps := mach.Counters().MisalignTraps
	c := census(t, p, Ref)
	if float64(traps) < 0.5*float64(c.MDAs)*p.Spec.LateFrac {
		t.Errorf("traps %d too low for late fraction %.2f of %d MDAs",
			traps, p.Spec.LateFrac, c.MDAs)
	}
}

func TestWorkloadCosim(t *testing.T) {
	// A generated benchmark must behave identically under the reference
	// interpreter and the DBT (EH and DPEH configurations).
	p := shrink(t, "450.soplex")
	ref := census(t, p, Ref)
	for _, mech := range []core.Mechanism{core.ExceptionHandling, core.DPEH} {
		m := mem.New()
		p.Load(m, Ref)
		mach := machine.New(m, machine.DefaultParams())
		e := core.NewEngine(m, mach, core.DefaultOptions(mech))
		if err := e.Run(p.Entry(), 2_000_000_000); err != nil {
			t.Fatalf("%v: %v", mech, err)
		}
		got := e.FinalCPU()
		for r := guest.Reg(0); r < guest.NumRegs; r++ {
			if got.R[r] != ref.FinalCPU.R[r] {
				t.Errorf("%v: %v = %#x, want %#x", mech, r, got.R[r], ref.FinalCPU.R[r])
			}
		}
	}
}

func TestInputString(t *testing.T) {
	if Train.String() != "train" || Ref.String() != "ref" {
		t.Error("Input.String wrong")
	}
}

// TestBenchStoreKey pins the store identity byte for byte: existing
// stores were written under it.
func TestBenchStoreKey(t *testing.T) {
	if got := BenchStoreKey("429.mcf", Ref); got != "bench-429.mcf-ref" {
		t.Errorf("ref key %q", got)
	}
	if got := BenchStoreKey("429.mcf", Train); got != "bench-429.mcf-train" {
		t.Errorf("train key %q", got)
	}
}

func TestFaultProgramByName(t *testing.T) {
	progs, err := FaultPrograms()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range progs {
		got, err := FaultProgramByName(want.Name)
		if err != nil || got.Name != want.Name {
			t.Errorf("FaultProgramByName(%q) = %v, %v", want.Name, got, err)
		}
	}
	_, err = FaultProgramByName("nope")
	if !errors.Is(err, ErrUnknownFaultProgram) {
		t.Fatalf("unknown name: error %v, want ErrUnknownFaultProgram", err)
	}
	for _, p := range progs {
		if !strings.Contains(err.Error(), p.Name) {
			t.Errorf("error %q does not list %q", err, p.Name)
		}
	}
}

func TestInputByName(t *testing.T) {
	cases := []struct {
		name string
		want Input
		ok   bool
	}{
		{"train", Train, true},
		{"ref", Ref, true},
		{"", 0, false},
		{"trian", 0, false},
		{"Ref", 0, false},
	}
	for _, c := range cases {
		got, err := InputByName(c.name)
		if c.ok {
			if err != nil || got != c.want {
				t.Errorf("InputByName(%q) = %v, %v; want %v", c.name, got, err, c.want)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "have train, ref") {
			t.Errorf("InputByName(%q) error = %v, want one naming train and ref", c.name, err)
		}
	}
}

func TestGateForRareBenchmarks(t *testing.T) {
	p, err := Generate(mustSpec(t, "458.sjeng")) // ratio 0.00%
	if err != nil {
		t.Fatal(err)
	}
	if p.Gate != 64 {
		t.Errorf("sjeng gate = %d, want 64", p.Gate)
	}
	c := census(t, p, Ref)
	if c.Ratio() > 0.001 {
		t.Errorf("sjeng census ratio %.5f, want ≈0", c.Ratio())
	}
}

func mustSpec(t *testing.T, name string) Spec {
	t.Helper()
	s, ok := SpecByName(name)
	if !ok {
		t.Fatalf("no spec %s", name)
	}
	return s
}

func TestGenerateDeterministic(t *testing.T) {
	spec := mustSpec(t, "450.soplex")
	p1, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if string(p1.Main) != string(p2.Main) {
		t.Error("Main image differs between generations")
	}
	if string(p1.trainData) != string(p2.trainData) || string(p1.refData) != string(p2.refData) {
		t.Error("data images differ between generations")
	}
	if p1.Iterations != p2.Iterations || p1.FillerReps != p2.FillerReps {
		t.Error("derived parameters differ")
	}
}

func TestAlignedVariantHasNoMDAs(t *testing.T) {
	for _, name := range []string{"188.ammp", "164.gzip", "483.xalancbmk"} {
		spec := mustSpec(t, name)
		spec.PaperMDAs /= 100
		p, err := GenerateAligned(spec, 96)
		if err != nil {
			t.Fatal(err)
		}
		c := census(t, p, Ref)
		if c.MDAs != 0 {
			t.Errorf("%s aligned variant produced %d MDAs", name, c.MDAs)
		}
		// Same instruction stream shape as the default variant: equal
		// iteration/filler parameters mean comparable work.
		d, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		if p.Iterations != d.Iterations || p.FillerReps != d.FillerReps {
			t.Errorf("%s aligned variant parameters diverge: %d/%d vs %d/%d",
				name, p.Iterations, p.FillerReps, d.Iterations, d.FillerReps)
		}
		if len(p.Main) != len(d.Main) {
			t.Errorf("%s aligned variant code size %d != default %d", name, len(p.Main), len(d.Main))
		}
	}
}

func TestEarlyOnsetSeparatesThresholds(t *testing.T) {
	// 400.perlbench's early-onset sites misalign from iteration ~30: a
	// TH=10 dynamic profile misses them, TH=50 catches them.
	spec := mustSpec(t, "400.perlbench")
	spec.PaperMDAs /= 50
	p, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	traps := func(th uint64) uint64 {
		m := mem.New()
		p.Load(m, Ref)
		mach := machine.New(m, machine.DefaultParams())
		opt := core.DefaultOptions(core.DynamicProfile)
		opt.HeatThreshold = th
		e := core.NewEngine(m, mach, opt)
		if err := e.Run(p.Entry(), 4_000_000_000); err != nil {
			t.Fatal(err)
		}
		return mach.Counters().MisalignTraps
	}
	t10, t50 := traps(10), traps(50)
	if t50*5 > t10 {
		t.Errorf("TH=50 traps %d not well below TH=10 traps %d", t50, t10)
	}
}

func TestBenchmarkSuiteLabels(t *testing.T) {
	counts := map[Suite]int{}
	for _, s := range Specs() {
		counts[s.Suite]++
	}
	if counts[Int2000] != 12 || counts[Fp2000] != 14 || counts[Int2006] != 12 || counts[Fp2006] != 16 {
		t.Fatalf("suite sizes %v, want 12/14/12/16 (Table I)", counts)
	}
}

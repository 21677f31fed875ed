package experiments

import (
	"testing"

	"mdabt/internal/core"
	"mdabt/internal/workload"
)

func TestSPEHStudyShape(t *testing.T) {
	r := runExp(t, "speh")
	if len(r.Names) != 21 {
		t.Fatalf("speh has %d rows, want 21", len(r.Names))
	}
	if g := r.Geomean("ExceptionHandling"); g != 1 {
		t.Errorf("EH normalized geomean = %v, want exactly 1", g)
	}
	// SPEH keeps static profiling's eager sequences and patches whatever the
	// train run missed, so it must not lose to the static parent overall and
	// must retire (nearly) all of its residual traps.
	spG, stG := r.Geomean("SPEH"), r.Geomean("StaticProfiling")
	if spG > stG*1.001 {
		t.Errorf("SPEH geomean %.4f worse than StaticProfiling %.4f", spG, stG)
	}
	spTraps, stTraps := r.Mean("spehTraps"), r.Mean("staticTraps")
	if stTraps > 0 && spTraps >= stTraps {
		t.Errorf("SPEH mean traps %.0f not below StaticProfiling's %.0f", spTraps, stTraps)
	}
}

// TestRegistryMechanismSmoke is the CI gate behind the mechanism table:
// every row — including ones added after this test was written — must
// drive a benchmark end to end through the experiment session. A new row
// that trips Validate, panics in the engine, or emits unlintable code
// fails here before any experiment depends on it. Each session run is traced, and its counters must equal a
// fresh engine run of the same options outside the session's cache.
func TestRegistryMechanismSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweeps are slow; skipped under -short (race CI job)")
	}
	name := workload.SelectedSpecs()[0].Name
	for _, mech := range core.Mechanisms() {
		mech := mech
		t.Run(mech.String(), func(t *testing.T) {
			t.Parallel()
			opt := core.Options{Mechanism: mech}
			res, err := session().Run(name, opt)
			if err != nil {
				t.Fatalf("%s under %s: %v", name, mech, err)
			}
			// The aot tier counts offline pre-translations separately, so a
			// fully covered AOT run legitimately has zero dynamic ones.
			if res.Cycles() == 0 || res.Stats.BlocksTranslated+res.Stats.AOTBlocks == 0 {
				t.Errorf("%s under %s: degenerate run %+v", name, mech, res.Counters)
			}
			// Session runs are traced, and the cache must return what a
			// fresh run computes.
			if res.Traces.TracedInsts == 0 {
				t.Errorf("%s under %s: session run not traced", name, mech)
			}
			plain, err := session().execute(name, opt)
			if err != nil {
				t.Fatalf("%s under %s, fresh run: %v", name, mech, err)
			}
			if res.Counters != plain.Counters {
				t.Errorf("%s under %s: session counters %+v, fresh run %+v", name, mech, res.Counters, plain.Counters)
			}
		})
	}
}

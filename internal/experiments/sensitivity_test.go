package experiments

import (
	"testing"

	"mdabt/internal/core"
	"mdabt/internal/machine"
)

// TestCostModelSensitivity checks the robustness claim from DESIGN.md §5:
// the paper-shape conclusions (exception handling beats dynamic profiling
// on late-onset benchmarks; the direct method is the slowest; DPEH does
// not lose to exception handling) survive ±2x changes to the key cost
// parameters.
func TestCostModelSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("sensitivity sweep is slow")
	}
	bench := []string{"483.xalancbmk", "410.bwaves", "188.ammp", "252.eon"}
	variants := []struct {
		name  string
		tweak func(p *machine.Params)
	}{
		{"half-trap", func(p *machine.Params) { p.MisalignTrapCycles = 500 }},
		{"double-trap", func(p *machine.Params) { p.MisalignTrapCycles = 2000 }},
		{"slow-loads", func(p *machine.Params) { p.LoadExtraCycles = 4 }},
		{"in-order", func(p *machine.Params) { p.DualIssueALU = false }},
		{"no-caches", func(p *machine.Params) { p.UseCaches = false }},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			params := machine.DefaultParams()
			v.tweak(&params)
			s := NewSession()
			s.Shrink = 100
			s.IterFloor = 600
			s.MachineParams = &params
			cycles := func(name string, cfg core.Options) float64 {
				r, err := s.Run(name, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return float64(r.Cycles())
			}
			for _, name := range bench {
				eh := cycles(name, core.Options{Mechanism: core.ExceptionHandling})
				dyn := cycles(name, core.Options{Mechanism: core.DynamicProfile, HeatThreshold: 50})
				dpeh := cycles(name, core.Options{Mechanism: core.DPEH})
				direct := cycles(name, core.Options{Mechanism: core.Direct})
				// Direct loses wherever aligned traffic dominates; on
				// extreme-MDA benchmarks (188.ammp, 43% misaligned) its
				// always-inline sequences can legitimately win, so the
				// assertion applies to the moderate-MDA benchmarks.
				if name != "188.ammp" && direct <= eh {
					t.Errorf("%s/%s: direct (%.0f) not slower than EH (%.0f)", v.name, name, direct, eh)
				}
				if dpeh > eh*1.10 {
					t.Errorf("%s/%s: DPEH (%.0f) loses >10%% to EH (%.0f)", v.name, name, dpeh, eh)
				}
				// The late-onset benchmarks keep punishing dynamic profiling.
				if name == "483.xalancbmk" || name == "410.bwaves" {
					if dyn <= eh {
						t.Errorf("%s/%s: dynamic profiling (%.0f) not slower than EH (%.0f)", v.name, name, dyn, eh)
					}
				}
			}
		})
	}
}

// TestSessionBudgetError surfaces run budget exhaustion as an error rather
// than silently truncated results.
func TestSessionBudgetError(t *testing.T) {
	s := NewSession()
	s.Shrink = 100
	s.IterFloor = 600
	s.Budget = 1000
	if _, err := s.Run("188.ammp", core.Options{Mechanism: core.ExceptionHandling}); err == nil {
		t.Fatal("tiny budget: want error")
	} else if want := "budget"; !containsFold(err.Error(), want) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
}

func containsFold(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		match := true
		for j := 0; j < len(sub); j++ {
			a, b := s[i+j], sub[j]
			if a >= 'A' && a <= 'Z' {
				a += 'a' - 'A'
			}
			if b >= 'A' && b <= 'Z' {
				b += 'a' - 'A'
			}
			if a != b {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

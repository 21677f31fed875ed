package experiments

import "mdabt/internal/core"

// SPEHStudy measures the SPEH hybrid (static profiling for sites the train
// run caught, exception handling with patching for the leftovers) against
// both parents: runtime normalized to exception handling, plus the residual
// misalignment traps each mechanism still pays on the ref input. SPEH is
// one row of the mechanism table (marked or trap-known sites get the
// sequence; traps patch), so its row here shows a composite mechanism
// needs no core changes.
func SPEHStudy(s *Session) (*Result, error) {
	names := selectedNames()
	order := []string{"StaticProfiling", "SPEH", "ExceptionHandling"}
	cfgs := map[string]core.Options{
		"StaticProfiling":   {Mechanism: core.StaticProfile},
		"SPEH":              {Mechanism: core.SPEH},
		"ExceptionHandling": {Mechanism: core.ExceptionHandling},
	}
	r := newResult("speh", "Extension: SPEH hybrid (static profile + exception handling) vs its parents",
		names, "StaticProfiling", "SPEH", "ExceptionHandling", "staticTraps", "spehTraps")
	err := s.forEach(names, func(name string) error {
		base, err := s.Run(name, cfgs["ExceptionHandling"])
		if err != nil {
			return err
		}
		for _, series := range order {
			run, err := s.Run(name, cfgs[series])
			if err != nil {
				return err
			}
			r.set(series, name, float64(run.Cycles())/float64(base.Cycles()))
			switch series {
			case "StaticProfiling":
				r.set("staticTraps", name, float64(run.Counters.MisalignTraps))
			case "SPEH":
				r.set("spehTraps", name, float64(run.Counters.MisalignTraps))
			}
		}
		return nil
	})
	r.Notes = append(r.Notes,
		"train/ref input drift is what static profiling pays for: every missed site traps on each execution (staticTraps)",
		"SPEH patches each missed site after one trap, so spehTraps stays near the static site count and runtime tracks the better parent")
	return r, err
}

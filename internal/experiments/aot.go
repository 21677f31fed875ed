package experiments

import "mdabt/internal/core"

// AOTStudy measures the ahead-of-time tier (whole-binary CFG recovery +
// offline pre-translation, DESIGN.md §13) against the dynamic mechanisms
// it competes with: runtime normalized to exception handling, plus the
// tier's coverage evidence — blocks pre-translated offline and dynamic
// (JIT) translations it still had to perform. With complete CFG recovery
// the fallback column is zero: the simulated program never pays a
// translation, an interpretation phase, or an analysis charge at run time,
// which is exactly the cold-start win the serving layer adopts images for.
func AOTStudy(s *Session) (*Result, error) {
	names := selectedNames()
	order := []string{"Direct", "ExceptionHandling", "SPEH", "AOT"}
	cfgs := map[string]core.Options{
		"Direct":            {Mechanism: core.Direct},
		"ExceptionHandling": {Mechanism: core.ExceptionHandling},
		"SPEH":              {Mechanism: core.SPEH},
		"AOT":               {Mechanism: core.AOT},
	}
	r := newResult("aot", "Extension: ahead-of-time whole-binary pre-translation vs dynamic mechanisms",
		names, "Direct", "ExceptionHandling", "SPEH", "AOT", "aotBlocks", "jitFallbacks")
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
			if series == "AOT" {
				r.set("aotBlocks", name, float64(run.Stats.AOTBlocks))
				r.set("jitFallbacks", name, float64(run.Stats.AOTFallbacks))
			}
		}
		return nil
	})
	r.Notes = append(r.Notes,
		"AOT pays no run-time translation, profiling, or analysis: all reachable blocks are pre-translated offline from the recovered CFG (aotBlocks)",
		"jitFallbacks counts dynamic translations AOT still performed (indirect-target misses, SMC invalidations); zero means the recovery covered the binary",
		"sites the align lattice cannot decide stay plain with a trap-and-patch backstop, so AOT tracks EH's trap profile, minus EH's translation overhead")
	return r, err
}

package experiments

import (
	"fmt"

	"mdabt/internal/core"
	"mdabt/internal/guest"
	"mdabt/internal/machine"
	"mdabt/internal/mem"
	"mdabt/internal/workload"
)

// FaultStudy is an extension beyond the paper's artifacts: the guest-fault
// workload set (page-straddling MDAs against protected and unmapped pages,
// plus the self-modifying rewriter) run under three mechanisms. Runtime
// columns are normalized to exception handling; the remaining columns count
// delivered guest faults, misalignment traps, and code-page invalidations.
// Every run is gated on fault precision: the outcome, the faulting guest
// PC, and the fault record must match the interpreter reference exactly,
// or the experiment fails — the table doubles as a soundness sweep.
func FaultStudy(s *Session) (*Result, error) {
	progs, err := workload.FaultPrograms()
	if err != nil {
		return nil, err
	}
	names := make([]string, len(progs))
	byName := make(map[string]*workload.FaultProgram, len(progs))
	for i, p := range progs {
		names[i] = p.Name
		byName[p.Name] = p
	}
	r := newResult("faults", "Extension: guest-fault workloads — runtime and fault delivery per mechanism",
		names, "direct", "eh", "dpeh", "guest-faults", "traps(eh)", "smc-invals")

	dpeh := core.DefaultOptions(core.DPEH)
	dpeh.HeatThreshold = 3 // translate the rewritten stub well before the flip
	mechs := []struct {
		series string
		opt    core.Options
	}{
		{"direct", core.DefaultOptions(core.Direct)},
		{"eh", core.DefaultOptions(core.ExceptionHandling)},
		{"dpeh", dpeh},
	}

	err = s.forEach(names, func(name string) error {
		p := byName[name]
		// Interpreter reference: the precise fault (or clean halt) every
		// mechanism must reproduce.
		m := mem.New()
		p.Load(m)
		c, cerr := core.RunCensus(m, p.Entry(), core.CensusBudget)
		var refGF *guest.Fault
		if p.ExpectFault {
			gf, ok := core.AsGuestFault(cerr)
			if !ok {
				return fmt.Errorf("experiments: faults: %s reference ended with %v, want a guest fault", name, cerr)
			}
			refGF = gf
		} else if cerr != nil || !c.Halted {
			return fmt.Errorf("experiments: faults: %s reference: %v", name, cerr)
		}

		cycles := make(map[string]uint64, len(mechs))
		for _, mc := range mechs {
			mm := mem.New()
			p.Load(mm)
			mach := machine.New(mm, machine.DefaultParams())
			e := core.NewEngine(mm, mach, mc.opt)
			rerr := e.Run(p.Entry(), s.Budget)
			if p.ExpectFault {
				gf, ok := core.AsGuestFault(rerr)
				if !ok {
					return fmt.Errorf("experiments: faults: %s under %s ended with %v, want a guest fault", name, mc.series, rerr)
				}
				if gf.PC != refGF.PC || gf.Mem != refGF.Mem {
					return fmt.Errorf("experiments: faults: %s under %s delivered %v, reference %v", name, mc.series, rerr, cerr)
				}
			} else if rerr != nil {
				return fmt.Errorf("experiments: faults: %s under %s: %v", name, mc.series, rerr)
			}
			cycles[mc.series] = mach.Counters().Cycles
			switch mc.series {
			case "eh":
				r.set("guest-faults", name, float64(e.Stats().GuestFaults))
				r.set("traps(eh)", name, float64(mach.Counters().MisalignTraps))
			case "dpeh":
				r.set("smc-invals", name, float64(e.Stats().SMCInvalidations))
			}
		}
		base := float64(cycles["eh"])
		for _, mc := range mechs {
			r.set(mc.series, name, float64(cycles[mc.series])/base)
		}
		return nil
	})
	r.Notes = append(r.Notes,
		"fault-expected rows end in exactly one delivered guest fault, bit-identical (PC, address, access) to the interpreter reference under every mechanism",
		"smc-rewrite's smc-invals column shows the code-page write watch catching the in-place stub rewrite from translated code")
	return r, err
}

package experiments

import (
	"testing"

	"mdabt/internal/align"
	"mdabt/internal/core"
	"mdabt/internal/mem"
	"mdabt/internal/workload"
)

// TestStaticAlignSoundness is the lattice bug detector (ISSUE 3): over the
// full Figure 16 benchmark suite it cross-checks every static verdict
// against the reference interpreter's observed behavior — a site proven
// Aligned must never perform an MDA at runtime, and a site proven
// Misaligned must never execute aligned — and then runs the DBT with the
// +staticalign layer, asserting the runtime violation counter stays zero
// (no proven-aligned emission ever trapped) and every translation lints
// clean (enforced inside Session.Run).
func TestStaticAlignSoundness(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite soundness sweep is slow; skipped under -short (race CI job)")
	}
	s := session()
	err := s.forEach(selectedNames(), func(name string) error {
		a, aerr := s.Analyze(name)
		if aerr != nil {
			return aerr
		}
		c, cerr := s.Census(name, workload.Ref)
		if cerr != nil {
			return cerr
		}
		p, perr := s.Program(name, "")
		if perr != nil {
			return perr
		}
		m := mem.New()
		p.Load(m, workload.Ref)
		dec := memDecoder(m)
		checked := 0
		for _, cs := range c.Sites {
			pc := cs.PC
			in, _, derr := dec(pc)
			if derr != nil {
				continue
			}
			// The census aggregates both streams of a string copy under one
			// PC, so only the folded (all-streams-agree) verdict is
			// decisively checkable here.
			switch a.InstVerdict(pc, in.Op) {
			case align.Aligned:
				checked++
				if cs.MDA != 0 {
					t.Errorf("%s: site %#x proven aligned but did %d MDAs (%d aligned)",
						name, pc, cs.MDA, cs.Aligned)
				}
			case align.Misaligned:
				checked++
				if cs.Aligned != 0 {
					t.Errorf("%s: site %#x proven misaligned but executed aligned %d times (%d MDAs)",
						name, pc, cs.Aligned, cs.MDA)
				}
			}
		}
		if checked == 0 {
			t.Errorf("%s: analysis proved nothing the census exercised — no soundness coverage", name)
		}
		// Runtime side: proven-aligned emissions carry no trap hook, so any
		// trap landing on one increments StaticAlignViolations.
		for _, cfg := range []core.Options{
			{Mechanism: core.Direct, StaticAlign: true},
			{Mechanism: core.DPEH, StaticAlign: true},
		} {
			run, rerr := s.Run(name, cfg)
			if rerr != nil {
				return rerr
			}
			if v := run.Stats.StaticAlignViolations; v != 0 {
				t.Errorf("%s under %v+staticalign: %d static-align violations at runtime", name, cfg.Mechanism, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

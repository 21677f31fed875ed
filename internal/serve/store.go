package serve

import (
	"errors"
	"fmt"

	"mdabt/internal/aot"
	"mdabt/internal/core"
	"mdabt/internal/mem"
	"mdabt/internal/policy"
	"mdabt/internal/store"
	"mdabt/internal/workload"
)

// This file is the serving layer's persistent-store integration
// (DESIGN.md §15): workers warm-start from store artifacts before a
// request runs, and the per-session trap histories every worker
// accumulates are merged back into the store when the pool drains — so
// profile knowledge survives the worker instead of dying with it. The
// contract mirrors the store's own: any artifact problem (miss,
// corruption, version skew, lock conflict) degrades the request to a cold
// translation; it never fails it and never changes a guest result.

// profKey addresses one pending trap-profile delta.
type profKey struct {
	program     string
	fingerprint string
}

// storeProgram derives the store's program identity for a request: an
// explicit StoreKey wins; otherwise image-loaded programs hash their
// content. Loader-hook requests without a StoreKey have no stable
// identity and skip the store entirely.
func storeProgram(req Request) string {
	if req.StoreKey != "" {
		return req.StoreKey
	}
	if len(req.Image) > 0 {
		return store.HashProgram(req.Image, req.Data)
	}
	return ""
}

// WarmStart is the one warm-start rule every front end follows
// (DESIGN.md §15): fill opt with each artifact it lacks from the store
// first, then from the caller's builder or trainer, and save what was
// made so the next run of (program, options) hits. It normalizes opt
// (a bare Options{Mechanism: core.AOT} wants the AOT tier like
// DefaultOptions(core.AOT)) and returns the options fingerprint, the
// store key component.
//
//   - An AOT run with no schedule adopts the stored image once it
//     verifies; otherwise build's image, which is then saved.
//   - A mechanism that consumes a train profile (its policy.Mechanism row
//     is Static), with no StaticSites, adopts the
//     stored trap profile; otherwise train's, which is then merged in.
//     An adopted profile with no MDA site is still knowledge: it leaves
//     an empty, non-nil site set, so nothing loads or trains it again.
//
// A nil st or an empty program (no stable identity) loads and saves
// nothing, so what build and train make is adopted in memory only. A nil
// build or train, or a trainer returning nil, leaves that artifact cold.
// The error reports failed saves and merges; opt is usable regardless,
// since a failed save only costs the next run its warmth.
func WarmStart(st *store.Store, program string, opt *core.Options, build func() *aot.Image, train func() *store.TrapProfile) (string, error) {
	opt.Normalize()
	fp := opt.Fingerprint()
	if program == "" {
		st = nil
	}
	var errs []error
	if opt.AOT && opt.AOTBlocks == nil {
		k := store.Key{Program: program, Fingerprint: fp, Kind: store.KindAOTImage}
		var im aot.Image
		// The store's checksum covers bytes; the image's own checksum
		// covers content — both must agree before adoption.
		if st != nil && st.Load(k, &im) == nil && im.Verify() == nil {
			im.Apply(opt)
		} else if build != nil {
			built := build()
			built.Apply(opt)
			if st != nil {
				errs = append(errs, st.Save(k, built))
			}
		}
	}
	if row, ok := policy.Lookup(int(opt.Mechanism)); opt.StaticSites == nil && ok && row.Static {
		k := store.Key{Program: program, Fingerprint: fp, Kind: store.KindTrapProfile}
		var tp *store.TrapProfile
		if stored := (&store.TrapProfile{}); st != nil && st.Load(k, stored) == nil {
			tp = stored
		} else if train != nil {
			if tp = train(); tp != nil && st != nil {
				errs = append(errs, st.MergeTrapProfile(k, tp))
			}
		}
		if tp != nil {
			opt.StaticSites = tp.StaticSites()
			if opt.StaticSites == nil {
				opt.StaticSites = map[uint32]bool{}
			}
		}
	}
	return fp, errors.Join(errs...)
}

// BenchCensus interprets prog on input in to HALT within
// core.CensusBudget: the one benchmark census the front ends train with
// and the experiments measure.
func BenchCensus(prog *workload.Program, in workload.Input) (*core.Census, error) {
	m := mem.New()
	prog.Load(m, in)
	c, err := core.RunCensus(m, prog.Entry(), core.CensusBudget)
	if err == nil && !c.Halted {
		err = fmt.Errorf("serve: census did not halt within %d instructions", core.CensusBudget)
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// TrainBench runs prog's train-input census, the FX!32-style training
// run a benchmark's static profile comes from.
func TrainBench(prog *workload.Program) (*store.TrapProfile, error) {
	c, err := BenchCensus(prog, workload.Train)
	if err != nil {
		return nil, err
	}
	return c.Profile(), nil
}

// accumulate folds one completed request's site history into the worker
// pool's pending profile delta for (program, fingerprint). The delta
// stays in memory until flushProfiles merges it into the store. A session
// with an empty history still counts: "ran warm and discovered nothing
// new" is signal (the profile converged), not absence of a session.
func (s *Server) accumulate(program, fingerprint string, eng *core.Engine) {
	s.profMu.Lock()
	defer s.profMu.Unlock()
	pk := profKey{program: program, fingerprint: fingerprint}
	tp := s.profiles[pk]
	if tp == nil {
		tp = &store.TrapProfile{}
		s.profiles[pk] = tp
	}
	eng.AddSiteHistory(tp)
}

// flushProfiles merges every pending trap-profile delta into the store.
// Deltas that fail to merge (writer lock held, filesystem refusal) are
// requeued so a later flush — Drain then Close, or the next Drain —
// retries them; the first error is reported. Called with admissions
// stopped, but safe concurrently with accumulate.
func (s *Server) flushProfiles() error {
	if s.store == nil {
		return nil
	}
	s.profMu.Lock()
	pending := s.profiles
	s.profiles = make(map[profKey]*store.TrapProfile)
	s.profMu.Unlock()
	var first error
	for pk, tp := range pending {
		k := store.Key{Program: pk.program, Fingerprint: pk.fingerprint, Kind: store.KindTrapProfile}
		if err := s.store.MergeTrapProfile(k, tp); err != nil {
			if first == nil {
				first = fmt.Errorf("serve: flush trap profile %s/%s: %w", pk.program, pk.fingerprint, err)
			}
			s.profMu.Lock()
			if cur := s.profiles[pk]; cur != nil {
				cur.Merge(tp)
			} else {
				s.profiles[pk] = tp
			}
			s.profMu.Unlock()
		}
	}
	return first
}

// StoreStats snapshots the persistent store's counters; ok is false when
// the server runs without a store.
func (s *Server) StoreStats() (st store.Stats, ok bool) {
	if s.store == nil {
		return store.Stats{}, false
	}
	return s.store.Stats(), true
}

// joinDrainErr keeps the pool's drain verdict primary but does not let a
// failed profile flush pass silently.
func joinDrainErr(drain, flush error) error {
	if drain != nil {
		return drain
	}
	return flush
}

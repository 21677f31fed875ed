package serve

import (
	"fmt"

	"mdabt/internal/aot"
	"mdabt/internal/core"
	"mdabt/internal/policy"
	"mdabt/internal/store"
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

// warmStart mutates opt with every artifact the store can supply for
// (program, opt): an AOT block schedule when the request wants the AOT
// tier but carries no schedule, and a static trap profile when the
// mechanism consumes one and the request brought none. Every load
// validates before adoption; on any error the options are left cold.
// Returns the options fingerprint (the store key component) for reuse.
func (s *Server) warmStart(opt *core.Options, program string) string {
	fp := opt.Fingerprint()
	if opt.AOT && opt.AOTBlocks == nil {
		var im aot.Image
		err := s.store.Load(store.Key{Program: program, Fingerprint: fp, Kind: store.KindAOTImage}, &im)
		if err == nil {
			// The store's checksum covers bytes; the image's own checksum
			// covers content — both must agree before adoption.
			err = im.Verify()
		}
		if err == nil {
			opt.AOTBlocks = im.Blocks
		}
	}
	if opt.StaticSites == nil {
		if p, ok := policy.ByID(int(opt.Mechanism)); ok && p.UsesStaticProfile() {
			var tp store.TrapProfile
			if s.store.Load(store.Key{Program: program, Fingerprint: fp, Kind: store.KindTrapProfile}, &tp) == nil {
				opt.StaticSites = tp.StaticSites()
			}
		}
	}
	return fp
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

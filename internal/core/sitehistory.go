package core

import "mdabt/internal/store"

// AddSiteHistory folds this session's per-site alignment knowledge into
// tp as one more session: the decode cache's interpreter profiles (MDA
// and aligned counts) plus the delivered-trap counts the exception
// handler recorded (MDA only). It is what the persistent store
// (internal/store) aggregates across sessions into a trap profile — the
// FX!32-style amortized static profile — so the next session's
// SPEH/static-profile run starts with every previously discovered MDA site
// already known. The engine itself does not interpret the history;
// Options.StaticSites is the adoption seam. Reset clears the underlying
// records with the rest of the engine state.
func (e *Engine) AddSiteHistory(tp *store.TrapProfile) {
	tp.Sessions++
	e.forEachSite(tp.Add)
}

// SiteHistory is AddSiteHistory's walk as a fresh map from guest PC to
// the session's counts; mutating it is safe.
func (e *Engine) SiteHistory() map[uint32]struct{ MDA, Aligned uint64 } {
	out := make(map[uint32]struct{ MDA, Aligned uint64 })
	e.forEachSite(func(pc uint32, mda, aligned uint64) {
		h := out[pc]
		h.MDA += mda
		h.Aligned += aligned
		out[pc] = h
	})
	return out
}

// forEachSite reports every profiled site with a nonzero count, then every
// trapped site; a PC can be reported twice.
func (e *Engine) forEachSite(fn func(pc uint32, mda, aligned uint64)) {
	e.dec.forEachProf(func(pc uint32, p *siteProfile) {
		if p.total() != 0 {
			fn(pc, p.mda, p.aligned)
		}
	})
	for pc, n := range e.trapSites {
		fn(pc, n, 0)
	}
}

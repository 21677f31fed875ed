package core

import "mdabt/internal/store"

// AddSiteHistory folds this session's per-site alignment knowledge into
// tp as one more session: the interpreter profiles (MDA and aligned
// counts) plus the delivered-trap counts the exception handler recorded
// (MDA only), both read off the engine's per-PC table. It is what the
// persistent store (internal/store) aggregates across sessions into a
// trap profile — the
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
		out[pc] = struct{ MDA, Aligned uint64 }{mda, aligned}
	})
	return out
}

// forEachSite reports every site with a nonzero count once, in one walk of
// the per-PC table: interpreter MDAs plus delivered traps, and aligned
// executions.
func (e *Engine) forEachSite(fn func(pc uint32, mda, aligned uint64)) {
	e.dec.each(func(pc uint32, de *decEntry) {
		var mda, aligned uint64
		if p := de.Prof; p != nil {
			mda, aligned = p.MDA, p.Aligned
		}
		if de.St != nil {
			mda += de.St.traps
		}
		if mda != 0 || aligned != 0 {
			fn(pc, mda, aligned)
		}
	})
}

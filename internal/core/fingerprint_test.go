package core

import (
	"testing"

	"mdabt/internal/faultinject"
	"mdabt/internal/store"
)

// TestFingerprintIdentity: the fingerprint is deterministic, equates a
// zero-value knob with its mechanism default, and ignores artifact
// payloads and harness knobs — the inputs that must NOT fragment the
// persistent store's key space.
func TestFingerprintIdentity(t *testing.T) {
	base := DefaultOptions(ExceptionHandling)
	fp := base.Fingerprint()
	if fp == "" || fp != base.Fingerprint() {
		t.Fatalf("fingerprint not deterministic: %q vs %q", fp, base.Fingerprint())
	}

	// Normalization: leaving a knob zero fingerprints like its default.
	zeroed := base
	zeroed.HeatThreshold = 0
	zeroed.CodeCacheBytes = 0
	if zeroed.Fingerprint() != fp {
		t.Errorf("zero-value knobs fingerprint differently from defaults")
	}

	// Excluded inputs: payloads and harness knobs.
	excl := base
	excl.StaticSites = map[uint32]bool{0x1000: true}
	excl.AOTBlocks = []uint32{0x1000}
	excl.FaultPlan = faultinject.New(1)
	excl.SelfCheck = true
	excl.SliceInsts = 123
	excl.Traces = true
	excl.TraceHeat = 7
	if excl.Fingerprint() != fp {
		t.Errorf("excluded inputs changed the fingerprint")
	}

	// Included inputs: anything translation-relevant must separate.
	for name, mutate := range map[string]func(*Options){
		"mechanism":   func(o *Options) { *o = DefaultOptions(DPEH) },
		"heat":        func(o *Options) { o.HeatThreshold = 999 },
		"rearrange":   func(o *Options) { o.Rearrange = true },
		"staticalign": func(o *Options) { o.StaticAlign = true },
		"aot":         func(o *Options) { o.AOT = true; o.StaticAlign = true },
		"cachesize":   func(o *Options) { o.CodeCacheBytes = 1 << 16 },
		"ehcycles":    func(o *Options) { o.EHHandlerCycles = 42 },
	} {
		o := base
		mutate(&o)
		if o.Fingerprint() == fp {
			t.Errorf("%s change did not change the fingerprint", name)
		}
	}
}

// TestSiteHistoryRecordsTrapsAndProfiles: the session history carries
// both exception-handler trap counts (EH: translate-first, no interp
// profiling) and interpreter profile counts (DPEH: heated profiling), at
// real site granularity — the raw material the store aggregates — and
// AddSiteHistory folds exactly what SiteHistory maps.
func TestSiteHistoryRecordsTrapsAndProfiles(t *testing.T) {
	eh := engineFor(t, mdaLoopImg(t, 1000), DefaultOptions(ExceptionHandling))
	mustRun(t, eh)
	hist := eh.SiteHistory()
	mda := 0
	for _, h := range hist {
		if h.MDA > 0 {
			mda++
		}
	}
	if mda == 0 {
		t.Fatalf("EH run recorded no MDA sites in history: %v", hist)
	}

	dp := engineFor(t, lateOnsetImg(t, 500, 1000), DefaultOptions(DPEH))
	mustRun(t, dp)
	var mdaN, alignedN uint64
	for _, h := range dp.SiteHistory() {
		mdaN += h.MDA
		alignedN += h.Aligned
	}
	if mdaN == 0 || alignedN == 0 {
		t.Fatalf("DPEH history missing profile counts: mda=%d aligned=%d", mdaN, alignedN)
	}

	// AddSiteHistory folds the same walk into a trap profile as one session.
	for _, e := range []*Engine{eh, dp} {
		hist := e.SiteHistory()
		tp := &store.TrapProfile{Sessions: 2}
		e.AddSiteHistory(tp)
		if tp.Sessions != 3 || len(tp.Sites) != len(hist) {
			t.Fatalf("AddSiteHistory: %d sessions, %d sites; want 3 and %d", tp.Sessions, len(tp.Sites), len(hist))
		}
		for _, s := range tp.Sites {
			if h := hist[s.PC]; s.MDA != h.MDA || s.Aligned != h.Aligned {
				t.Fatalf("AddSiteHistory site %#x = %d/%d, SiteHistory %d/%d", s.PC, s.MDA, s.Aligned, h.MDA, h.Aligned)
			}
		}
	}

	// Reset clears the history with the rest of the session state.
	eh.Reset(DefaultOptions(ExceptionHandling))
	if got := eh.SiteHistory(); len(got) != 0 {
		t.Fatalf("history survived Reset: %v", got)
	}
}

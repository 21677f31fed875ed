package policy

import (
	"slices"
	"testing"

	"mdabt/internal/align"
)

// mustByName returns the policy of a table mechanism with no extensions.
func mustByName(t *testing.T, name string) Policy {
	t.Helper()
	id, ok := ID(name)
	if !ok {
		t.Fatalf("mechanism %q not in the table", name)
	}
	row, ok := Lookup(id)
	if !ok {
		t.Fatalf("no row for id %d", id)
	}
	return Policy{Mechanism: row}
}

func TestRegistryBuiltins(t *testing.T) {
	// The table rows are core.Mechanism's constants in order: the five
	// paper mechanisms, then SPEH and AOT.
	want := []string{"direct", "static-profile", "dynamic-profile", "exception-handling", "dpeh", "speh", "aot"}
	got := Names()
	if !slices.Equal(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i, n := range want {
		id, ok := ID(n)
		if !ok || id != i {
			t.Errorf("ID(%q) = %d,%v, want %d,true", n, id, ok, i)
		}
		if m, ok := Lookup(i); !ok || m.Name != n {
			t.Errorf("Lookup(%d).Name = %q, want %q", i, m.Name, n)
		}
	}
	for alias, canon := range map[string]string{"static": "static-profile", "dynprof": "dynamic-profile", "eh": "exception-handling"} {
		ai, aok := ID(alias)
		ci, _ := ID(canon)
		if !aok || ai != ci {
			t.Errorf("alias %q resolves to %d, want %d (%s)", alias, ai, ci, canon)
		}
	}
	if _, ok := ID("mechanism?"); ok {
		t.Error("bogus name resolved")
	}
	for _, id := range []int{-1, len(Mechanisms)} {
		if _, ok := Lookup(id); ok {
			t.Errorf("out-of-range id %d resolved", id)
		}
	}
	// Every spelling is unique, so ID's first match is the only match.
	all := AllNames()
	if !slices.IsSorted(all) || len(slices.Compact(slices.Clone(all))) != len(all) {
		t.Errorf("AllNames() = %v, want sorted and duplicate-free", all)
	}
}

// The fixture sites: everything SitePolicy decisions can hinge on.
var (
	freshSite    = SiteCtx{GuestPC: 0x1000}
	markedSite   = SiteCtx{GuestPC: 0x1000, StaticMarked: true}
	knownSite    = SiteCtx{GuestPC: 0x1000, KnownMDA: true}
	profiledMDA  = SiteCtx{GuestPC: 0x1000, ProfMDA: 7}
	mixedProfile = SiteCtx{GuestPC: 0x1000, ProfMDA: 5, ProfAligned: 5}
	alignedOnly  = SiteCtx{GuestPC: 0x1000, ProfAligned: 9}
)

func TestStrategySitePolicies(t *testing.T) {
	cases := []struct {
		mech string
		site SiteCtx
		want SitePolicy
	}{
		{"direct", freshSite, Seq},
		{"direct", alignedOnly, Seq},

		{"static-profile", freshSite, Plain},
		{"static-profile", markedSite, Seq},
		{"static-profile", knownSite, Plain}, // no handler: trap history is irrelevant
		{"static-profile", profiledMDA, Plain},

		{"dynamic-profile", freshSite, Plain},
		{"dynamic-profile", profiledMDA, Seq},
		{"dynamic-profile", mixedProfile, Seq},
		{"dynamic-profile", alignedOnly, Plain},
		{"dynamic-profile", knownSite, Seq},
		{"dynamic-profile", markedSite, Plain},

		{"exception-handling", freshSite, Plain},
		{"exception-handling", knownSite, Seq},
		{"exception-handling", profiledMDA, Plain}, // single-phase: no profile to consume
		{"exception-handling", markedSite, Plain},

		{"dpeh", freshSite, Plain},
		{"dpeh", profiledMDA, Seq},
		{"dpeh", knownSite, Seq},
		{"dpeh", markedSite, Plain},

		{"speh", freshSite, Plain},
		{"speh", markedSite, Seq},
		{"speh", knownSite, Seq},
		{"speh", profiledMDA, Plain}, // single-phase: no interp profile exists
	}
	for _, c := range cases {
		if p := mustByName(t, c.mech); p.Site(c.site) != c.want {
			t.Errorf("%s.Site(%+v) = %v, want %v", c.mech, c.site, p.Site(c.site), c.want)
		}
	}
}

func TestStrategyTrapActions(t *testing.T) {
	trap := TrapCtx{GuestPC: 0x1000, BlockPC: 0x0ff0, BlockTraps: 3}
	for mech, want := range map[string]Action{
		"direct":             Fixup,
		"static-profile":     Fixup,
		"dynamic-profile":    Fixup,
		"exception-handling": Patch,
		"dpeh":               Patch,
		"speh":               Patch,
		"aot":                Patch,
	} {
		p := mustByName(t, mech)
		if got := p.Trap(trap); got != want {
			t.Errorf("%s.Trap = %v, want %v", mech, got, want)
		}
		if p.Patches != (want != Fixup) {
			t.Errorf("%s.Patches = %v", mech, p.Patches)
		}
	}
}

func TestStrategyCapabilities(t *testing.T) {
	cases := []struct {
		mech           string
		profiled       bool
		heat           uint64
		usesStaticProf bool
	}{
		{"direct", false, 50, false},
		{"static-profile", false, 50, true},
		{"dynamic-profile", true, 50, false},
		{"exception-handling", false, 50, false},
		{"dpeh", true, 10, false},
		{"speh", false, 50, true},
		{"aot", false, 50, false},
	}
	for _, c := range cases {
		m := mustByName(t, c.mech)
		if m.Interp != c.profiled {
			t.Errorf("%s.Interp = %v", c.mech, m.Interp)
		}
		if m.Heat != c.heat {
			t.Errorf("%s.Heat = %d, want %d", c.mech, m.Heat, c.heat)
		}
		if m.Static != c.usesStaticProf {
			t.Errorf("%s.Static = %v", c.mech, m.Static)
		}
	}
}

// The extension tests below check one Policy field each over a table row;
// TestPolicyDecisionTable in internal/core pins every combination.

func TestMultiVersionDecorator(t *testing.T) {
	m := mustByName(t, "dpeh")
	m.MixedMin, m.MixedMax = 0.05, 0.95
	cases := []struct {
		site SiteCtx
		want SitePolicy
	}{
		{mixedProfile, Mixed},                          // ratio 0.5, inside the band
		{profiledMDA, Seq},                             // never aligned: pessimistic sequence
		{SiteCtx{ProfMDA: 99, ProfAligned: 1}, Seq},    // ratio 0.99 above MixedSiteMax
		{SiteCtx{ProfMDA: 1, ProfAligned: 99}, Seq},    // ratio 0.01 below MixedSiteMin keeps the sequence
		{SiteCtx{KnownMDA: true, ProfAligned: 9}, Seq}, // trap-known, no profile MDA: never mixed
		{freshSite, Plain},
	}
	for _, c := range cases {
		if got := m.Site(c.site); got != c.want {
			t.Errorf("mv.Site(%+v) = %v, want %v", c.site, got, c.want)
		}
	}
	// The band must not alter trap behaviour, and the zero band is off.
	if m.Trap(TrapCtx{BlockTraps: 1}) != Patch {
		t.Error("multi-version band leaked into the trap decision")
	}
	if off := mustByName(t, "dpeh"); off.Site(mixedProfile) != Seq {
		t.Errorf("zero band: mixed site = %v, want Seq", off.Site(mixedProfile))
	}
}

func TestAdaptiveDecorator(t *testing.T) {
	m := mustByName(t, "dpeh")
	m.MixedMin, m.MixedMax, m.Adaptive = 0.05, 0.95, true
	if got := m.Site(profiledMDA); got != Adaptive {
		t.Errorf("sequence site = %v, want Adaptive", got)
	}
	if got := m.Site(mixedProfile); got != Mixed {
		t.Errorf("mixed site = %v, want Mixed (adaptive leaves it)", got)
	}
	rev := mixedProfile
	rev.Reverted = true
	if got := m.Site(rev); got != Plain {
		t.Errorf("reverted site = %v, want Plain (reversion outranks Mixed)", got)
	}
	if got := m.Site(freshSite); got != Plain {
		t.Errorf("fresh site = %v, want Plain", got)
	}
}

func TestRetranslateDecorator(t *testing.T) {
	m := mustByName(t, "dpeh")
	m.RetransAt = 4
	if got := m.Trap(TrapCtx{BlockTraps: 3}); got != Patch {
		t.Errorf("below threshold = %v, want Patch", got)
	}
	if got := m.Trap(TrapCtx{BlockTraps: 4}); got != Retranslate {
		t.Errorf("at threshold = %v, want Retranslate", got)
	}
	// Over a non-patching row the threshold is inert.
	f := mustByName(t, "dynamic-profile")
	f.RetransAt = 1
	if got := f.Trap(TrapCtx{BlockTraps: 9}); got != Fixup {
		t.Errorf("fixup row = %v, want Fixup", got)
	}
}

func TestRearrangeDecorator(t *testing.T) {
	m := mustByName(t, "exception-handling")
	m.Rearrange = true
	if got := m.Trap(TrapCtx{BlockTraps: 1}); got != Rearrange {
		t.Errorf("= %v, want Rearrange", got)
	}
	// Retranslation beats rearrangement.
	rr := mustByName(t, "dpeh")
	rr.Rearrange, rr.RetransAt = true, 2
	if got := rr.Trap(TrapCtx{BlockTraps: 1}); got != Rearrange {
		t.Errorf("below retrans threshold = %v, want Rearrange", got)
	}
	if got := rr.Trap(TrapCtx{BlockTraps: 2}); got != Retranslate {
		t.Errorf("at retrans threshold = %v, want Retranslate", got)
	}
}

func TestStaticAlignDecorator(t *testing.T) {
	m := mustByName(t, "direct")
	m.StaticAlign = true
	if got := m.Site(SiteCtx{AlignVerdict: align.Aligned}); got != Plain {
		t.Errorf("proven-aligned = %v, want Plain override", got)
	}
	if got := m.Site(SiteCtx{AlignVerdict: align.Misaligned}); got != Seq {
		t.Errorf("proven-misaligned = %v, want Seq", got)
	}
	if got := m.Site(SiteCtx{AlignVerdict: align.Unknown}); got != Seq {
		t.Errorf("unknown verdict = %v, want the row's decision (Seq under direct)", got)
	}
	// Verdicts count only with the layer on.
	if off := mustByName(t, "direct"); off.Site(SiteCtx{AlignVerdict: align.Aligned}) != Seq {
		t.Error("layer off: a proven-aligned verdict overrode the row")
	}
}

func TestEnumStrings(t *testing.T) {
	for p, want := range map[SitePolicy]string{Plain: "plain", Seq: "seq", Mixed: "mixed", Adaptive: "adaptive", SitePolicy(99): "policy?"} {
		if p.String() != want {
			t.Errorf("SitePolicy(%d).String() = %q, want %q", p, p.String(), want)
		}
	}
	for a, want := range map[Action]string{Fixup: "fixup", Patch: "patch", Retranslate: "retranslate", Rearrange: "rearrange", Action(99): "action?"} {
		if a.String() != want {
			t.Errorf("Action(%d).String() = %q, want %q", a, a.String(), want)
		}
	}
}

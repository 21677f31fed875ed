package core

import (
	"strings"
	"testing"

	"mdabt/internal/guest"
)

// The mechanism seam: core.Mechanism is a compat shim over the policy
// registry, Options.Validate rejects contradictory knob combinations, and
// the registered SPEH hybrid behaves as static profiling with an exception
// handler for the leftovers.

func TestMechanismByName(t *testing.T) {
	for name, want := range map[string]Mechanism{
		"direct": Direct, "static-profile": StaticProfile, "static": StaticProfile,
		"dynamic-profile": DynamicProfile, "dynprof": DynamicProfile,
		"exception-handling": ExceptionHandling, "eh": ExceptionHandling,
		"dpeh": DPEH, "speh": SPEH,
	} {
		got, ok := MechanismByName(name)
		if !ok || got != want {
			t.Errorf("MechanismByName(%q) = %v,%v, want %v", name, got, ok, want)
		}
	}
	if _, ok := MechanismByName("qemu"); ok {
		t.Error("unknown name resolved")
	}
	ms := Mechanisms()
	if len(ms) < 6 || ms[5] != SPEH {
		t.Errorf("Mechanisms() = %v", ms)
	}
}

func TestOptionsValidate(t *testing.T) {
	bad := []struct {
		label string
		opt   Options
		frag  string // expected error fragment
	}{
		{"rearrange/direct", func() Options { o := DefaultOptions(Direct); o.Rearrange = true; return o }(), "Rearrange"},
		{"rearrange/dynprof", func() Options { o := DefaultOptions(DynamicProfile); o.Rearrange = true; return o }(), "Rearrange"},
		{"retranslate/static", func() Options { o := DefaultOptions(StaticProfile); o.Retranslate = true; return o }(), "Retranslate"},
		{"adaptive/eh", func() Options { o := DefaultOptions(ExceptionHandling); o.Adaptive = true; return o }(), "Adaptive"},
		{"adaptive/speh", func() Options { o := DefaultOptions(SPEH); o.Adaptive = true; return o }(), "Adaptive"},
		{"multiversion/eh", func() Options { o := DefaultOptions(ExceptionHandling); o.MultiVersion = true; return o }(), "MultiVersion"},
		{"mvblock-alone", func() Options { o := DefaultOptions(DPEH); o.MVBlockGranularity = true; return o }(), "MVBlockGranularity"},
		{"unknown-mechanism", Options{Mechanism: Mechanism(99)}, "unknown mechanism"},
	}
	for _, c := range bad {
		err := c.opt.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted", c.label)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %q lacks %q", c.label, err, c.frag)
		}
		// NewEngine keeps its error-free signature; the rejection must
		// surface from Run before any guest instruction executes.
		e := engineFor(t, mdaLoopImg(t, 10), c.opt)
		if rerr := e.Run(guest.CodeBase, 1<<20); rerr == nil {
			t.Errorf("%s: Run accepted invalid options", c.label)
		}
	}

	good := []Options{
		DefaultOptions(Direct),
		DefaultOptions(SPEH),
		func() Options { o := DefaultOptions(ExceptionHandling); o.Rearrange = true; return o }(),
		func() Options { o := DefaultOptions(SPEH); o.Rearrange = true; o.Retranslate = true; return o }(),
		func() Options {
			o := DefaultOptions(DPEH)
			o.Retranslate, o.MultiVersion, o.MVBlockGranularity, o.Adaptive = true, true, true, true
			return o
		}(),
		{Mechanism: DynamicProfile}, // zero threshold normalizes to the default
	}
	for _, o := range good {
		if err := o.Validate(); err != nil {
			t.Errorf("Validate rejected %v: %v", o.Mechanism, err)
		}
	}
}

// TestOptionsLiteralMatchesDefault: Normalize owns every default and the
// implied settings, so a bare Options{Mechanism: m} is the same
// configuration as DefaultOptions(m) for every registered mechanism — the
// aot mechanism included, which implies AOT and, through it, StaticAlign.
func TestOptionsLiteralMatchesDefault(t *testing.T) {
	for _, m := range Mechanisms() {
		lit := Options{Mechanism: m}
		if err := lit.Validate(); err != nil {
			t.Errorf("%v: Options{Mechanism} rejected: %v", m, err)
		}
		if got, want := lit.Fingerprint(), DefaultOptions(m).Fingerprint(); got != want {
			t.Errorf("%v: Options{Mechanism} fingerprints %s, DefaultOptions %s", m, got, want)
		}
	}
	aotOnly := Options{Mechanism: ExceptionHandling, AOT: true}
	both := Options{Mechanism: ExceptionHandling, AOT: true, StaticAlign: true}
	if err := aotOnly.Validate(); err != nil {
		t.Errorf("AOT without StaticAlign rejected: %v", err)
	}
	if aotOnly.Fingerprint() != both.Fingerprint() {
		t.Error("AOT alone fingerprints differently from AOT+StaticAlign")
	}
}

func TestSPEHMarkedSitesNeverTrap(t *testing.T) {
	// With a complete train profile SPEH emits every MDA site eagerly —
	// zero traps, zero patches, and exactly StaticProfile's code (so the
	// same cycle count).
	img := mdaLoopImg(t, 500)
	data := patternData(256)
	static := censusSites(t, img, data)

	sp := DefaultOptions(SPEH)
	sp.StaticSites = static
	_, _, e := runDBT(t, img, data, sp)
	if c := e.Mach.Counters(); c.MisalignTraps != 0 {
		t.Errorf("traps = %d, want 0 (train profile covers the site)", c.MisalignTraps)
	}
	if s := e.Stats(); s.Patches != 0 {
		t.Errorf("patches = %d, want 0", s.Patches)
	}

	st := DefaultOptions(StaticProfile)
	st.StaticSites = static
	_, _, ref := runDBT(t, img, data, st)
	if e.Mach.Counters().Cycles != ref.Mach.Counters().Cycles {
		t.Errorf("speh cycles %d != static-profile cycles %d on a complete profile",
			e.Mach.Counters().Cycles, ref.Mach.Counters().Cycles)
	}
}

func TestSPEHPatchesUnprofiledSites(t *testing.T) {
	// With an empty profile SPEH degenerates to pure exception handling:
	// the late site traps once and is patched, instead of trapping forever
	// as under StaticProfile.
	img := mdaLoopImg(t, 500)
	data := patternData(256)

	sp := DefaultOptions(SPEH)
	_, _, e := runDBT(t, img, data, sp)
	if c := e.Mach.Counters(); c.MisalignTraps != 1 {
		t.Errorf("traps = %d, want 1 (patched after the first)", c.MisalignTraps)
	}
	if s := e.Stats(); s.Patches != 1 || s.MDAStubs != 1 {
		t.Errorf("patches/stubs = %d/%d, want 1/1", s.Patches, s.MDAStubs)
	}

	_, _, eh := runDBT(t, img, data, DefaultOptions(ExceptionHandling))
	if e.Mach.Counters().Cycles != eh.Mach.Counters().Cycles {
		t.Errorf("speh cycles %d != eh cycles %d on an empty profile",
			e.Mach.Counters().Cycles, eh.Mach.Counters().Cycles)
	}
}

func TestSPEHBeatsParentsOnPartialProfile(t *testing.T) {
	// The motivating case: the train run saw one hot site but missed a
	// late-onset one. StaticProfile pays a trap per post-flip iteration on
	// the missed site; SPEH patches it after one trap.
	img := buildImg(t, func(b *guest.Builder) {
		b.MovImm(guest.EBX, guest.DataBase)
		b.MovImm(guest.EDI, guest.DataBase+64)
		b.MovImm(guest.ECX, 0)
		b.MovImm(guest.EAX, 0)
		b.Jmp("loop")
		b.Label("loop")
		// Site A: always misaligned (the train run catches it).
		b.Load(guest.LD4, guest.EDX, guest.MemRef{Base: guest.EBX, Disp: 2})
		b.ALU(guest.ADDrr, guest.EAX, guest.EDX)
		// Site B: aligned until iteration 100, misaligned after.
		b.Load(guest.LD4, guest.ESI, guest.MemRef{Base: guest.EDI, Disp: 0})
		b.ALU(guest.ADDrr, guest.EAX, guest.ESI)
		b.ALUImm(guest.ADDri, guest.ECX, 1)
		b.CmpImm(guest.ECX, 100)
		b.Jcc(guest.E, "flip")
		b.CmpImm(guest.ECX, 2000)
		b.Jcc(guest.L, "loop")
		b.Halt()
		b.Label("flip")
		b.ALUImm(guest.ADDri, guest.EDI, 2)
		b.Jmp("loop")
	})
	data := patternData(256)
	// Train profile: only site A (the first load) — derive it from a
	// census and keep just the PC with the most MDAs, emulating a train
	// input that never flips site B.
	full := censusSites(t, img, data)
	var sitePCs []uint32
	for pc := range full {
		sitePCs = append(sitePCs, pc)
	}
	if len(sitePCs) != 2 {
		t.Fatalf("expected 2 MDA sites, census found %d", len(sitePCs))
	}
	partial := map[uint32]bool{}
	if sitePCs[0] < sitePCs[1] { // site A is the lower PC
		partial[sitePCs[0]] = true
	} else {
		partial[sitePCs[1]] = true
	}

	run := func(m Mechanism) (uint64, uint64) {
		opt := DefaultOptions(m)
		opt.StaticSites = partial
		_, _, e := runDBT(t, img, data, opt)
		return e.Mach.Counters().Cycles, e.Mach.Counters().MisalignTraps
	}
	spCycles, spTraps := run(SPEH)
	stCycles, stTraps := run(StaticProfile)
	if spTraps != 1 {
		t.Errorf("speh traps = %d, want 1 (late site patched once)", spTraps)
	}
	if stTraps < 1000 {
		t.Errorf("static-profile traps = %d, want ~1900 (late site traps forever)", stTraps)
	}
	if spCycles >= stCycles {
		t.Errorf("speh (%d cycles) not faster than static-profile (%d) with a partial profile",
			spCycles, stCycles)
	}
}

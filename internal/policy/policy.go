// Package policy holds the paper's Table II as data. Each MDA-handling
// mechanism is one Mechanism row: which site evidence gets the inline MDA
// sequence, whether the exception handler patches trapping sites, whether
// blocks are interpreted first and for how long, and whether a train-run
// profile is consumed. internal/core builds one Policy value per engine
// from a row plus the §IV extensions its Options enable, and asks it two
// questions:
//
//   - Site, at translation time: how to translate one memory site — the
//     plain trap-prone instruction, the inline MDA sequence, or one of the
//     multi-version shapes — given a SiteCtx snapshot of everything the
//     engine knows about the site.
//   - Trap, when a translated site misaligns: leave it to the OS-style
//     software fixup, patch in an MDA stub, retranslate the whole block,
//     or rearrange it in place.
//
// See DESIGN.md §10.
package policy

import (
	"sort"

	"mdabt/internal/align"
)

// SitePolicy is the translate-time decision for one memory site.
type SitePolicy uint8

const (
	// Plain emits the single trap-prone memory instruction.
	Plain SitePolicy = iota
	// Seq inlines the MDA code sequence (ldq_u/ext…, paper Fig. 2).
	Seq
	// Mixed emits per-site multi-version code: an alignment check selects
	// between the plain and sequence shapes (§IV-D, Fig. 8 left).
	Mixed
	// Adaptive emits the sequence with aligned-streak instrumentation that
	// can revert the site to Plain (§IV-D, Fig. 8 right).
	Adaptive
)

// String names the policy for tests and dumps.
func (p SitePolicy) String() string {
	switch p {
	case Plain:
		return "plain"
	case Seq:
		return "seq"
	case Mixed:
		return "mixed"
	case Adaptive:
		return "adaptive"
	}
	return "policy?"
}

// Action is the trap-time decision for a misaligning translated site.
type Action uint8

const (
	// Fixup emulates the access in software and resumes — the OS-style
	// every-time cost (mechanisms without an exception handler).
	Fixup Action = iota
	// Patch emits an MDA stub and patches the faulting instruction into a
	// branch to it (§IV, Fig. 5).
	Patch
	// Retranslate discards the block's translation and restarts profiling
	// for it (§IV-C, Fig. 7).
	Retranslate
	// Rearrange retranslates the block in place with the sequence inline,
	// preserving I-cache locality (§IV-A, Fig. 6).
	Rearrange
)

// String names the action for tests and dumps.
func (a Action) String() string {
	switch a {
	case Fixup:
		return "fixup"
	case Patch:
		return "patch"
	case Retranslate:
		return "retranslate"
	case Rearrange:
		return "rearrange"
	}
	return "action?"
}

// SiteCtx is the engine's knowledge about one memory site at translation
// time. The zero value describes a never-seen site.
type SiteCtx struct {
	// GuestPC is the site's guest instruction address.
	GuestPC uint32
	// KnownMDA reports a trap-discovered site: the exception handler saw it
	// misalign (retained across invalidations, §IV-C).
	KnownMDA bool
	// StaticMarked reports the site is in the train-run profile
	// (Options.StaticSites — FX!32-style static profiling).
	StaticMarked bool
	// ProfMDA/ProfAligned are the interpretation-phase counts of misaligned
	// and aligned executions (zero for single-phase mechanisms).
	ProfMDA, ProfAligned uint64
	// Reverted reports the adaptive monitor demoted the site back to a
	// plain operation (§IV-D).
	Reverted bool
	// AlignVerdict is the static alignment analysis verdict for the whole
	// instruction (align.Unknown when the layer is off).
	AlignVerdict align.Verdict
}

// MixedRatio returns the observed misalignment ratio, or 0 with no profile.
func (c SiteCtx) MixedRatio() float64 {
	total := c.ProfMDA + c.ProfAligned
	if total == 0 {
		return 0
	}
	return float64(c.ProfMDA) / float64(total)
}

// TrapCtx is the engine's knowledge at trap time.
type TrapCtx struct {
	// GuestPC is the faulting site's guest instruction address.
	GuestPC uint32
	// BlockPC is the containing translation unit's entry address.
	BlockPC uint32
	// BlockTraps counts misalignment traps taken in this block's current
	// translation, including this one.
	BlockTraps int
}

// Evidence is a set of site facts; a mechanism's SeqOn set names the facts
// that select the MDA sequence for a site.
type Evidence uint8

const (
	// Always selects every site.
	Always Evidence = 1 << iota
	// Marked selects sites in the train-run profile (SiteCtx.StaticMarked).
	Marked
	// Known selects trap-discovered sites (SiteCtx.KnownMDA).
	Known
	// Profiled selects sites that misaligned while interpreted
	// (SiteCtx.ProfMDA > 0).
	Profiled
)

// Mechanism is one row of the mechanism table.
type Mechanism struct {
	// Name is the canonical name; Aliases are accepted alternative
	// spellings for CLI flags.
	Name    string
	Aliases []string
	// Summary is a one-line description for CLI help and docs.
	Summary string
	// SeqOn is the site evidence that selects the MDA sequence; every
	// other site is translated plain.
	SeqOn Evidence
	// Patches reports an exception handler that patches a trapping site;
	// without one every trap takes the software fixup, every time.
	Patches bool
	// Interp reports a two-phase mechanism: blocks are interpreted with
	// MDA instrumentation before translation.
	Interp bool
	// Heat is the default heating threshold (Options.HeatThreshold
	// overrides it; meaningful only with Interp).
	Heat uint64
	// Static reports the mechanism consumes a train-run profile
	// (Options.StaticSites); serve.WarmStart loads it from the store or
	// has the front end run a training census for it.
	Static bool
}

// Mechanisms is the table, indexed by core.Mechanism ID: the paper's five
// mechanisms in Table II order, then the SPEH hybrid and the AOT tier.
var Mechanisms = [...]Mechanism{
	// QEMU-style: no translated access can ever trap. The paper's
	// Figure 16 baseline for how expensive that simplicity is (~2.2x).
	{Name: "direct", Summary: "every non-byte access becomes the MDA sequence (QEMU-style, §III-A)",
		SeqOn: Always, Heat: 50},
	// FX!32-style: sites the train input never misaligned trap to the OS
	// fixup on every ref-input occurrence (252.eon +91%, 450.soplex +155%).
	{Name: "static-profile", Aliases: []string{"static"}, Summary: "train-input-profiled sites get the sequence (FX!32-style, §III-B)",
		SeqOn: Marked, Heat: 50, Static: true},
	// IA-32 EL-style: sites whose misalignment starts after the profiling
	// window trap to the OS fixup forever — the late-onset failure mode
	// (Table III) DPEH exists to fix.
	{Name: "dynamic-profile", Aliases: []string{"dynprof"}, Summary: "interpret-first profiling picks sequence sites (IA-32 EL-style, §III-C)",
		SeqOn: Known | Profiled, Interp: true, Heat: 50},
	// The paper's proposal (Fig. 5): translate plain and patch a faulting
	// operation into a branch to a fresh MDA stub on its first trap.
	{Name: "exception-handling", Aliases: []string{"eh"}, Summary: "translate plain; trap-and-patch sites on first misalignment (§IV)",
		SeqOn: Known, Patches: true, Heat: 50},
	// A short, low-threshold profiling window catches the common always-MDA
	// sites and the handler patches the rest, late-onset sites included.
	// The paper's overall winner (Fig. 16, geomean ~0.97 of EH alone).
	{Name: "dpeh", Summary: "low-threshold dynamic profiling plus exception handling (§IV-B)",
		SeqOn: Known | Profiled, Patches: true, Interp: true, Heat: 10},
	// The composite the paper implies but never measures: the handler
	// catches the ref-input surprises that cripple static profiling, and
	// startup is as cheap as plain EH.
	{Name: "speh", Summary: "static profiling plus exception handling: train-marked sites eager, late sites trap-and-patch",
		SeqOn: Marked | Known, Patches: true, Heat: 50, Static: true},
	// The AOT tier (DESIGN.md §13) forces the StaticAlign layer on, so
	// verdicts pick site shapes; an undecidable site costs one
	// trap-and-patch, as under EH, not an eager sequence.
	{Name: "aot", Summary: "whole-binary ahead-of-time pre-translation from the recovered CFG; align verdicts pick site shapes, traps patch the leftovers",
		Patches: true, Heat: 50},
}

// Lookup returns the row for a mechanism ID; ok is false for any ID
// outside the table, negative ones included.
func Lookup(id int) (Mechanism, bool) {
	if id < 0 || id >= len(Mechanisms) {
		return Mechanism{}, false
	}
	return Mechanisms[id], true
}

// ID resolves a canonical name or alias to the mechanism ID.
func ID(name string) (int, bool) {
	for id, m := range Mechanisms {
		if m.Name == name {
			return id, true
		}
		for _, a := range m.Aliases {
			if a == name {
				return id, true
			}
		}
	}
	return 0, false
}

// Names returns the canonical mechanism names in ID order.
func Names() []string {
	out := make([]string, len(Mechanisms))
	for i, m := range Mechanisms {
		out[i] = m.Name
	}
	return out
}

// AllNames returns every accepted spelling (canonical names and aliases),
// sorted, for CLI error messages.
func AllNames() []string {
	var out []string
	for _, m := range Mechanisms {
		out = append(append(out, m.Name), m.Aliases...)
	}
	sort.Strings(out)
	return out
}

// Policy is one engine's MDA decision procedure: a table row plus the §IV
// extensions the options enable. The zero extension fields are all off.
type Policy struct {
	Mechanism
	// MixedMin and MixedMax bound the profiled misalignment ratio of a
	// multi-version (Mixed) site (§IV-D, Fig. 8 left); the zero band is
	// off, since a site with profiled MDAs has a ratio above zero.
	MixedMin, MixedMax float64
	// Adaptive instruments sequence sites with an aligned-streak monitor
	// that can revert them to plain (§IV-D, Fig. 8 right).
	Adaptive bool
	// RetransAt retranslates a block once this many traps have hit its
	// translation (§IV-C, Fig. 7); 0 is off.
	RetransAt int
	// Rearrange retranslates a trapping block in place with the sequence
	// inline instead of patching a branch to a stub (§IV-A, Fig. 6).
	Rearrange bool
	// StaticAlign lets decisive alignment-analysis verdicts override the
	// site decision.
	StaticAlign bool
}

// Site decides how to translate one memory site. A decisive static-align
// verdict outranks everything; then the row's evidence picks plain or
// sequence, multi-version turns a partly-aligned sequence site Mixed, and
// the adaptive monitor reverts demoted sites to plain and instruments the
// remaining sequence sites.
func (p *Policy) Site(c SiteCtx) SitePolicy {
	if p.StaticAlign {
		switch c.AlignVerdict {
		case align.Aligned:
			return Plain
		case align.Misaligned:
			return Seq
		}
	}
	sp := Plain
	if p.SeqOn&Always != 0 ||
		p.SeqOn&Marked != 0 && c.StaticMarked ||
		p.SeqOn&Known != 0 && c.KnownMDA ||
		p.SeqOn&Profiled != 0 && c.ProfMDA > 0 {
		sp = Seq
	}
	if sp == Seq && c.ProfMDA > 0 && c.ProfAligned > 0 {
		if r := c.MixedRatio(); r >= p.MixedMin && r <= p.MixedMax {
			sp = Mixed
		}
	}
	if p.Adaptive {
		if c.Reverted {
			return Plain
		}
		if sp == Seq {
			return Adaptive
		}
	}
	return sp
}

// Trap decides how to react when a translated site misaligns. Fixup means
// the mechanism has no exception handler; retranslation outranks
// rearrangement, so a block over the threshold is retranslated.
func (p *Policy) Trap(c TrapCtx) Action {
	switch {
	case !p.Patches:
		return Fixup
	case p.RetransAt > 0 && c.BlockTraps >= p.RetransAt:
		return Retranslate
	case p.Rearrange:
		return Rearrange
	}
	return Patch
}

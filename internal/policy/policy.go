// Package policy defines the MDA-handling mechanism seam of the translator:
// a Mechanism is a strategy object encapsulating every decision the paper's
// five mechanisms (Table II) actually differ on, so the engine in
// internal/core drives one hook protocol instead of switching on a
// mechanism enum in four files.
//
// The hook protocol, in engine order:
//
//  1. WantsInterpProfiling / HeatThreshold — whether blocks are interpreted
//     (with MDA instrumentation) before translation, and for how long
//     (two-phase mechanisms: DynamicProfile, DPEH).
//  2. OnBlockHot — notification that a block crossed the heating threshold
//     (or, for single-phase mechanisms, is about to be translated).
//  3. SitePolicy — the translate-time decision per memory site: plain
//     trap-prone instruction, inline MDA sequence, or one of the
//     multi-version shapes. Called once per site per (re)translation with a
//     SiteCtx snapshot of everything the engine knows about the site.
//  4. OnMisalignTrap — the trap-time decision when a translated site
//     misaligns: leave it to the OS-style software fixup, patch in an MDA
//     stub, retranslate the whole block, or rearrange it in place.
//  5. OnRetranslate — notification that a block's translation was
//     discarded for re-profiling (§IV-C).
//
// Mechanisms are registered by name (Register/ByID/ID) and composed with
// decorators (WithMultiVersion, WithAdaptive, WithRetranslate,
// WithRearrange, WithStaticAlign) that layer the paper's §IV extensions
// over any base strategy. See DESIGN.md §10.
package policy

import "mdabt/internal/align"

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

// Mechanism is one MDA handling strategy. Implementations must be cheap to
// construct and free of shared mutable state: the engine builds a private
// instance per NewEngine via the registry.
type Mechanism interface {
	// Name returns the registry name the mechanism was registered under.
	Name() string
	// SitePolicy decides how to translate one memory site.
	SitePolicy(SiteCtx) SitePolicy
	// OnMisalignTrap decides how to react when a translated site traps.
	// Returning Fixup means the mechanism has no exception handler: the
	// access is emulated and the site pays the trap on every occurrence.
	OnMisalignTrap(TrapCtx) Action
	// WantsInterpProfiling reports a two-phase mechanism: blocks are
	// interpreted with MDA instrumentation before translation.
	WantsInterpProfiling() bool
	// HeatThreshold is the mechanism's default heating threshold
	// (Options.HeatThreshold overrides it; meaningful only when
	// WantsInterpProfiling).
	HeatThreshold() uint64
	// UsesStaticProfile reports the mechanism consumes a train-run profile
	// (Options.StaticSites); serve.WarmStart loads it from the store or
	// has the front end run a training census for it.
	UsesStaticProfile() bool
	// OnBlockHot is called when a block is about to be translated — after
	// crossing the heating threshold for two-phase mechanisms, on first
	// execution otherwise.
	OnBlockHot(guestPC uint32)
	// OnRetranslate is called when a block's translation is discarded for
	// re-profiling (the Retranslate action).
	OnRetranslate(guestPC uint32)
}

// Base provides the neutral defaults of the optional hooks; embed it and
// override what the strategy actually cares about.
type Base struct{}

// WantsInterpProfiling reports false: single-phase by default.
func (Base) WantsInterpProfiling() bool { return false }

// HeatThreshold returns the paper's overall default threshold (§VI).
func (Base) HeatThreshold() uint64 { return 50 }

// UsesStaticProfile reports false: no train-run profile by default.
func (Base) UsesStaticProfile() bool { return false }

// OnBlockHot does nothing by default.
func (Base) OnBlockHot(uint32) {}

// OnRetranslate does nothing by default.
func (Base) OnRetranslate(uint32) {}

// Patches reports whether the mechanism's exception handler converts
// trapping sites (versus leaving every trap to the software fixup). It
// probes OnMisalignTrap with a zero TrapCtx, which every threshold-gated
// decorator passes through to its base action.
func Patches(m Mechanism) bool { return m.OnMisalignTrap(TrapCtx{}) != Fixup }

// Package core implements the dynamic binary translator the paper evaluates
// MDA-handling mechanisms on: a DigitalBridge-like two-phase X86→Alpha DBT
// (paper §V-B, Fig. 4/9) running on the machine simulator.
//
// The engine executes a guest (x86-like) program by interpretation and/or
// translation to host (Alpha-like) code placed in a code cache in simulated
// memory. Which memory operations are translated to the inline "MDA code
// sequence" (ldq_u/ext…, paper Fig. 2) versus plain, trap-prone memory
// instructions is decided by the configured Mechanism:
//
//   - Direct: every non-byte memory operation becomes the MDA code sequence
//     (QEMU-style, §III-A).
//   - StaticProfile: sites marked by a prior train-input profiling run get
//     the MDA sequence (FX!32-style, §III-B).
//   - DynamicProfile: blocks are interpreted with MDA instrumentation until
//     a heating threshold; sites that did an MDA during profiling get the
//     sequence (IA-32 EL-style, §III-C). Undetected MDA sites trap to the
//     OS fixup on every occurrence.
//   - ExceptionHandling: translate everything as plain memory operations;
//     the BT's misalignment handler patches a faulting operation into a
//     branch to a freshly emitted MDA sequence on its first trap (§IV).
//   - DPEH: dynamic profiling with a low threshold plus the exception
//     handler for the leftovers (§IV-B), optionally with block
//     retranslation (§IV-C) and multi-version code (§IV-D).
package core

import (
	"fmt"
	"strings"

	"mdabt/internal/faultinject"
	"mdabt/internal/guest"
	"mdabt/internal/host"
	"mdabt/internal/policy"
)

// Mechanism selects the MDA handling mechanism (paper Table II): the value
// is an index into the internal/policy mechanism table, and the named
// constants below are its rows in order.
type Mechanism int

// Mechanisms under evaluation. SPEH (static profiling + exception
// handling) is the composite the paper implies but never measures.
const (
	Direct Mechanism = iota
	StaticProfile
	DynamicProfile
	ExceptionHandling
	DPEH
	SPEH
	AOT
)

// String returns the mechanism's canonical name.
func (m Mechanism) String() string {
	if row, ok := policy.Lookup(int(m)); ok {
		return row.Name
	}
	return "mechanism?"
}

// MechanismByName resolves a canonical mechanism name or alias ("eh",
// "dynprof", …) to its mechanism ID.
func MechanismByName(name string) (Mechanism, bool) {
	id, ok := policy.ID(name)
	return Mechanism(id), ok
}

// Mechanisms returns every mechanism in table (ID) order.
func Mechanisms() []Mechanism {
	out := make([]Mechanism, len(policy.Mechanisms))
	for i := range out {
		out[i] = Mechanism(i)
	}
	return out
}

// Options configures the translator: the mechanism, its tuning knobs
// (paper Table II), and the BT software cost model (DESIGN.md §5).
type Options struct {
	Mechanism Mechanism

	// HeatThreshold is the two-phase heating threshold: a block is
	// interpreted this many times before being translated (DynamicProfile
	// and DPEH; the paper sweeps 10..5000 in Fig. 10 and uses 50 overall).
	HeatThreshold uint64

	// Rearrange enables code rearrangement (§IV-A): after the exception
	// handler has patched a site, the block is retranslated in place with
	// the MDA sequence inline, restoring I-cache locality.
	Rearrange bool

	// Retranslate enables block retranslation (§IV-C): when
	// RetransThreshold misalignment exceptions have hit one block, its
	// translation is invalidated and profiling restarts for it.
	Retranslate      bool
	RetransThreshold int

	// MultiVersion enables two-shape code (§IV-D) for sites that are
	// misaligned only part of the time. The default granularity is
	// per-site (Fig. 8 left): each mixed site checks its own address and
	// runs either the plain instruction or the MDA sequence.
	MultiVersion bool
	// MVBlockGranularity switches to the paper's preferred block
	// granularity ("generating multi-version code on basic-block
	// granularity can help to decrease the runtime overhead"): one
	// alignment check at the first mixed site selects between two copies
	// of the remainder of the block — an optimistic all-plain copy and a
	// pessimistic all-sequence copy. The check runs once per block
	// execution instead of once per site execution.
	MVBlockGranularity bool

	// Adaptive enables the "truly adaptive method" the paper describes but
	// rejects on cost grounds (§IV-D, Fig. 8 right): MDA-sequence sites are
	// instrumented with an aligned-streak counter, and when a site stays
	// aligned for AdaptiveStreak consecutive executions the block is
	// retranslated with that site reverted to a plain memory operation.
	// The instrumentation itself costs ~10 instructions (3 memory, 2
	// branches) per execution — implemented here to measure the paper's
	// claim that it is not worth pursuing.
	Adaptive       bool
	AdaptiveStreak uint8

	// NoChain disables translation chaining (exit stubs are never patched
	// into direct branches), for the ablation experiment: every block exit
	// then pays the BRKBT dispatch round trip.
	NoChain bool

	// Superblocks enables trace formation in the second translation phase
	// (DynamicProfile/DPEH): a hot block is translated together with its
	// dominant successors, laid out fall-through, with cold side exits.
	// This is the "hot regions … retranslated and further optimized" step
	// of the paper's two-phase framework (§III-C, Fig. 9). Under AOT the
	// dominant-successor profile does not exist, so formation falls back
	// to static traces: only always-taken edges (direct jumps and block
	// splits) are folded, never conditional branches.
	Superblocks bool

	// Traces is ignored. The trace executor (DESIGN.md §14) is the host
	// machine's only dispatch loop, so every run is traced: the machine
	// forms a trace wherever execution reaches untraced code, one per
	// translated unit. The field stays so existing callers that set it
	// keep compiling; it never changes a result.
	Traces bool

	// IBTC enables an inline indirect-branch translation cache for RET
	// targets: a 256-entry direct-mapped guest-PC→host-PC table probed in
	// translated code, filled by the dispatcher on misses. This is the
	// content-associative lookup the DigitalBridge authors describe in
	// their companion paper (the paper's reference [19]); without it every
	// indirect transfer pays the BRKBT round trip into the monitor.
	IBTC bool

	// StaticSites is the train-run profile for StaticProfile: the set of
	// guest instruction addresses to translate into MDA sequences.
	StaticSites map[uint32]bool

	// StaticAlign layers the static alignment analysis (internal/align)
	// over the base mechanism: at Run entry the whole guest program is
	// analyzed with a per-register alignment lattice, and decisive verdicts
	// override the mechanism's site policy — proven-aligned sites emit
	// plain operations with no MDA sequence, trap hook, or adaptive
	// bookkeeping; proven-misaligned sites inline the MDA sequence eagerly
	// (zero first-trap cost). Unknown sites keep the base mechanism.
	// Verdicts are advisory for performance only: a wrong aligned verdict
	// degrades to the OS-style trap fixup, never to a wrong result.
	StaticAlign bool

	// AOT enables the ahead-of-time tier (DESIGN.md §13): at Run entry the
	// engine recovers the whole-binary CFG (or adopts AOTBlocks) and
	// pre-translates every reachable block before the first guest
	// instruction executes. Pre-translation is offline work — it charges no
	// simulated cycles and counts in Stats.AOTBlocks, not BlocksTranslated —
	// so the simulated run starts with a warm code cache. Indirect-target
	// misses and SMC invalidations fall back to the ordinary dynamic
	// translator (Stats.AOTFallbacks). The aot mechanism implies AOT, and
	// AOT implies StaticAlign: the align verdicts are what select plain /
	// eager-sequence / trap-guarded shapes per site during the offline
	// pass. Normalize applies both.
	AOT bool
	// AOTBlocks, when non-nil, is a pre-recovered block-entry schedule (an
	// internal/aot image) adopted instead of running CFG recovery in-engine:
	// the serializable-image seam. Engine.Reset with these options re-adopts
	// the image into the fresh code cache at the next Run. Requires AOT.
	AOTBlocks []uint32

	// EHHandlerCycles is the BT misalignment handler's software cost per
	// delivered trap, in host cycles; the rest of the BT cost model is the
	// constants below (DESIGN.md §5).
	EHHandlerCycles uint64

	// CodeCacheBytes bounds the code cache; on exhaustion the whole cache
	// is flushed (Dynamo-style, §IV-C) and translation restarts.
	CodeCacheBytes uint64

	// SliceInsts bounds one uninterrupted burst of host execution inside
	// RunContext: the machine runs at most this many instructions before
	// control returns to the dispatcher, which checks the context between
	// slices. Cancellation and deadlines therefore abort within one slice
	// rather than one full budget. Slicing is invisible to results and
	// statistics; it only bounds cancellation latency. Zero selects
	// DefaultSliceInsts.
	SliceInsts uint64

	// FaultPlan, when non-nil, enables deterministic fault injection at
	// the points defined in internal/faultinject. The engine propagates
	// the plan to the machine for trap-delivery faults.
	FaultPlan *faultinject.Plan

	// SelfCheck runs Engine.CheckInvariants after every flush, patch,
	// translation, and retranslation; the first violation aborts Run.
	SelfCheck bool
}

// DefaultOptions returns the configuration used by the experiments for the
// given mechanism: Options{Mechanism: m} with every default Normalize fills
// in (the paper's §VI settings: DynamicProfile threshold 50, DPEH low
// threshold, retranslation threshold 4).
func DefaultOptions(m Mechanism) Options {
	o := Options{Mechanism: m}
	o.Normalize()
	return o
}

// The BT software cost model, in host cycles (DESIGN.md §5), and the
// exception handler's patch-retry bound.
const (
	interpCyclesPerInst    = 45  // interpreting one guest instruction
	translateFixedCycles   = 500 // per translation unit
	translateCyclesPerInst = 250 // per translated guest instruction
	dispatchCycles         = 60  // one dispatcher round trip (BRKBT)
	// Code rearrangement (§IV-A) reuses the block's IR and relocates code,
	// so it charges a discounted per-instruction rate plus a fixed cost.
	rearrangeFixedCycles   = 800
	rearrangePerInstCycles = 120
	analyzeCyclesPerInst   = 40 // static alignment analysis, per guest instruction
	// patchRetryLimit bounds the exception handler's failed patch attempts
	// per site (stub zone full, assembler error, branch out of range).
	// Past the limit the trap-storm limiter demotes the site: the block is
	// invalidated so the retained-MDA record inlines the sequence on
	// retranslation, and the site falls back to permanent soft emulation
	// in the meantime.
	patchRetryLimit = 8
	// mixedSiteMin/Max bound the per-site misalignment ratio (observed
	// during profiling) that classifies a site as "mixed" for
	// multi-version code (§IV-D).
	mixedSiteMin = 0.05
	mixedSiteMax = 0.95
)

// DefaultSliceInsts is the default cancellation-check granularity of
// RunContext, in host instructions: small enough that a deadline aborts in
// well under a millisecond of wall clock, large enough that the per-slice
// dispatch overhead vanishes against the simulated work.
const DefaultSliceInsts = 1 << 20

// Normalize fills zero-valued tuning fields with the mechanism defaults
// and applies the implied settings — the aot mechanism sets AOT, and AOT
// sets StaticAlign — so a hand-built Options behaves exactly like
// DefaultOptions with the same fields set. It is idempotent. NewEngine,
// Validate and Fingerprint normalize their own copy; code that inspects
// Options before building an engine calls it first.
func (o *Options) Normalize() {
	if o.HeatThreshold == 0 {
		o.HeatThreshold = 50
		if row, ok := policy.Lookup(int(o.Mechanism)); ok {
			o.HeatThreshold = row.Heat
		}
	}
	if o.RetransThreshold == 0 {
		o.RetransThreshold = 4
	}
	if o.AdaptiveStreak == 0 {
		o.AdaptiveStreak = 200
	}
	if o.EHHandlerCycles == 0 {
		o.EHHandlerCycles = 1500
	}
	if o.CodeCacheBytes == 0 {
		o.CodeCacheBytes = 4 << 20
	}
	if o.SliceInsts == 0 {
		o.SliceInsts = DefaultSliceInsts
	}
	if o.Mechanism == AOT {
		// The aot mechanism is the AOT tier: pre-translate everything from
		// the recovered CFG.
		o.AOT = true
	}
	if o.AOT {
		o.StaticAlign = true
	}
}

// newPolicy builds the engine's decision procedure for validated options:
// the mechanism's table row plus the §IV extensions the options enable.
// Validate has already rejected extensions the row cannot honor and IDs
// outside the table.
func (o *Options) newPolicy() policy.Policy {
	row, _ := policy.Lookup(int(o.Mechanism))
	p := policy.Policy{Mechanism: row, Adaptive: o.Adaptive, Rearrange: o.Rearrange, StaticAlign: o.StaticAlign}
	if o.MultiVersion {
		p.MixedMin, p.MixedMax = mixedSiteMin, mixedSiteMax
	}
	if o.Retranslate {
		// BlockTraps counts from one, so a threshold at or below one
		// retranslates on the first trap.
		p.RetransAt = max(o.RetransThreshold, 1)
	}
	return p
}

// Validate rejects contradictory option combinations that previously
// no-opped silently. It checks the effective configuration — a normalized
// copy with mechanism defaults filled in — so a zero HeatThreshold only
// fails when the mechanism's own default is zero too. NewEngine validates
// automatically (the error surfaces from Run); CLIs call it up front for
// early diagnostics.
func (o Options) Validate() error {
	o.Normalize()
	row, ok := policy.Lookup(int(o.Mechanism))
	if !ok {
		return fmt.Errorf("core: unknown mechanism id %d (have %s)",
			int(o.Mechanism), strings.Join(policy.Names(), ", "))
	}
	profiled, patching, name := row.Interp, row.Patches, row.Name
	switch {
	case o.Rearrange && !patching:
		return fmt.Errorf("core: Rearrange needs an exception-patching mechanism, not %s", name)
	case o.Retranslate && !patching:
		return fmt.Errorf("core: Retranslate needs an exception-patching mechanism, not %s", name)
	case o.MultiVersion && !(profiled && patching):
		return fmt.Errorf("core: MultiVersion needs a profiling exception-patching mechanism (dpeh), not %s", name)
	case o.Adaptive && !(profiled && patching):
		return fmt.Errorf("core: Adaptive needs a profiling exception-patching mechanism (dpeh), not %s", name)
	case o.MVBlockGranularity && !o.MultiVersion:
		return fmt.Errorf("core: MVBlockGranularity requires MultiVersion")
	case profiled && o.HeatThreshold == 0:
		return fmt.Errorf("core: %s is two-phase but the heating threshold is zero", name)
	case o.AOT && profiled:
		return fmt.Errorf("core: AOT pre-translation is single-phase; %s interprets first to profile", name)
	case o.AOT && o.MultiVersion:
		return fmt.Errorf("core: MultiVersion needs interpretation profiles, which AOT pre-translation never gathers")
	case o.AOT && o.Adaptive:
		return fmt.Errorf("core: Adaptive needs interpretation profiles, which AOT pre-translation never gathers")
	case o.Superblocks && o.MVBlockGranularity:
		return fmt.Errorf("core: Superblocks cannot splice block-granularity multi-version code: the one alignment check at the first mixed site would guard sites of every folded block; use per-site MultiVersion with Superblocks, or drop MVBlockGranularity")
	case o.AOTBlocks != nil && !o.AOT:
		return fmt.Errorf("core: AOTBlocks is an AOT image schedule; set AOT to adopt it")
	}
	return nil
}

// Guest→host register mapping (paper Fig. 2: "register %eax and %ebx in X86
// are mapped to register R1 and R2 in the Alpha binary respectively, and
// register 21-30 of Alpha are used as temporal registers").
//
// Guest GPRs live in host registers sign-extended to 64 bits; guest
// quadword (F) registers live in host registers raw. Guest addresses are
// assumed to stay below 2^31 (standard 32-bit user space), so the
// sign-extended values are also valid host addresses.
func hostGPR(r guest.Reg) host.Reg { return host.R1 + host.Reg(r) }

func hostFR(f guest.FReg) host.Reg { return host.R9 + host.Reg(f) }

// BT temporaries.
const (
	tmpIndirect = host.R0  // indirect-exit guest target
	tmpA        = host.R21 // MDA sequence scratch
	tmpB        = host.R22
	tmpEA       = host.R23 // effective address
	tmpC        = host.R24
	tmpD        = host.R25
	tmpImm      = host.R27 // immediate materialization
	tmpCond     = host.R28 // branch condition materialization
)

// BRKBT service payloads.
const (
	svcHalt     = 0 // machine.HaltService
	svcIndirect = 1 // dispatch to guest PC in tmpIndirect
	// svcFault is the fault pad's payload: the access-fault handler parks
	// the machine on the pad after recording a pending guest fault, and the
	// dispatcher delivers it precisely through the interpreter.
	svcFault    = 2
	svcExitBase = 8 // payload-svcExitBase indexes the engine's exit table
	// svcAdaptiveFlag marks an adaptive-revert request; the low bits index
	// the engine's adaptive-site table. Exit IDs stay below the flag.
	svcAdaptiveFlag = 1 << 24
)

// btFaultBase is the host address of the fault pad: a single BRKBT(svcFault)
// written by configure. Trap handlers that detect a guest-visible fault
// resume the machine here instead of at the faulting access, so the machine
// stops at a dispatch boundary with no further memory traffic and the
// engine can rewind to the faulting guest instruction (DESIGN.md §12).
const btFaultBase = 0x7E00_0000

// counterBase is the host address of the BT's adaptive streak counters
// (guest-invisible data, kept below 2^31 so a single LDAH/LDA pair
// materializes any counter address).
const counterBase = 0x7C00_0000

// IBTC geometry: a direct-mapped table of (guest PC, host PC) quadword
// pairs in BT-private memory.
const (
	ibtcBase    = 0x7D00_0000
	ibtcEntries = 256
	ibtcShift   = 2 // index = (guestPC >> ibtcShift) & (ibtcEntries-1)
)

// Stats counts BT-level events (machine-level counters such as cycles and
// traps live in machine.Counters).
type Stats struct {
	BlocksTranslated uint64 // translations performed (incl. re-translations)
	Retranslations   uint64 // §IV-C invalidate-and-retranslate events
	Rearrangements   uint64 // §IV-A repositioning events
	Patches          uint64 // exception-handler branch patches
	MDAStubs         uint64 // MDA sequences emitted by the handler
	InterpretedInsts uint64 // guest instructions interpreted (phase 1)
	NativeBlockRuns  uint64 // dispatches into translated code
	Links            uint64 // exit stubs patched into direct branches
	Flushes          uint64 // full code cache flushes
	InterpretedMDAs  uint64 // MDAs handled softly during interpretation
	MultiVersion     uint64 // blocks containing per-site multi-version code
	AdaptiveSites    uint64 // sites emitted with adaptive instrumentation
	AdaptiveReverts  uint64 // sites reverted to plain operations
	IBTCFills        uint64 // indirect-branch cache entries installed
	Superblocks      uint64 // multi-block traces formed
	TraceBlocks      uint64 // basic blocks folded into traces

	// Static alignment analysis (Options.StaticAlign).
	StaticAnalyzedInsts   uint64 // guest instructions the analysis visited
	StaticAlignedSites    uint64 // translated sites proven aligned (plain, no trap hook)
	StaticMisalignedSites uint64 // translated sites proven misaligned (eager MDA)
	StaticUnknownSites    uint64 // translated sites left to the base mechanism
	StaticAlignViolations uint64 // misaligned accesses trapping at host PCs claimed proven-aligned (soundness bug)

	// Degradation-ladder counters (failure modes that previously degraded
	// silently; see DESIGN.md §7).
	StubZoneFull       uint64 // stub allocations refused by the exception handler
	UnpatchableSites   uint64 // patch attempts abandoned (assembler error, branch out of range, unpatchable op)
	InterpFallbacks    uint64 // executions of blacklisted blocks via the interpreter
	TrapStormDemotions uint64 // sites demoted to soft emulation by the retry limiter
	InjectedFaults     uint64 // faults fired by the injection plan (all points)

	// Guest-visible memory faults and self-modifying code (DESIGN.md §12).
	GuestFaults        uint64 // precise guest faults delivered (page-protection violations)
	GuestFaultResumes  uint64 // translated-code traps handed to the interpreter for precise delivery
	SMCInvalidations   uint64 // translations discarded because the guest wrote its own code
	SMCDecodeFlushes   uint64 // decode-cache entries dropped by guest code writes
	UnattributedFaults uint64 // access traps outside any translation, re-executed raw

	// Ahead-of-time tier (Options.AOT; DESIGN.md §13).
	AOTBlocks    uint64 // blocks pre-translated offline from the recovered CFG
	AOTHits      uint64 // dispatches that landed in a pre-translated block
	AOTFallbacks uint64 // dynamic (JIT) translations performed despite AOT (indirect miss, SMC, flush)
}

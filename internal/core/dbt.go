package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"mdabt/internal/align"
	"mdabt/internal/faultinject"
	"mdabt/internal/guest"
	"mdabt/internal/host"
	"mdabt/internal/machine"
	"mdabt/internal/mem"
	"mdabt/internal/policy"
)

// ErrBudget is returned by Run when the host-instruction budget is
// exhausted before the guest program halts.
var ErrBudget = errors.New("core: execution budget exhausted")

// ErrBlockTooLarge reports a translation unit that does not fit the code
// cache even when empty. Run does not fail on it: the block is routed to
// the interpreter-fallback blacklist (degradation ladder, DESIGN.md §7).
var ErrBlockTooLarge = errors.New("core: block exceeds code cache capacity")

// errInjectedTranslate marks a fault-injected translation failure; like
// ErrBlockTooLarge it degrades to the interpreter blacklist when it
// persists through the retry.
var errInjectedTranslate = errors.New("core: injected translation fault")

// Engine is the dynamic binary translator (DigitalBridge-like, paper Fig.
// 9): interpreter + translator + code cache + dynamic monitor + BT
// misalignment exception handler, configured with one MDA handling
// mechanism.
type Engine struct {
	Mem  *mem.Memory
	Mach *machine.Machine
	Opt  Options
	CPU  guest.CPU

	// pol decides every MDA site shape and trap reaction: the mechanism's
	// table row plus the option extensions, built once from Opt (see
	// internal/policy).
	pol policy.Policy
	// optErr latches an Options validation failure, an unknown mechanism
	// included; Run reports it immediately (NewEngine keeps its
	// error-free signature).
	optErr error

	cc    *codeCache
	exits []*exit
	// dec is the PC-indexed decode cache and the engine's one per-guest-PC
	// table: each entry carries the instruction's alignment profile and its
	// pcState (live block, heat, blacklist bit, retained and reverted
	// sites, trap count, soft-emulation demotion).
	dec decodeCache
	// unitBuf and wordBuf are translate's scratch: a unit's instruction
	// records and its per-word table are gathered here and copied into the
	// block at their final length.
	unitBuf []unitInst
	wordBuf []hostWord
	// asm is the one assembler every emission reuses: each unit translate
	// emits and each exception-handler stub handleMisalign emits. An
	// emission runs from Reset to writing Finish's words into the machine,
	// and none of that executes guest code, so no trap (and no rearranging
	// translate inside one) can start another emission in the middle.
	asm host.Asm
	// aotPreseedSkips counts schedule entries the preseed pass had to
	// leave to dynamic discovery (adopted image not matching the loaded
	// program); surfaced through Lint as a degraded-adoption finding.
	aotPreseedSkips int
	// invariantErr latches the first self-check violation (Opt.SelfCheck);
	// Run aborts with it at the next dispatch.
	invariantErr error
	// adaptives indexes adaptive-site BRKBT payloads.
	adaptives   []adaptiveRef
	counterNext uint64
	// alignDB holds the whole-program static alignment analysis
	// (Options.StaticAlign), built at Run entry and consulted by
	// sitePolicies/memAccessSub for verdict overrides.
	alignDB    *align.Analysis
	alignEntry uint32
	// AOT pre-translation state (Options.AOT; core/aot.go). aotPass marks
	// translations performed by the offline pass (they charge no simulated
	// cycles and count as Stats.AOTBlocks); aotDone/aotEntry memoize the
	// pass per entry point; aotCoverage stashes the image-coverage lint
	// findings for Engine.Lint.
	aotPass     bool
	aotDone     bool
	aotEntry    uint32
	aotCoverage []align.Finding
	// blockSpans and stubRanges attribute trapped host PCs back to guest
	// instructions for precise fault delivery (fault.go). Both are
	// append-only within a cache generation and cleared only on flush:
	// invalidated blocks keep their spans because stale code can still
	// execute (and trap) until the next dispatch boundary. blockSpans is
	// also the list of every unit committed in this generation, in host
	// order: the live blocks are its entries not marked invalid.
	blockSpans []blockSpan
	stubRanges []stubRange
	// pendingFault carries a detected guest fault from the in-machine trap
	// handlers to the dispatcher's deliverFault.
	pendingFault *pendingFault
	// ibtc mirrors the in-memory indirect-branch cache so invalidation can
	// evict entries pointing into discarded translations.
	ibtc [ibtcEntries]ibtcEntry

	stats       Stats
	events      *eventLog
	hostCurrent bool // guest state lives in host registers (vs e.CPU)
	halted      bool
	// curTarget is the guest PC the dispatcher is currently working on; a
	// panic recovered at the RunContext boundary stamps it into the
	// Internal error as block context.
	curTarget uint32
}

// ibtcEntry is the engine-side mirror of one IBTC slot.
type ibtcEntry struct {
	guest uint32
	host  uint64
	valid bool
}

// NewEngine builds a translator over the shared memory and host machine.
// It registers itself as the machine's misalignment handler.
func NewEngine(m *mem.Memory, mach *machine.Machine, opt Options) *Engine {
	e := &Engine{Mem: m, Mach: mach}
	e.configure(opt)
	return e
}

// configure (re)initializes every piece of translator state for opt. The
// decode cache's dense arena and the code cache's address range are reused
// in place; everything else is rebuilt, so a configured engine is
// indistinguishable from a fresh one.
func (e *Engine) configure(opt Options) {
	opt.Normalize()
	e.Opt = opt
	if e.cc == nil {
		e.cc = newCodeCache(opt.CodeCacheBytes, opt.FaultPlan)
	} else {
		e.cc.reconfigure(opt.CodeCacheBytes, opt.FaultPlan)
	}
	e.exits = nil
	e.dec.reset() // keep the arena; every entry back to undecoded, no run state
	e.aotPreseedSkips = 0
	e.invariantErr = nil
	e.adaptives = nil
	e.counterNext = counterBase
	e.alignDB, e.alignEntry = nil, 0
	e.aotPass, e.aotDone, e.aotEntry, e.aotCoverage = false, false, 0, nil
	e.blockSpans = nil
	e.stubRanges = nil
	e.pendingFault = nil
	e.ibtc = [ibtcEntries]ibtcEntry{}
	e.stats = Stats{}
	e.CPU = guest.CPU{}
	e.hostCurrent = false
	e.halted = false
	e.curTarget = 0
	e.pol, e.optErr = policy.Policy{}, opt.Validate()
	if e.optErr == nil {
		e.pol = opt.newPolicy()
	}
	e.Mach.SetMisalignHandler(e.handleMisalign)
	e.Mach.SetAccessFaultHandler(e.handleAccessFault)
	e.writeFaultPad()
	e.Mach.SetFaultPlan(nil)
	if opt.FaultPlan != nil {
		// Trap-delivery faults (spurious/duplicate traps) fire inside the
		// machine; every fired point also lands in the engine's event log.
		e.Mach.SetFaultPlan(opt.FaultPlan)
		opt.FaultPlan.Observe(func(pt faultinject.Point) {
			e.event(EvFault, 0, 0, string(pt))
		})
	}
}

// Reset returns the engine — and its machine and memory — to a
// just-constructed state under opt, so one System can execute program after
// program with fresh statistics and a cold simulated machine. It is the
// cheap-reuse primitive of the serving layer (internal/serve): the memory's
// page arena and trap table, the machine's trace tables and trace-step
// arena, the guest decode cache, the event log buffer, and the
// code-cache address range are all retained, only their contents cleared.
// A reset engine produces bit-identical results and statistics to a
// freshly built one.
func (e *Engine) Reset(opt Options) {
	e.Mem.Reset()
	e.Mach.Reset()
	e.events.reset()
	e.configure(opt)
}

// Stats returns the BT-level statistics. InjectedFaults reflects the fault
// plan's total at the time of the call (all points, engine and machine).
func (e *Engine) Stats() Stats {
	s := e.stats
	s.InjectedFaults = e.Opt.FaultPlan.Total()
	return s
}

// Blocks returns the number of live translations.
func (e *Engine) Blocks() int { return len(e.TranslatedPCs()) }

// TraceStats returns the host-side trace-tier telemetry (traces formed,
// chain follows, invalidations, steps relowered, traced host
// instructions). Deliberately not part of Stats: which traces exist is
// simulation-invisible, and their counters must never enter the simulated
// fingerprint.
func (e *Engine) TraceStats() machine.TraceStats { return e.Mach.TraceStats() }

// CodeCacheUsed returns bytes allocated in the code cache.
func (e *Engine) CodeCacheUsed() uint64 { return e.cc.used() }

// LoadImage copies a guest binary image into memory at base.
func (e *Engine) LoadImage(base uint32, image []byte) {
	e.Mem.WriteBytes(uint64(base), image)
}

// adaptiveRef resolves an adaptive BRKBT payload to its site.
type adaptiveRef struct {
	b       *block
	instIdx int
	counter uint64
}

// errCounterSpace reports that the adaptive streak counters have filled
// their region, which ends where the IBTC begins.
var errCounterSpace = errors.New("core: adaptive counter region exhausted")

// allocCounter reserves a 4-byte adaptive streak counter. translate
// rewinds counterNext when the unit that took counters does not commit.
func (e *Engine) allocCounter() (uint64, error) {
	addr := e.counterNext
	if addr+4 > ibtcBase {
		return 0, errCounterSpace
	}
	e.counterNext += 4
	return addr, nil
}

// ibtcFill installs an IBTC entry for a resolved indirect target.
func (e *Engine) ibtcFill(guestPC uint32, hostEntry uint64) {
	idx := (guestPC >> ibtcShift) & (ibtcEntries - 1)
	addr := uint64(ibtcBase) + uint64(idx)*16
	e.Mem.Write64(addr, uint64(guestPC))
	e.Mem.Write64(addr+8, hostEntry)
	e.ibtc[idx] = ibtcEntry{guestPC, hostEntry, true}
	e.event(EvIBTCFill, guestPC, hostEntry, "")
	e.stats.IBTCFills++
	e.Mach.AddCycles(20) // table update in the monitor
}

// ibtcEvict clears entries whose host target lies in [lo, hi) — called when
// a translation is invalidated, and over the whole code cache on a flush.
func (e *Engine) ibtcEvict(lo, hi uint64) {
	for i := range e.ibtc {
		if e.ibtc[i].valid && e.ibtc[i].host >= lo && e.ibtc[i].host < hi {
			addr := uint64(ibtcBase) + uint64(i)*16
			e.Mem.Write64(addr, 0)
			e.Mem.Write64(addr+8, 0)
			e.ibtc[i].valid = false
		}
	}
}

// handleAdaptiveRevert services an adaptive site's BRKBT: the site has been
// aligned for a full streak, so the block is retranslated with it reverted
// to a plain memory operation (§IV-D).
func (e *Engine) handleAdaptiveRevert(id uint32) error {
	if int(id) >= len(e.adaptives) {
		return fmt.Errorf("core: bad adaptive payload %d", id)
	}
	ref := e.adaptives[id]
	st := e.dec.state(ref.b.guestPC)
	st.reverted.add(ref.instIdx)
	if e.events != nil {
		e.event(EvRevert, ref.b.guestPC, 0, fmt.Sprintf("site #%d", ref.instIdx))
	}
	// Reverting wins over the trap-discovered record, else the next
	// translation would immediately re-inline the sequence. The streak
	// counter resets so the stale code cannot refire before its block
	// exits.
	st.retained.del(ref.instIdx)
	e.Mem.Write32(ref.counter, 0)
	if !ref.b.invalid {
		e.invalidateBlock(ref.b)
	}
	e.stats.AdaptiveReverts++
	return nil
}

// syncToHost copies the guest architectural state into the host register
// file (GPRs sign-extended, per the translation invariant).
func (e *Engine) syncToHost() {
	if e.hostCurrent {
		return
	}
	for r := guest.Reg(0); r < guest.NumRegs; r++ {
		e.Mach.SetReg(hostGPR(r), uint64(int64(int32(e.CPU.R[r]))))
	}
	for f := guest.FReg(0); f < guest.NumFRegs; f++ {
		e.Mach.SetReg(hostFR(f), e.CPU.F[f])
	}
	e.hostCurrent = true
}

// syncToCPU copies the host register file back into the guest state.
func (e *Engine) syncToCPU() {
	if !e.hostCurrent {
		return
	}
	for r := guest.Reg(0); r < guest.NumRegs; r++ {
		e.CPU.R[r] = uint32(e.Mach.Reg(hostGPR(r)))
	}
	for f := guest.FReg(0); f < guest.NumFRegs; f++ {
		e.CPU.F[f] = e.Mach.Reg(hostFR(f))
	}
	e.hostCurrent = false
}

// FinalCPU returns the guest architectural state (for co-simulation
// checks). Valid after Run returns.
func (e *Engine) FinalCPU() guest.CPU {
	e.syncToCPU()
	return e.CPU
}

// invalidateBlock removes b's translation: unmaps it, unlinks every direct
// branch into it, and marks it so in-flight execution of the stale code is
// handled conservatively by the exception handler.
func (e *Engine) invalidateBlock(b *block) {
	e.event(EvInvalidate, b.guestPC, b.hostEntry, "")
	e.unbind(b)
	if e.Opt.IBTC {
		e.ibtcEvict(b.hostEntry, b.hostEntry+b.hostSize)
	}
	for _, ex := range b.incoming {
		if ex.linked {
			e.Mach.Patch(ex.hostPC, host.MustEncode(host.Inst{
				Op: host.BRKBT, Payload: svcExitBase + ex.id,
			}))
			ex.linked = false
		}
	}
	b.incoming = nil
}

// unbind marks b invalid and drops its binding at its start-PC entry.
func (e *Engine) unbind(b *block) {
	b.invalid = true
	if st := e.dec.stateAt(b.guestPC); st != nil && st.blk == b {
		st.blk = nil
	}
}

// flushAll empties the code cache (Dynamo-style full flush) when an
// allocation fails or a forced flush is injected. Both zones are reclaimed
// — block bodies and the exception handler's MDA stubs. Only the block
// bindings go: heating profiles, trap-discovered MDA sites, the
// interpreter blacklist, and soft-emulation demotions stay on the per-PC
// table.
//
// Flushing clears the exit table, so it is only safe at a dispatch
// boundary (never from inside the trap handler, where stale code holding
// live BRKBT exit payloads is still executing).
func (e *Engine) flushAll() {
	for _, sp := range e.blockSpans {
		if !sp.b.invalid {
			e.unbind(sp.b)
		}
	}
	e.exits = nil
	// A flush is only reached at a dispatch boundary, so no stale code (and
	// no stale trap) can outlive it: the attribution tables reset with the
	// allocator whose addresses they describe.
	e.blockSpans = nil
	e.stubRanges = nil
	e.cc.reset()
	e.Mach.IMB()
	if e.Opt.IBTC {
		e.ibtcEvict(e.cc.base, e.cc.base+e.cc.size)
	}
	e.event(EvFlush, 0, 0, "")
	e.stats.Flushes++
	e.selfCheck("flush")
}

// ensureTranslated translates pc, walking the recovery ladder: a full
// cache flushes and retries once; a block that still does not fit reports
// ErrBlockTooLarge (the caller blacklists it to the interpreter); an
// injected transient fault gets one retry before degrading the same way.
func (e *Engine) ensureTranslated(pc uint32) (*block, error) {
	b, err := e.translate(pc, translateCyclesPerInst)
	switch err {
	case errCodeCacheFull:
		e.flushAll()
		b, err = e.translate(pc, translateCyclesPerInst)
		if err == errCodeCacheFull {
			err = fmt.Errorf("%w: block %#x", ErrBlockTooLarge, pc)
		}
	case errInjectedTranslate:
		b, err = e.translate(pc, translateCyclesPerInst)
		if err == errCodeCacheFull {
			e.flushAll()
			b, err = e.translate(pc, translateCyclesPerInst)
		}
	}
	return b, err
}

// blacklistBlock permanently routes pc to the interpreter: the bottom rung
// of the translation ladder (translate → flush → interpreter).
func (e *Engine) blacklistBlock(pc uint32, cause error) {
	e.dec.state(pc).blacklisted = true
	if e.events != nil {
		e.event(EvDegrade, pc, 0, "interpreter fallback: "+cause.Error())
	}
}

// Run executes the guest program from entry until it halts or the machine
// has retired maxHostInsts host instructions (interpreted guest
// instructions count 1:1 against the same budget). It returns ErrBudget on
// exhaustion.
func (e *Engine) Run(entry uint32, maxHostInsts uint64) error {
	return e.RunContext(context.Background(), entry, maxHostInsts)
}

// RunContext is Run with cooperative cancellation: execution proceeds in
// bounded budget slices (Options.SliceInsts host instructions at most) and
// the context is checked between slices, so a deadline or cancellation
// aborts within one slice rather than one full budget. The returned error
// satisfies errors.Is against ctx.Err() when the context caused the abort.
//
// Every failure escaping the translate/dispatch/trap paths — including
// recovered panics, which surface as Internal ClassifiedErrors carrying
// the in-flight block PC and host PC — is classified (see ErrClass), so
// callers can distinguish a bad program from a transient fault from an
// engine bug. Slicing is invisible to simulated results and statistics.
func (e *Engine) RunContext(ctx context.Context, entry uint32, maxHostInsts uint64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			// The guest register state in the host register file is not
			// trustworthy mid-panic; keep the last synced CPU snapshot.
			e.hostCurrent = false
			err = &ClassifiedError{
				Class:   Internal,
				BlockPC: e.curTarget,
				HostPC:  e.Mach.PC(),
				Err:     fmt.Errorf("recovered panic: %v\n%s", r, debug.Stack()),
			}
		}
	}()
	if e.optErr != nil {
		return WithClass(Permanent, e.optErr)
	}
	e.CPU.Reset(entry)
	e.hostCurrent = false
	e.halted = false
	if e.Opt.StaticAlign && (e.alignDB == nil || e.alignEntry != entry) {
		e.buildAlignDB(entry)
	}
	if e.Opt.AOT && (!e.aotDone || e.aotEntry != entry) {
		e.preseedAOT(entry)
	}
	slice := e.Opt.SliceInsts
	target := entry
	e.curTarget = entry
	resume := false // re-enter the machine at its current PC (adaptive
	// revert, or a budget slice that ended mid-block)
	sliceEnd := false // this re-entry resumes an interrupted slice, not a
	// fresh dispatch: NativeBlockRuns must not recount it
	for !e.halted {
		e.curTarget = target
		if cerr := ctx.Err(); cerr != nil {
			e.syncToCPU()
			return &ClassifiedError{Class: Permanent, BlockPC: target, Err: cerr}
		}
		budgetUsed := e.Mach.Counters().Insts + e.stats.InterpretedInsts
		if budgetUsed >= maxHostInsts {
			e.syncToCPU()
			return WithClass(Permanent, ErrBudget)
		}
		if !resume {
			if e.invariantErr != nil {
				e.syncToCPU()
				return WithClass(Internal, e.invariantErr)
			}
			// A dispatch boundary is the only point where flushing is safe
			// (no stale exit payloads in flight), so the injected forced
			// flush fires here and nowhere else.
			if e.Opt.FaultPlan.Should(faultinject.ForcedFlush) {
				e.flushAll()
			}
			st := e.dec.state(target)
			if st.blacklisted {
				// Bottom rung of the ladder: the block failed translation
				// permanently, so it runs on the interpreter forever.
				e.syncToCPU()
				e.stats.InterpFallbacks++
				next, err := e.interpretBlock(target)
				if err != nil {
					// Interpretation fails only on undecodable or
					// inexecutable guest code, or on a precise guest
					// memory fault: the program (or its input) is bad.
					return e.guestError(target, err)
				}
				target = next
				continue
			}
			b := st.blk
			if b == nil {
				if e.pol.Interp {
					if st.heat < e.Opt.HeatThreshold {
						e.syncToCPU()
						st.heat++
						next, err := e.interpretBlock(target)
						if err != nil {
							return e.guestError(target, err)
						}
						if e.Opt.Superblocks {
							if st.succ == nil {
								st.succ = make(map[uint32]uint64)
							}
							st.succ[next]++
						}
						target = next
						continue
					}
				}
				var err error
				b, err = e.ensureTranslated(target)
				if err != nil {
					if errors.Is(err, ErrBlockTooLarge) || errors.Is(err, errInjectedTranslate) {
						e.blacklistBlock(target, err)
						continue
					}
					// Translation failures that survive the recovery ladder
					// are bad guest code (undecodable instructions, or a
					// fetch-protection fault found while decoding) or a run
					// whose adaptive units filled the streak-counter region;
					// retrying either reproduces it.
					return e.guestError(target, err)
				}
			}
			if b.aot {
				e.stats.AOTHits++
			}
			e.syncToHost()
			e.Mach.SetPC(b.hostEntry)
		}
		if !sliceEnd {
			e.stats.NativeBlockRuns++
		}
		resume, sliceEnd = false, false
		// Nothing on the paths from the loop top to here retires host or
		// interpreted instructions, so the budget snapshot is still exact.
		remaining := maxHostInsts - budgetUsed
		if slice > 0 && remaining > slice {
			remaining = slice
		}
		reason, payload, err := e.Mach.Run(remaining)
		if err != nil {
			// The machine failed to decode code the translator emitted —
			// an engine bug, not a property of the guest program.
			return &ClassifiedError{Class: Internal, BlockPC: target, HostPC: e.Mach.PC(), Err: err}
		}
		switch reason {
		case machine.StopHalt:
			e.halted = true
		case machine.StopLimit:
			// Either the slice or the whole budget ran out mid-block; the
			// loop top tells them apart (and re-checks the context). Resume
			// at the machine's current PC without recounting the dispatch.
			resume, sliceEnd = true, true
		case machine.StopBrk:
			e.Mach.AddCycles(dispatchCycles)
			if payload == svcFault {
				// A trap handler parked the machine on the fault pad: rewind
				// to the faulting guest instruction and re-execute it under
				// the interpreter — a precise guest fault aborts the run, a
				// self-modifying store completes and invalidates stale code.
				next, ferr := e.deliverFault()
				if ferr != nil {
					return ferr
				}
				target = next
				continue
			}
			if payload == svcIndirect {
				target = uint32(e.Mach.Reg(tmpIndirect))
				if e.Opt.IBTC {
					if tb := e.dec.blockAt(target); tb != nil {
						e.ibtcFill(target, tb.hostEntry)
					}
				}
				continue
			}
			if payload&svcAdaptiveFlag != 0 {
				if err := e.handleAdaptiveRevert(payload &^ svcAdaptiveFlag); err != nil {
					return err
				}
				// Resume in place: the machine's PC already points past the
				// BRKBT, into the (stale but still correct) aligned path of
				// the adaptive site.
				resume = true
				continue
			}
			idx := payload - svcExitBase
			if int(idx) >= len(e.exits) {
				return fmt.Errorf("core: run: bad exit payload %d", payload)
			}
			ex := e.exits[idx]
			target = ex.targetGuest
			e.maybeLink(ex)
		}
	}
	e.syncToCPU()
	if e.invariantErr != nil {
		return e.invariantErr
	}
	return nil
}

// maybeLink patches an exit stub into a direct branch when its target is
// translated and in branch range (translation chaining).
func (e *Engine) maybeLink(ex *exit) {
	if e.Opt.NoChain || ex.linked || ex.from.invalid {
		return
	}
	tb := e.dec.blockAt(ex.targetGuest)
	if tb == nil {
		return
	}
	d, fits := host.BrDispFor(ex.hostPC, tb.hostEntry)
	if !fits {
		return
	}
	e.Mach.Patch(ex.hostPC, host.MustEncode(host.Inst{Op: host.BR, Ra: host.Zero, Disp: d}))
	ex.linked = true
	tb.incoming = append(tb.incoming, ex)
	e.event(EvLink, ex.targetGuest, ex.hostPC, "")
	e.stats.Links++
}

// handleMisalign is the BT's misalignment exception handler (paper §IV,
// Fig. 5): registered with the machine, called after the architectural trap
// cost is charged.
func (e *Engine) handleMisalign(m *machine.Machine, pc uint64, inst host.Inst, ea uint64) uint64 {
	// Guest-fault pre-check: before any path below emulates the access
	// (which would commit a store the guest is not allowed to make), test
	// the guest access range against the page protections. A violating or
	// code-watched access is rerouted to the fault pad for precise
	// delivery, exactly like an access-protection trap (fault.go).
	if e.Mem.Armed() {
		if b, idx, ok := e.resolveFaultSite(pc); ok && isGuestAccess(inst) &&
			e.faultsGuest(b, idx, inst.Op.IsStore()) {
			e.pendingFault = &pendingFault{b: b, idx: idx}
			return btFaultBase
		}
	}
	// The trapping word's record names its memory site, if it is one the
	// translator registered with this handler.
	b := e.blockSpanAt(pc)
	var site *memSite
	if b != nil {
		if w := b.word(pc); w.site != noSite {
			site = b.sites[w.site]
		}
	}
	known := site != nil
	// The mechanism decides the reaction; Fixup means it has no exception
	// handler and the OS-style software fixup is the permanent cost.
	act := policy.Fixup
	if known {
		e.dec.state(site.guestPC).traps++
		act = e.pol.Trap(policy.TrapCtx{
			GuestPC:    site.guestPC,
			BlockPC:    b.guestPC,
			BlockTraps: b.trapCount + 1,
		})
	}
	if !known || act == policy.Fixup || b.invalid {
		// OS-style fixup: emulate the access and continue. This is the
		// every-time cost that Direct/Static/Dynamic mechanisms pay for
		// sites they failed to convert, and the conservative path for
		// stale code. Traps in stale (invalidated) code still teach the
		// translator about the site, so the pending retranslation inlines
		// it instead of rediscovering it one trap at a time.
		if known && act != policy.Fixup && b.invalid {
			e.dec.state(b.guestPC).retained.add(site.instIdx)
		}
		if !known && b != nil && e.Opt.StaticAlign && ea&uint64(inst.Op.MemSize()-1) != 0 {
			// Proven-aligned emissions carry no site registration, so a
			// misaligned access at one of their PCs lands here — flag the
			// soundness violation. An aligned one is an injected trap.
			e.noteAlignViolation(b, pc)
		}
		m.EmulateAccess(inst, ea)
		return pc + host.InstBytes
	}
	if e.events != nil {
		e.event(EvTrap, site.guestPC, pc, fmt.Sprintf("ea=%#x", ea))
	}
	b.trapCount++
	bst := e.dec.state(b.guestPC)
	bst.retained.add(site.instIdx)
	m.AddTrapCycles(e.Opt.EHHandlerCycles)

	if e.dec.state(site.guestPC).softEmu {
		// Demoted by the trap-storm limiter: fix the access up in software
		// permanently, without further patch or retranslation attempts.
		m.EmulateAccess(inst, ea)
		return pc + host.InstBytes
	}

	// Retranslation policy (§IV-C, Fig. 7): too many traps in one block ⇒
	// discard the translation and restart profiling for it.
	if act == policy.Retranslate {
		m.EmulateAccess(inst, ea)
		e.invalidateBlock(b)
		bst.heat, bst.succ = 0, nil // restart dynamic profiling
		for _, u := range b.insts {
			e.dec.clearProf(u.pc) // restart the per-site profiles too
		}
		e.event(EvRetranslate, b.guestPC, 0, "")
		e.stats.Retranslations++
		e.selfCheck("retranslate")
		return pc + host.InstBytes
	}

	// Code rearrangement (§IV-A, Fig. 6): retranslate the block in place
	// with the MDA sequence inline, preserving locality, instead of
	// patching in a branch to a distant stub.
	if act == policy.Rearrange {
		m.EmulateAccess(inst, ea)
		e.invalidateBlock(b)
		// Repositioning reuses the block's existing IR and relocates code
		// (Fig. 6), so it is cheaper than a from-scratch translation:
		// charge the discounted per-instruction rate for this pass.
		// Translate directly — never through ensureTranslated: flushing
		// clears the exit table, and the stale code we resume into still
		// carries live exit payloads. If the cache is full the block simply
		// stays invalid and the dispatcher retranslates it at the next
		// entry, where flushing is safe.
		_, terr := e.translate(b.guestPC, rearrangePerInstCycles)
		if terr == errInjectedTranslate {
			_, terr = e.translate(b.guestPC, rearrangePerInstCycles)
		}
		if terr == nil {
			e.event(EvRearrange, b.guestPC, 0, "")
			e.stats.Rearrangements++
			m.AddTrapCycles(rearrangeFixedCycles)
			e.selfCheck("rearrange")
		}
		return pc + host.InstBytes
	}

	// Default exception-handling: emit an MDA sequence stub in the code
	// cache and patch the faulting instruction into a branch to it
	// (Fig. 5).
	k, ok := stubKind(inst.Op)
	if !ok {
		e.stats.UnpatchableSites++
		e.patchFailed(b, site, pc, fmt.Sprintf("unpatchable op %v", inst.Op))
		m.EmulateAccess(inst, ea)
		return pc + host.InstBytes
	}
	stubLen := uint64(k.info().seqLen+1) * host.InstBytes
	addr, err := e.cc.allocStub(stubLen + 3*host.InstBytes)
	if err != nil {
		// Stub zone full: fall back to fixing up every time (and let the
		// trap-storm limiter demote the site if this keeps happening).
		e.stats.StubZoneFull++
		e.patchFailed(b, site, pc, "stub zone full")
		m.EmulateAccess(inst, ea)
		return pc + host.InstBytes
	}
	a := &e.asm
	a.Reset(addr)
	emitMDA(a, k, inst.Ra, inst.Rb, inst.Disp)
	a.BrTo(host.BR, host.Zero, pc+host.InstBytes)
	words, aerr := a.Finish()
	if aerr != nil {
		e.stats.UnpatchableSites++
		e.patchFailed(b, site, pc, "assembler: "+aerr.Error())
		m.EmulateAccess(inst, ea)
		return pc + host.InstBytes
	}
	m.WriteCode(addr, words)
	d, fits := host.BrDispFor(pc, addr)
	if fits && e.Opt.FaultPlan.Should(faultinject.PatchRange) {
		fits = false // injected: pretend the stub is out of branch range
	}
	if !fits {
		e.stats.UnpatchableSites++
		e.patchFailed(b, site, pc, "stub out of branch range")
		m.EmulateAccess(inst, ea)
		return pc + host.InstBytes
	}
	m.Patch(pc, host.MustEncode(host.Inst{Op: host.BR, Ra: host.Zero, Disp: d}))
	b.word(pc).tags |= align.TagPatched
	// The stub now carries live guest accesses: register its range so a
	// protection trap inside it attributes back to the site's instruction.
	e.stubRanges = append(e.stubRanges, stubRange{
		lo: addr, hi: addr + stubLen, b: b, idx: site.instIdx,
	})
	if e.events != nil {
		e.event(EvPatch, site.guestPC, pc, fmt.Sprintf("stub=%#x", addr))
	}
	e.stats.Patches++
	e.stats.MDAStubs++
	e.selfCheck("patch")
	// Resume at the faulting PC: the freshly patched branch executes and
	// the MDA sequence completes the access natively.
	return pc
}

// patchFailed records one failed attempt to convert a trapping site and,
// once the failures reach patchRetryLimit, demotes the site to
// permanent soft emulation (the trap-storm limiter). The demotion also
// invalidates the block: its retained-MDA record makes the retranslation
// inline the sequence, so the storm usually ends there and soft emulation
// only carries traps from code the translator cannot improve.
func (e *Engine) patchFailed(b *block, site *memSite, hostPC uint64, why string) {
	site.patchFails++
	if e.events != nil {
		e.event(EvDegrade, site.guestPC, hostPC, "patch failed: "+why)
	}
	st := e.dec.state(site.guestPC)
	if site.patchFails < patchRetryLimit || st.softEmu {
		return
	}
	st.softEmu = true
	e.stats.TrapStormDemotions++
	e.event(EvDegrade, site.guestPC, hostPC, "trap-storm demotion: soft emulation")
	if !b.invalid {
		e.invalidateBlock(b)
	}
}

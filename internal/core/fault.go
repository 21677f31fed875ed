package core

import (
	"errors"
	"fmt"
	"sort"

	"mdabt/internal/guest"
	"mdabt/internal/host"
	"mdabt/internal/machine"
	"mdabt/internal/mem"
)

// This file implements precise guest-visible memory faults for translated
// code (DESIGN.md §12). The machine traps an access against the page
// protections mid-block, where guest state is split across the host
// register file and partially-executed host sequences; delivering the
// fault the way the interpreter would — pre-instruction state, zero bytes
// of a faulting store committed — takes four steps:
//
//  1. attribute the faulting host PC to the guest instruction it
//     implements (stub ranges, then block spans + the unit's per-word
//     table);
//  2. recompute the *guest* access range from the live register file (the
//     host access that trapped may be a covering quadword of an MDA
//     sequence, which is wider than the guest access and can trap on a
//     page the guest access never touches);
//  3. check the guest range against the protections: a clean, unwatched
//     range means the trap was a false positive (guard-bit spill,
//     injected fault, BT-internal access) and the access re-executes raw;
//  4. otherwise park the machine on the fault pad (BRKBT svcFault). The
//     dispatcher then rewinds: ESP undo for PUSH/CALL, flag replay, and
//     re-execution of the instruction under the interpreter, which either
//     raises the precise fault or (for watched-page stores) performs the
//     write and lets the SMC hooks invalidate the stale translations.
//
// Handlers called from inside machine.Run (handleAccessFault, the
// handleMisalign pre-check) only record the pending fault and redirect to
// the pad; all engine-state mutation happens in deliverFault, at the
// dispatch boundary, where invalidation is safe.

// blockSpan records one translation's host code range for fault
// attribution. Spans are append-only across a cache generation — an
// invalidated block keeps its span, because stale code can still execute
// (and trap) until the next dispatch — and the bump allocator never reuses
// addresses between flushes, so spans never overlap and lie in ascending
// host order.
type blockSpan struct {
	lo, hi uint64
	b      *block
}

// stubRange records one exception-handler MDA stub's range and the site it
// serves. Like block spans, stub ranges live until the next full flush.
type stubRange struct {
	lo, hi uint64
	b      *block
	idx    int // guest instruction index of the site the stub implements
}

// pendingFault is the hand-off from an in-machine trap handler to the
// dispatcher: the guest instruction to rewind to. Setting it is idempotent
// (a duplicate-trap redelivery recomputes the same value).
type pendingFault struct {
	b   *block
	idx int
}

// writeFaultPad writes the BRKBT(svcFault) pad the trap handlers park the
// machine on.
func (e *Engine) writeFaultPad() {
	e.Mach.WriteCode(btFaultBase, []uint32{
		host.MustEncode(host.Inst{Op: host.BRKBT, Payload: svcFault}),
	})
}

// decoded is the engine's front door to the decode cache: when protections
// are armed it checks execute permission the way the interpreter's Step
// does (the first byte before decoding, then the whole instruction), and
// only then, on a fresh decode, arms store watches on the instruction's
// code pages (self-modification detection), so no page the guest cannot
// execute is watched.
func (e *Engine) decoded(pc uint32) (*decEntry, error) {
	de, fresh, err := e.dec.decoded(pc, e.Mem)
	if err != nil {
		return nil, err
	}
	if fresh {
		e.watchCode(pc, int(de.Len))
	} else if err := fetchCheck(e.Mem, pc, int(de.Len)); err != nil {
		return nil, err
	}
	return de, nil
}

// watchCode arms a store watch on every page holding bytes of the decoded
// instruction at pc, so a translated or interpreted store into live guest
// code is caught and the stale decodes and translations invalidated.
func (e *Engine) watchCode(pc uint32, n int) {
	first := uint64(pc) &^ (mem.PageSize - 1)
	last := (uint64(pc) + uint64(n) - 1) &^ (mem.PageSize - 1)
	for p := first; p <= last; p += mem.PageSize {
		if !e.Mem.Watched(p) {
			e.Mem.SetWatch(p, mem.PageSize, true)
		}
	}
}

// isGuestAccess reports whether a trapped host memory instruction is part
// of a guest data access, as opposed to BT-internal bookkeeping (adaptive
// streak counters through tmpC, IBTC probes through tmpA). MDA sequences
// use LDQ_U/STQ_U exclusively; every other guest access — plain, guarded,
// or proven-aligned — addresses through a guest GPR or tmpEA.
func isGuestAccess(in host.Inst) bool {
	if in.Op == host.LDQU || in.Op == host.STQU {
		return true
	}
	b := in.Rb
	return (b >= host.R1 && b < host.R1+host.Reg(guest.NumRegs)) || b == tmpEA
}

// resolveFaultSite attributes a host PC inside translated code to the
// guest instruction it implements: handler stubs first (their block may be
// invalid, but its instruction tables are still intact), then the record
// of the word in its unit's per-word table.
func (e *Engine) resolveFaultSite(pc uint64) (*block, int, bool) {
	for i := len(e.stubRanges) - 1; i >= 0; i-- {
		if sr := &e.stubRanges[i]; pc >= sr.lo && pc < sr.hi {
			return sr.b, sr.idx, true
		}
	}
	b := e.blockSpanAt(pc)
	if b == nil {
		return nil, 0, false
	}
	w := b.word(pc)
	if w.inst == noInst {
		return nil, 0, false
	}
	return b, int(w.inst), true
}

// blockSpanAt returns the unit whose host span holds pc — live or
// invalidated, since stale code can still run until the next dispatch —
// or nil. Spans ascend and never overlap, so a binary search finds the
// only candidate.
func (e *Engine) blockSpanAt(pc uint64) *block {
	spans := e.blockSpans
	i := sort.Search(len(spans), func(i int) bool { return spans[i].hi > pc })
	if i < len(spans) && spans[i].lo <= pc {
		return spans[i].b
	}
	return nil
}

// guestAccessOf recomputes the guest data access of instruction in from
// the current host register file. It is exact at any trap point inside the
// instruction's emission: effective-address source registers are never
// clobbered before the access, PUSH/CALL trap with ESP already
// pre-decremented (so ESP is the store address), POP/RET trap before their
// post-increment, and a string copy's two streams are told apart by
// whether the trapped host op was a load or a store.
func (e *Engine) guestAccessOf(in guest.Inst, hostStore bool) (addr uint32, size int, write bool, ok bool) {
	reg := func(r guest.Reg) uint32 { return uint32(e.Mach.Reg(hostGPR(r))) }
	memEA := func(m guest.MemRef) uint32 {
		ea := reg(m.Base) + uint32(m.Disp)
		if m.HasIndex {
			ea += reg(m.Index) * uint32(m.Scale)
		}
		return ea
	}
	switch in.Op {
	case guest.PUSH, guest.CALL:
		return reg(guest.ESP), 4, true, true
	case guest.POP, guest.RET:
		return reg(guest.ESP), 4, false, true
	case guest.REPMOVS4:
		if hostStore {
			return reg(guest.EDI), 4, true, true
		}
		return reg(guest.ESI), 4, false, true
	}
	if !in.Op.IsExplicitMem() {
		return 0, 0, false, false
	}
	return memEA(in.Mem), in.Op.MemSize(), in.Op.IsStore(), true
}

// faultsGuest decides, for a trapped host access attributed to (b, idx),
// whether the corresponding *guest* access violates the protections or
// stores into watched (translated) guest code. Either way the instruction
// must be re-executed under the interpreter: the first case delivers a
// precise guest fault, the second performs a self-modifying write that the
// SMC hooks must observe.
func (e *Engine) faultsGuest(b *block, idx int, hostStore bool) bool {
	addr, size, write, ok := e.guestAccessOf(b.insts[idx].inst, hostStore)
	if !ok {
		return false
	}
	if e.Mem.CheckRange(uint64(addr), size, write) != nil {
		return true
	}
	return write && e.Mem.WatchedRange(uint64(addr), size)
}

// handleAccessFault is the engine's access-protection trap handler,
// registered with the machine. It runs inside machine.Run, so it mutates
// no engine structures: it either completes a false-positive access raw
// and resumes, or records the pending guest fault and parks the machine on
// the fault pad for the dispatcher.
func (e *Engine) handleAccessFault(m *machine.Machine, pc uint64, inst host.Inst, ea uint64) uint64 {
	if b, idx, ok := e.resolveFaultSite(pc); ok {
		if isGuestAccess(inst) && e.faultsGuest(b, idx, inst.Op.IsStore()) {
			e.pendingFault = &pendingFault{b: b, idx: idx}
			return btFaultBase
		}
	} else {
		// A trap outside any translation: nothing to attribute it to
		// (spurious injection on dispatcher-written code, or a protection
		// placed on BT-internal pages). Re-execute raw — the guest-visible
		// protections are enforced on the guest access ranges above.
		e.stats.UnattributedFaults++
	}
	// False positive: guard-bit spill onto the page after a protected one,
	// an injected spurious fault, or a BT-internal access. Complete the
	// access exactly as the machine would have and resume after it.
	m.PerformAccess(inst, ea)
	return pc + host.InstBytes
}

// deliverFault services the fault pad's BRKBT at the dispatch boundary: it
// rewinds the guest to the faulting instruction and re-executes it (and
// the rest of its block) under the interpreter. A protection violation
// surfaces as a Permanent ClassifiedError wrapping the precise
// *guest.Fault; a watched-page store completes normally and returns the
// next dispatch target after the SMC hooks have invalidated stale code.
func (e *Engine) deliverFault() (uint32, error) {
	pf := e.pendingFault
	e.pendingFault = nil
	if pf == nil {
		return 0, WithClass(Internal, errors.New("core: fault pad reached with no pending fault"))
	}
	e.syncToCPU()
	in := pf.b.insts[pf.idx].inst
	// The translated PUSH/CALL pre-decrements ESP before its store; the
	// interpreter re-executes the whole instruction, so undo it.
	if in.Op == guest.PUSH || in.Op == guest.CALL {
		e.CPU.R[guest.ESP] += 4
	}
	e.reconstructFlags(pf.b, pf.idx)
	e.stats.GuestFaultResumes++
	pc := pf.b.insts[pf.idx].pc
	e.event(EvGuestFault, pc, 0, "rewind to interpreter")
	next, err := e.interpretBlock(pc)
	if err != nil {
		return 0, e.guestError(pf.b.guestPC, err)
	}
	return next, nil
}

// guestError classifies an interpreter failure as Permanent, counting and
// logging precise guest faults on the way through.
func (e *Engine) guestError(blockPC uint32, err error) error {
	var gf *guest.Fault
	if errors.As(err, &gf) {
		e.stats.GuestFaults++
		if e.events != nil {
			e.event(EvGuestFault, gf.PC, gf.Mem.Addr, gf.Error())
		}
	}
	return &ClassifiedError{Class: Permanent, BlockPC: blockPC, Err: err}
}

// reconstructFlags replays the architectural flags at a rewind point from
// the register file. Translated code keeps flags implicit, so the
// interpreter inherits whatever the last interpreted instruction left;
// the dominating flag producer in the block prefix is replayed instead.
// This is exact for every condition a later branch can consume: the
// translator refuses to translate a block where a consumed producer's
// source registers are overwritten before the branch (flagState), and
// restricts ALU-result consumers to conditions derivable from the result
// value alone.
func (e *Engine) reconstructFlags(b *block, idx int) {
	for i := idx - 1; i >= 0; i-- {
		in := b.insts[i].inst
		if !in.Op.SetsFlags() {
			continue
		}
		switch in.Op {
		case guest.CMPrr:
			e.CPU.SetCmpFlags(e.CPU.R[in.R1], e.CPU.R[in.R2])
		case guest.CMPri:
			e.CPU.SetCmpFlags(e.CPU.R[in.R1], uint32(in.Imm))
		case guest.TESTrr:
			e.CPU.SetTestFlags(e.CPU.R[in.R1] & e.CPU.R[in.R2])
		default:
			// ADD/SUB/AND/OR/XOR left their result in R1.
			e.CPU.SetResultFlags(e.CPU.R[in.R1])
		}
		return
	}
}

// smcWrite reacts to a guest store into watched code: every translation
// whose instruction bytes overlap the write is invalidated, and every
// cached decode the write could have changed is dropped, so the next
// execution re-decodes and retranslates the new bytes. Called from the
// interpreter hooks only — never from inside machine.Run.
func (e *Engine) smcWrite(addr uint64, size int) {
	hi := addr + uint64(size)
	for _, sp := range e.blockSpans {
		b := sp.b
		if b.invalid {
			continue
		}
		for _, u := range b.insts {
			if s := uint64(u.pc); s < hi && s+uint64(u.len) > addr {
				e.invalidateBlock(b)
				e.stats.SMCInvalidations++
				e.event(EvSMC, b.guestPC, addr, "translation invalidated by guest store")
				break
			}
		}
	}
	e.stats.SMCDecodeFlushes += uint64(e.dec.invalidateWrite(addr, size))
}

// AsGuestFault extracts the precise guest fault from an engine error
// chain, if one is there: callers (the serving layer, the CLIs) use it to
// report the faulting guest PC and address instead of a generic failure.
func AsGuestFault(err error) (*guest.Fault, bool) {
	var gf *guest.Fault
	if errors.As(err, &gf) {
		return gf, true
	}
	return nil, false
}

// FaultPadIntact reports whether the fault pad still holds its
// BRKBT(svcFault) word (invariant checking).
func (e *Engine) faultPadIntact() error {
	w := e.Mem.Read32(btFaultBase)
	in, err := host.Decode(w)
	if err != nil {
		return fmt.Errorf("core: invariant: fault pad word %#08x undecodable: %v", w, err)
	}
	if in.Op != host.BRKBT || in.Payload != svcFault {
		return fmt.Errorf("core: invariant: fault pad holds %v payload %d, want BRKBT(%d)", in.Op, in.Payload, svcFault)
	}
	return nil
}

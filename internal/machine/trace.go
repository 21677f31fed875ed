package machine

// The IR-less trace executor, the machine's only way to run host code. A
// trace is a pre-decoded copy of a span of host code: every instruction
// becomes a traceStep that embeds its lowered slot (lower), plus what
// threaded execution needs — direct successor and taken-branch pointers,
// memoized chain links into other traces, the step's PC and I-line. The
// executor (execTrace) therefore switches once per step over the slot
// kinds, with no fetch, no line lookup and no PC arithmetic between steps,
// and follows branches between traces through chain links: it never
// returns to Run until it executes a BRKBT, takes a trap, or reaches code
// no live trace covers.
//
// Run forms every trace, wherever execution reaches a PC no live trace
// covers, and recovers a translated unit's extent from the code alone. A
// trace starts at its entry PC and runs through conditional branches. It
// ends after the first unconditional transfer (BR/BSR, JMP/JSR/RET,
// BRKBT) that lies at or past the farthest forward target of the
// conditional branches already in it, so a unit's taken arms, two-version
// copies and inline loops stay in the one trace its entry starts. A BR to
// code that returns to the next word (an EH-patched memory op's MDA stub)
// does not end it. It also ends before a live trace's step, before an
// undecodable word, or at maxTraceSteps. Formation needs no hint from the
// BT runtime about where a unit ends, and each word is decoded and
// lowered once.
//
// Formation fuses the two MDA code sequences the translator emits (paper
// Fig. 2: the ldq_u/ext/ins/msk expansions of a misaligned load or store)
// into one mega-step each, so the 6-11 instructions that replace a
// misalignment trap retire in one dispatch.
//
// Every cycle, counter, cache access, trap and fault-injection draw an
// instruction-at-a-time machine would make is made here, in the same
// order; the single-stepping reference in lower_test.go is the judge.
// Three accounting transformations are applied, all provably neutral:
//
//   - Cycles are tracked as a delta above the 1-cycle/instruction
//     baseline ("extra"), materialized as insts-delta + extra on exit.
//     The dual-issue pairing credit becomes extra-- and may wrap; the sum
//     is computed mod 2^64 either way.
//   - Consecutive data accesses to the same L1D line skip the hierarchy
//     probe. The skipped probe is a guaranteed L1 hit (the prior access
//     left the line resident and most-recently-used in its set), so it
//     would charge 0 cycles and touch no L2/memory state; skipping the
//     LRU re-stamp of a way that already holds its set's maximum stamp
//     cannot change any future victim choice (victims are chosen by
//     minimum stamp, compared only within a set), so every subsequent
//     hit/miss — and therefore every simulated cycle — is unchanged.
//     Only the cache-internal access counter diverges, and nothing
//     outside internal/cache consumes it.
//   - Accounting is made once per straight-line stretch: a run of steps
//     that starts on one I-line and ends at a control transfer (a branch,
//     JMP, BRKBT or the synthetic exit) or before a step on another line.
//     Build gives each step the totals from it to its stretch's end:
//     instructions, loads, stores, multiplies, and the dual-issue credit
//     and exit slot state for each entry slot state. Whichever step the
//     executor enters, it checks the budget, fetches the I-line and
//     charges those totals there (with the Params of the run), and the
//     stretch's steps do only their operations. This is neutral because
//     every charge it moves is static: the I-line is the same for every
//     step of a stretch (a mega-step fetches the lines it crosses itself,
//     as before); the slot state a step sees follows from the entry state
//     and the kinds before it, because a memory op leaves the slot open
//     whether it traps or not; and nothing between the head and a step
//     reads the moved counters or cycles. A trap mid-stretch takes back
//     what did not retire (takeBack); a budget that ends inside a
//     stretch retires it one instruction at a time (unfuse).
//
// Which traces exist is simulation-invisible: the machine tests pin runs
// over any tiling of the code into traces to the single-stepping reference.
// Trace-tier telemetry therefore lives in the separate TraceStats struct,
// never in Counters.
//
// Coherence: Patch rewrites a live trace's plain step in place (relower):
// the word is lowered again, its taken pointer and chain-link memo are
// redone, and the stretch totals before it summed again, so the EH patch
// of a memory op and the link or unlink of an exit keep their trace.
// WriteCode, and a Patch that cannot rewrite in place (a word inside a
// mega-step, an undecodable word, a branch into the trace that is not a
// step head), drop the overlapping traces and sever chain links into
// them; IMB and Reset drop every trace. A code write behind the tier's
// back (a raw memory write) is not seen until then; CheckTraceCoherence
// re-lowers every live step from memory to catch it.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"mdabt/internal/faultinject"
	"mdabt/internal/host"
	"mdabt/internal/mem"
)

// TraceStats counts trace-tier activity. The tier never perturbs the
// simulated Counters, so its telemetry is kept apart from them: these
// numbers may differ between bit-identical runs (e.g. across an
// Engine.Reset) and must never enter an equivalence fingerprint.
type TraceStats struct {
	Formed        uint64 // traces built
	ChainFollows  uint64 // direct trace-to-trace transfers (no dispatch)
	Invalidations uint64 // traces dropped by code writes or IMB
	Relowered     uint64 // steps Patch rewrote in place, their traces kept
	TracedInsts   uint64 // host instructions retired (every one runs in a trace)
}

// Sub returns the counts s gained since earlier, a snapshot of the same
// machine's stats.
func (s TraceStats) Sub(earlier TraceStats) TraceStats {
	return TraceStats{
		Formed:        s.Formed - earlier.Formed,
		ChainFollows:  s.ChainFollows - earlier.ChainFollows,
		Invalidations: s.Invalidations - earlier.Invalidations,
		Relowered:     s.Relowered - earlier.Relowered,
		TracedInsts:   s.TracedInsts - earlier.TracedInsts,
	}
}

// Mega-step kinds extend the slot kinds. Each retires a whole
// misalignment-safe access sequence (fuseMega) in one dispatch.
const (
	stepMisLd slotKind = slotJmp + 1 + iota // ldq_u lo; ldq_u hi; lda ea; extXl; extXh; bis [; addl]
	stepMisSt                               // lda ea; ldq_u hi; ldq_u lo; insXh; insXl; mskXh; mskXl; bis; bis; stq_u hi; stq_u lo
)

// megaAux holds the register-file indexes of a mega-step's constituents
// that its slot has no room for. The slot keeps the base register (b), the
// displacement (imm), the access size (size), the stored register (a,
// store) and the merged result's destination (c, load).
type megaAux struct {
	ld   [2]uint8 // ldq_u destinations in program order (load: low, high; store: high, low)
	ea   uint8    // lda destination
	ext  [2]uint8 // load: extXl, extXh destinations; store: insXh, insXl destinations
	msk  [2]uint8 // store: mskXh, mskXl destinations
	st   [2]uint8 // store: stq_u sources, high then low (the bis destinations)
	sext bool     // load: the trailing addl sign extension is fused (n = 7)
}

// traceStep is one host instruction of a trace (or one fused mega-step):
// the slot lower builds, threaded. The fields execTrace touches on every
// step come first. A step that leaves the trace (a branch whose target
// no step of the trace holds, or the synthetic exit) leaves for the host
// PC in its imm.
type traceStep struct {
	slot
	next   *traceStep // fallthrough successor (the synthetic exit at the end)
	taken  *traceStep // in-trace branch target; nil = side exit
	pc     uint64
	lineID uint64
	n      uint8 // host instructions retired: 1, a mega-step's constituents, 0 for the synthetic exit
	mega   megaAux
	rest   stretch // the static charges from this step to the end of its stretch

	// Memoized side-exit resolution: link points at the target step of a
	// live trace (linkTr), nil when unresolved. linkVer caches the trace-
	// table version of the last failed probe so steady-state exits into
	// untraced code cost one comparison, not a table probe.
	link    *traceStep
	linkTr  *trace
	linkVer uint64
}

// stretch holds the static charges of a run of steps through the end of
// their straight-line stretch (see the header comment): what the
// executor charges once, when it enters the run at its first step. The
// dual-issue credit and the slot state the run leaves depend on the slot
// state it is entered with, so slots has one entry per entry state, and
// both cost models' exits, so that no Params value is baked in.
type stretch struct {
	insts, loads, stores, muls uint8
	slots                      [2]uint8 // credit<<2 | exit slot without dual issue<<1 | exit slot with it
	last                       bool     // the stretch ends after this step
}

// Fields of stretch.slots.
const (
	exitDual  = 1 << 0
	exitPlain = 1 << 1
	creditLSB = 2
)

// charges returns st's own static charges, as a stretch of one step: its
// kind's entry of plainCharges, or, for a mega-step, kindCharges's.
func (st *traceStep) charges() stretch {
	if st.kind < stepMisLd {
		return plainCharges[st.kind]
	}
	return kindCharges(st.kind, st.n)
}

// plainCharges holds kindCharges for every kind but the mega-steps', whose
// charges depend on the number of instructions fused. A plain step
// retires one instruction; the synthetic exit (slotEmpty) none.
var plainCharges = func() (t [stepMisLd]stretch) {
	for k := range t {
		t[k] = kindCharges(slotKind(k), uint8(min(k, 1)))
	}
	return t
}()

// kindCharges returns the static charges of a step of kind k that retires
// n instructions. An operate-class instruction pairs with an open issue
// slot (a credit of one cycle) and toggles it under dual issue; a memory
// op leaves the slot open; a multiply, a taken-or-not branch, a jump and
// BRKBT close it; a foldable BR pairs like an operate op under dual issue
// and closes the slot otherwise. A mega-step's constituents apply the same
// rules in order.
func kindCharges(k slotKind, n uint8) stretch {
	c := stretch{insts: n, last: true}
	for e := range uint8(2) { // the entry slot state
		credit, dual, plain := uint8(0), e, e
		switch {
		case k == slotEmpty:
		case k == slotLd || k == slotLdl || k == slotLdu:
			c.loads, dual, plain = 1, 1, 1
		case k == slotSt || k == slotStu:
			c.stores, dual, plain = 1, 1, 1
		case k == slotMul:
			c.muls, dual, plain = 1, 0, 0
		case k == slotLda || k >= slotOpr && k < slotMul:
			credit, dual = e, e^1
		case k == slotBr:
			credit, dual, plain = e, e^1, 0
		case k == stepMisLd: // ldq_u ×2, then n-2 operate ops from an open slot
			c.loads, credit, dual, plain = 2, (n-1)>>1, (n-1)&1, 1
		case k == stepMisSt: // lda, ldq_u ×2, three operate pairs, stq_u ×2
			c.loads, c.stores, credit, dual, plain = 2, 2, e+3, 1, 1
		default: // every other transfer
			dual, plain = 0, 0
		}
		c.slots[e] = credit<<creditLSB | plain<<1 | dual
	}
	return c
}

// then returns the charges of c followed by d: each of c's exit slot
// states enters d.
func (c stretch) then(d stretch) stretch {
	r := stretch{insts: c.insts + d.insts, loads: c.loads + d.loads, stores: c.stores + d.stores, muls: c.muls + d.muls}
	for e, s := range c.slots {
		dual, plain := d.slots[s&exitDual], d.slots[s>>1&1]
		r.slots[e] = (s>>creditLSB+dual>>creditLSB)<<creditLSB | plain&exitPlain | dual&exitDual
	}
	return r
}

// sums returns st's stretch totals, given its successor's: a stretch ends
// at a control transfer, at the synthetic exit, and before a step that
// starts on another I-line than st does.
func (st *traceStep) sums() stretch {
	c := st.charges()
	if st.kind.transfers() || st.kind == slotEmpty || st.next.lineID != st.lineID {
		return c
	}
	return c.then(st.next.rest)
}

// branches reports whether a slot of kind k is a PC-relative branch,
// whose imm is the target.
func (k slotKind) branches() bool { return k >= slotBr && k < slotJmp }

// conditional reports whether a slot of kind k is a conditional branch,
// which a trace runs through.
func (k slotKind) conditional() bool { return k >= slotBeq && k < slotJmp }

// trace is one built trace: a contiguous pre-decoded span of host code.
type trace struct {
	id         uint64
	start, end uint64
	steps      []traceStep
	// incoming lists steps of other traces whose chain link targets this
	// trace, so invalidation can sever them. A severed entry may belong to
	// an already-dropped trace, or to a step rewritten in place since it
	// linked; nil-ing its link is then harmless.
	incoming []*traceStep
}

// traceEntry is the PC lookup table's entry (pcTable): every step PC of
// every live trace maps to its (trace, step) pair, so traces are
// enterable mid-body (e.g. on the return branch of an out-of-line MDA
// stub). A nil tr marks a word with no step.
type traceEntry struct {
	tr  *trace
	idx int32
}

// maxTraceSteps bounds one trace (defensive; translated units are far
// smaller).
const maxTraceSteps = 4096

// stepPool recycles the step slices of dropped traces, so a machine that
// keeps rebuilding traces — after code writes that drop them, over code
// resumed after a trap, or on every request of a recycled engine — reuses
// their memory instead of allocating. A patch that relower rewrites in
// place takes nothing from the pool and gives nothing back. Slices are
// pooled by capacity class (a power of two) and cleared when pooled, so
// get always returns zeroed steps.
//
// A dropped trace's steps are never in use by the executor: traces are
// dropped, and steps rewritten in place, only between executor runs (by a
// code write from the dispatcher or from a trap handler, which runs after
// the executor synced its state and before it returns without touching a
// step again, by IMB and by Reset). Stale entries may linger in the
// chain-link back-lists of live traces, for dropped steps and for steps
// rewritten in place since they linked; severing one only clears a link
// memo, which is harmless on any step. The pool holds at most
// maxPooledSteps steps; beyond that dropped steps are left to the garbage
// collector, which bounds a long run that keeps dropping traces without
// Reset.
type stepPool struct {
	free [maxStepClass + 1][][]traceStep // free[c] holds slices of capacity 1<<c
	held int                             // steps held in free
}

const (
	maxStepClass   = 13 // 1<<13 steps hold the largest trace, maxTraceSteps+1
	maxPooledSteps = 1 << 14
)

// stepClass is the capacity class that holds n steps.
func stepClass(n int) int { return bits.Len(uint(n - 1)) }

// get returns n zeroed steps.
func (p *stepPool) get(n int) []traceStep {
	c := stepClass(n)
	if k := len(p.free[c]); k > 0 {
		s := p.free[c][k-1]
		p.free[c] = p.free[c][:k-1]
		p.held -= cap(s)
		return s[:n]
	}
	return make([]traceStep, n, 1<<c)
}

// put takes back the steps of a dropped trace (or a failed build).
func (p *stepPool) put(s []traceStep) {
	if p.held+cap(s) > maxPooledSteps {
		return
	}
	s = s[:cap(s)]
	clear(s)
	c := stepClass(cap(s))
	p.free[c] = append(p.free[c], s)
	p.held += cap(s)
}

// noLineID is the "no line" sentinel of the fetch state (curLineID) and of
// the executor's data-line memo; real line IDs are addresses shifted right
// and can never reach it.
const noLineID = ^uint64(0)

// TraceStats returns a copy of the trace-tier telemetry.
func (m *Machine) TraceStats() TraceStats { return m.tstats }

// megaMaxLen is the longest sequence fuseMega fuses (the store).
const megaMaxLen = 11

// fuseMega matches the misalignment-safe load or store sequence the
// translator emits (paper Fig. 2) at the head of s, the lowered slots of
// consecutive instructions, and returns the mega-step that retires it and
// the number of instructions it covers (0: no match). The wiring and
// clobber guards accept a sequence only if every constituent reads the
// value its producer in the sequence wrote, so executing the mega-step from
// locals is architecturally exact. Literal operate forms never match: each
// operate constituent's B register must be a register written earlier in
// the sequence, which R31 (the literal forms' b) never is.
func fuseMega(s []slot) (slot, megaAux, int) {
	switch {
	case len(s) >= 6 && s[0].op == host.LDQU:
		return fuseMegaLd(s)
	case len(s) >= megaMaxLen && s[0].op == host.LDA:
		return fuseMegaSt(s)
	}
	return slot{}, megaAux{}, 0
}

// fuseMegaLd matches
//
//	ldq_u lo, d(base); ldq_u hi, d+sz-1(base); lda ea, d(base);
//	extXl xl, lo, ea; extXh xh, hi, ea; bis v, xl|xh [; addl v, zero, v]
//
// where the trailing addl sign-extends a longword.
func fuseMegaLd(s []slot) (slot, megaAux, int) {
	var sz uint64
	for _, f := range host.MDAFamilies {
		if s[3].op == f.ExtL && s[4].op == f.ExtH {
			sz = uint64(f.Size)
		}
	}
	base, d := s[0].b, s[0].imm
	lo, hi, ea := s[0].a, s[1].a, s[2].a
	xl, xh := s[3].c, s[4].c
	if sz == 0 || s[1].op != host.LDQU || s[2].op != host.LDA || s[5].op != host.BIS ||
		s[1].b != base || s[2].b != base || s[1].imm != d+sz-1 || s[2].imm != d {
		return slot{}, megaAux{}, 0
	}
	// Value chains and clobber guards: each register must stay live from
	// its producer to its last reader.
	if lo == base || hi == base || lo == hi || lo == ea || hi == ea ||
		s[3].a != lo || s[3].b != ea || s[4].a != hi || s[4].b != ea ||
		xl == hi || xl == ea || xl == xh ||
		!(s[5].a == xh && s[5].b == xl || s[5].a == xl && s[5].b == xh) {
		return slot{}, megaAux{}, 0
	}
	n, v := 6, s[5].c
	sext := len(s) > 6 && s[6].op == host.ADDL && s[6].a == uint8(host.Zero) && s[6].b == v && s[6].c == v
	if sext {
		n = 7
	}
	return slot{kind: stepMisLd, b: base, c: v, size: uint8(sz), imm: d},
		megaAux{ld: [2]uint8{lo, hi}, ea: ea, ext: [2]uint8{xl, xh}, sext: sext}, n
}

// fuseMegaSt matches the read-merge-write of the two covering quadwords,
// high stored first:
//
//	lda ea, d(base); ldq_u hi, d+sz-1(base); ldq_u lo, d(base);
//	insXh ih, data, ea; insXl il, data, ea; mskXh mh, hi, ea; mskXl ml, lo, ea;
//	bis hs, mh|ih; bis ls, ml|il; stq_u hs, d+sz-1(base); stq_u ls, d(base)
func fuseMegaSt(s []slot) (slot, megaAux, int) {
	var sz uint64
	for _, f := range host.MDAFamilies {
		if s[3].op == f.InsH && s[4].op == f.InsL && s[5].op == f.MskH && s[6].op == f.MskL {
			sz = uint64(f.Size)
		}
	}
	base, d := s[0].b, s[0].imm
	ea, hi, lo := s[0].a, s[1].a, s[2].a
	data, ih, il := s[3].a, s[3].c, s[4].c
	mh, ml, hs, ls := s[5].c, s[6].c, s[7].c, s[8].c
	if sz == 0 || s[1].op != host.LDQU || s[2].op != host.LDQU || s[7].op != host.BIS ||
		s[8].op != host.BIS || s[9].op != host.STQU || s[10].op != host.STQU ||
		s[1].b != base || s[2].b != base || s[9].b != base || s[10].b != base ||
		s[1].imm != d+sz-1 || s[2].imm != d || s[9].imm != d+sz-1 || s[10].imm != d {
		return slot{}, megaAux{}, 0
	}
	// Dataflow wiring.
	if s[4].a != data || s[3].b != ea || s[4].b != ea ||
		s[5].a != hi || s[5].b != ea || s[6].a != lo || s[6].b != ea ||
		!(s[7].a == mh && s[7].b == ih || s[7].a == ih && s[7].b == mh) ||
		!(s[8].a == ml && s[8].b == il || s[8].a == il && s[8].b == ml) ||
		s[9].a != hs || s[10].a != ls {
		return slot{}, megaAux{}, 0
	}
	// Clobber guards: every intermediate destination written while an
	// earlier value is still live must be a different register.
	if ea == base || hi == base || lo == base || ih == base || il == base ||
		mh == base || ml == base || hs == base || ls == base ||
		data == ea || data == hi || data == lo || data == ih ||
		hi == ea || lo == ea || ih == ea || il == ea || mh == ea ||
		lo == hi || ih == hi || il == hi ||
		ih == lo || il == lo || mh == lo ||
		il == ih || mh == ih || ml == ih ||
		mh == il || ml == il || hs == il ||
		ml == mh || hs == ml || ls == hs {
		return slot{}, megaAux{}, 0
	}
	return slot{kind: stepMisSt, a: data, b: base, size: uint8(sz), imm: d},
		megaAux{ld: [2]uint8{hi, lo}, ea: ea, ext: [2]uint8{ih, il}, msk: [2]uint8{mh, ml}, st: [2]uint8{hs, ls}},
		megaMaxLen
}

// formTrace forms the trace Run enters at pc, which no live trace covers,
// by the rule in the header comment, and returns its first step. Building
// charges no simulated cycles: it models work the BT runtime does off the
// simulated CPU's critical path, and the resulting execution is
// bit-identical anyway. An undecodable word at pc is Run's fetch error; the
// fetch charges the I-cache first, as every fetch of a new line does.
func (m *Machine) formTrace(pc uint64) (*traceStep, error) {
	// On the stack: the longest units of the selected models are about 500
	// words, and a buffer kept on the machine would cost every fresh engine
	// its growth. A longer trace grows onto the heap.
	var buf [512]slot
	low := buf[:0]
	reach := pc // the farthest forward target of the conditional branches so far
	for end := pc; len(low) < maxTraceSteps && end+host.InstBytes != 0; {
		inst, err := host.Decode(m.Mem.Read32(end))
		if err != nil {
			break
		}
		s := lower(end, inst)
		low = append(low, s)
		if s.kind.conditional() {
			reach = max(reach, s.imm)
		} else if s.kind.transfers() && end >= reach && !m.returnsAfter(s, end) {
			break
		}
		end += host.InstBytes
		if m.traces.get(end).tr != nil {
			break
		}
	}
	if len(low) > 0 {
		return &m.build(pc, low).steps[0], nil
	}
	if l := pc >> ilineShift; l != m.curLineID {
		m.curLineID = l
		if m.caches != nil {
			m.counters.Cycles += uint64(m.caches.Fetch(pc))
		}
	}
	_, err := host.Decode(m.Mem.Read32(pc))
	if err == nil { // the last word of the address space
		err = errors.New("code runs off the end of the address space")
	}
	return nil, fmt.Errorf("machine: fetch at %#x: %w", pc, err)
}

// returnsAfter reports whether s, the word at pc, is a foldable BR to
// code whose first control transfer, within an MDA stub's length, is a
// foldable BR back to pc's next word: the shape of a memory op the
// exception handler patched into a branch to its MDA stub (paper Fig. 5).
// Formation runs through it, so the patched unit stays one trace: the BR
// is a side exit into the stub's trace, and the stub's return enters this
// one mid-body.
func (m *Machine) returnsAfter(s slot, pc uint64) bool {
	if s.kind != slotBr {
		return false
	}
	for at := s.imm; at < s.imm+(megaMaxLen+1)*host.InstBytes; at += host.InstBytes {
		inst, err := host.Decode(m.Mem.Read32(at))
		if err != nil {
			return false
		}
		// Every word but a memory or operate one may transfer control.
		if f := host.FormatOf(inst.Op); f != host.FormatMem && f != host.FormatOpr {
			return inst.Op == host.BR && inst.Ra == host.Zero && inst.BranchTarget(at) == pc+host.InstBytes
		}
	}
	return false
}

// build threads low, the lowered words of the code from start, into a
// trace and registers it; no live trace may overlap the span.
func (m *Machine) build(start uint64, low []slot) *trace {
	n := len(low)
	end := start + uint64(n)*host.InstBytes
	inTrace := func(pc uint64) bool { return pc >= start && pc < end }
	// Mark the in-trace branch targets: a mega-step must not swallow one,
	// since only step heads are enterable.
	var target [maxTraceSteps/64 + 1]uint64
	isTarget := func(i int) bool { return target[i/64]>>(i%64)&1 != 0 }
	for i := range low {
		if s := &low[i]; s.kind.branches() && inTrace(s.imm) {
			j := (s.imm - start) / host.InstBytes
			target[j/64] |= 1 << (j % 64)
		}
	}
	// One step per word, or per fused MDA sequence; a sequence ends before
	// the next branch target.
	steps := m.steps.get(n + 1)
	w := 0
	for i := 0; i < n; w++ {
		pc := start + uint64(i)*host.InstBytes
		st := &steps[w]
		st.slot, st.pc, st.lineID, st.n = low[i], pc, pc>>ilineShift, 1
		if op := st.op; op == host.LDQU || op == host.LDA {
			k := 1
			for k < megaMaxLen && i+k < n && !isTarget(i+k) {
				k++
			}
			if ms, mx, f := fuseMega(low[i : i+k]); f > 0 {
				st.slot, st.mega, st.n = ms, mx, uint8(f)
			}
		}
		i += int(st.n)
	}
	// Fusion leaves unused steps past the new end, outside the trace's
	// slice; they are still zero, as the pool hands them out.
	steps = steps[:w+1]
	// Synthetic fallthrough exit: reached when the final instruction does
	// not transfer control (a trace cut before a live trace, an
	// undecodable word or maxTraceSteps). It retires nothing and sits on
	// the last instruction's line, so reaching it charges no fetch.
	steps[w] = traceStep{slot: slot{imm: end}, pc: end, lineID: (end - host.InstBytes) >> ilineShift}
	steps[w].rest = steps[w].charges()

	m.traceSeq++
	t := &trace{id: m.traceSeq, start: start, end: end, steps: steps}
	for i := 0; i < w; i++ {
		m.traces.set(steps[i].pc, traceEntry{tr: t, idx: int32(i)})
	}
	for i := w - 1; i >= 0; i-- {
		st := &steps[i]
		st.next = &steps[i+1]
		if st.kind.branches() && inTrace(st.imm) {
			st.taken = &steps[m.traces.get(st.imm).idx]
		}
		st.rest = st.sums()
	}
	m.traceList[t.id] = t
	m.traceLo = min(m.traceLo, start)
	m.traceHi = max(m.traceHi, end)
	m.traceVer++ // stale negative link caches must re-probe
	m.tstats.Formed++
	return t
}

// unfuse copies the stretch run from st into the machine's scratch
// trace, one step per host instruction, and returns its first step: the
// budget ends inside the run, so its instructions retire one at a time,
// each a stretch of its own. A plain step is copied; a mega-step's words
// are lowered afresh. The scratch trace's exit hands control back to Run
// without chaining. If a mega-step's word no longer decodes (code changed
// behind the tier's back), the copy ends before it, and when that is st's
// first word the stale trace is dropped and the exit is at st.pc.
func (m *Machine) unfuse(st *traceStep) *traceStep {
	s := &m.scratch
	k := 0
	for src := st; src.kind != slotEmpty; src = src.next {
		if src.n == 1 {
			s[k] = traceStep{slot: src.slot, pc: src.pc, lineID: src.lineID, n: 1}
			k++
		} else {
			for j := range uint64(src.n) {
				pc := src.pc + j*host.InstBytes
				inst, err := host.Decode(m.Mem.Read32(pc))
				if err != nil {
					if k == 0 {
						m.dropTrace(m.traces.get(st.pc).tr) // st is not read again
					}
					return m.scratchExit(k, pc)
				}
				s[k] = traceStep{slot: lower(pc, inst), pc: pc, lineID: pc >> ilineShift, n: 1}
				k++
			}
		}
		if src.rest.last {
			break
		}
	}
	return m.scratchExit(k, s[k-1].pc+host.InstBytes)
}

// scratchExit threads the first k steps of the scratch trace, ends it
// with an exit to pc, and returns its first step. Each step is a stretch
// of its own, and its link cache holds the current trace-table version,
// so its exits never memoize a link to it.
func (m *Machine) scratchExit(k int, pc uint64) *traceStep {
	s := &m.scratch
	lineID := (pc - host.InstBytes) >> ilineShift
	if k > 0 {
		lineID = s[k-1].lineID
	}
	s[k] = traceStep{slot: slot{imm: pc}, pc: pc, lineID: lineID}
	for i := range s[:k+1] {
		s[i].rest, s[i].linkVer = s[i].charges(), m.traceVer
		if i < k {
			s[i].next = &s[i+1]
		}
	}
	return &s[0]
}

// Trap kinds a pageMemo access reports.
const (
	trapNone     = iota
	trapMisalign // a spurious misalignment trap (fault plan)
	trapAccess   // an access-protection trap, real or spurious
)

// pageMemo is the executor's one-entry page memo: a data access to the
// page of the last access that went through the memory layer reads or
// writes the page's backing array directly, skipping the page walk and
// size dispatch. It also caches the page's trap bits (mem.PageTrapped),
// which decide AccessTrap for every access contained in the page, as
// aligned accesses are. Both stay valid while the executor runs: page
// arrays are stable, and protections change only in trap handlers, which
// run after the executor has exited.
//
// Under a fault plan the memo never points at a page, so every access
// goes through load or store, which make the plan's draws in instruction
// order: a spurious misalignment trap for an aligned access of an
// aligning kind (slotLd, slotLdl, slotSt), then a spurious access fault
// unless the access really traps.
type pageMemo struct {
	idx            uint64 // page index of pg; ^0 matches no address
	pg             *[mem.PageSize]byte
	ldTrap, stTrap bool
	faults         *faultinject.Plan
}

// load performs a load the memo does not serve: it checks protections and
// the fault plan, reads through the memory layer and points the memo at
// acc's page. It reports the trap, without reading, when the access must
// trap.
func (pm *pageMemo) load(mm *mem.Memory, acc uint64, size uint8, aligning bool) (v uint64, trap uint8) {
	if trap = pm.check(mm, acc, size, aligning, false); trap != trapNone {
		return 0, trap
	}
	v = mm.Read(acc, int(size))
	pm.point(mm, acc)
	return v, trapNone
}

// store is load's counterpart for stores.
func (pm *pageMemo) store(mm *mem.Memory, acc, v uint64, size uint8, aligning bool) (trap uint8) {
	if trap = pm.check(mm, acc, size, aligning, true); trap != trapNone {
		return trap
	}
	mm.Write(acc, v, int(size))
	pm.point(mm, acc)
	return trapNone
}

// check decides whether an access traps: the fault plan's spurious
// misalignment draw first (aligning kinds only), then the trap-bit table,
// then the plan's spurious access-fault draw.
func (pm *pageMemo) check(mm *mem.Memory, acc uint64, size uint8, aligning, store bool) uint8 {
	if pm.faults != nil && aligning && pm.faults.Should(faultinject.SpuriousTrap) {
		return trapMisalign
	}
	if mm.AccessTrap(acc, int(size), store) || (pm.faults != nil && pm.faults.Should(faultinject.SpuriousAccessFault)) {
		return trapAccess
	}
	return trapNone
}

// point memoizes acc's page, unless it has never been touched or a fault
// plan is installed.
func (pm *pageMemo) point(mm *mem.Memory, acc uint64) {
	if pm.faults != nil {
		return
	}
	if p := mm.PeekPage(acc); p != nil {
		pm.idx, pm.pg = acc>>mem.PageShift, p
		pm.ldTrap, pm.stTrap = mm.PageTrapped(acc)
	}
}

// pageRead reads the size-byte value at acc, which the access size
// aligns, from acc's page.
func pageRead(pg *[mem.PageSize]byte, acc uint64, size uint8) uint64 {
	b := pg[acc&(mem.PageSize-1):]
	switch size {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	}
	return binary.LittleEndian.Uint64(b)
}

// pageWrite is pageRead's counterpart for stores.
func pageWrite(pg *[mem.PageSize]byte, acc, v uint64, size uint8) {
	b := pg[acc&(mem.PageSize-1):]
	switch size {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	default:
		binary.LittleEndian.PutUint64(b, v)
	}
}

// execTrace retires host instructions starting at step st, following
// threaded successor pointers, in-trace branch targets, and memoized
// chain links. It returns done=true when Run should return (BRKBT or
// exhausted budget); a false return means machine state is synced (a trap
// was delivered, or control left the trace tier) and Run should re-probe
// at m.pc.
//
// Every step it enters other than by falling through inside a stretch —
// the first, a branch or jump target, a chain link, the step after a
// stretch ends — heads a stretch: the budget check, the I-line fetch and
// the stretch's static charges (st.rest) are made there, once. The steps
// of the stretch then do only their operations, their memory accesses
// and their L1D probes.
func (m *Machine) execTrace(st *traceStep, used *uint64, maxInsts uint64) (StopReason, uint32, bool) {
	p := &m.Params
	regs := &m.regs
	caches := m.caches
	c := tally{insts: m.counters.Insts, loads: m.counters.Loads, stores: m.counters.Stores}
	slotOpen := uint64(0) // dual-issue slot state as 0/1, to index stretch.slots
	if m.slotOpen {
		slotOpen = 1
	}
	entryInsts := c.insts
	n0 := *used
	limit := c.insts + (maxInsts - n0) // budget expressed on the insts counter
	curLineID := m.curLineID
	// Same-L1D-line probe memo (see the header comment for why skipping
	// repeat probes is simulation-invisible).
	dataLine := noLineID
	var dshift uint
	if caches != nil {
		dshift = caches.L1D.LineShift()
	}
	pm := pageMemo{idx: ^uint64(0), faults: m.faults}
	var ea, acc, v uint64 // effective and accessed address, loaded or stored value
	var taken bool
	var fault uint8 // the trap a memory access takes (trapMisalign, trapAccess)
	// The constituent of a mega-step that faults (0 for a plain step), and
	// a mega-step constituent's slot.
	var trapK uint64
	var trap slot

	// Every exit path (including trap dispatch) writes the hoisted state
	// back through traceExit — a plain call, not a closure, so the other
	// hot locals stay in registers instead of being spilled to
	// closure-captured stack slots.
	for {
		// st heads a stretch.
		r := &st.rest
		if c.insts+uint64(r.insts) > limit {
			// The budget is defined on single instructions: when the
			// remainder cannot fit the stretch, its instructions retire
			// one at a time from a copy. Otherwise the budget is spent.
			if c.insts < limit {
				st = m.unfuse(st)
				continue
			}
			m.traceExit(st.pc, &c, entryInsts, n0, curLineID, slotOpen != 0, used)
			return StopLimit, 0, true
		}
		if st.lineID != curLineID {
			curLineID = st.lineID
			if caches != nil {
				c.extra += uint64(caches.Fetch(st.pc))
			}
		}
		c.insts += uint64(r.insts)
		c.loads += uint64(r.loads)
		c.stores += uint64(r.stores)
		c.extra += p.LoadExtraCycles*uint64(r.loads) + p.MulExtraCycles*uint64(r.muls)
		if s := r.slots[slotOpen&1]; p.DualIssueALU {
			c.extra -= uint64(s >> creditLSB)
			slotOpen = uint64(s & exitDual)
		} else {
			slotOpen = uint64(s>>1) & 1
		}

	step:
		// Memory kinds jump to the shared load or store path, other
		// straight-line kinds to advance, branches to the taken/follow
		// tail.
		switch st.kind {
		case slotEmpty:
			// The synthetic exit: chain into the successor trace or hand
			// the fallthrough PC back to the driver.
			goto follow

		case slotPAL:
			m.counters.Brks++
			c.extra += p.BrkCycles
			m.traceExit(st.pc+host.InstBytes, &c, entryInsts, n0, curLineID, false, used)
			if st.imm == HaltService {
				return StopHalt, uint32(st.imm), true
			}
			return StopBrk, uint32(st.imm), true

		case slotLda:
			regs[st.a] = regs[st.b] + st.imm
			goto advance

		case slotLd, slotLdl:
			ea = regs[st.b] + st.imm
			if ea&uint64(st.size-1) != 0 {
				fault = trapMisalign
				goto memTrap
			}
			acc = ea
			goto load
		case slotLdu:
			ea = regs[st.b] + st.imm
			acc = ea &^ uint64(st.size-1) // LDQ_U reads, and the cache sees, the quadword at ea&^7
			goto load
		case slotSt:
			ea = regs[st.b] + st.imm
			if ea&uint64(st.size-1) != 0 {
				fault = trapMisalign
				goto memTrap
			}
			acc = ea
			goto store
		case slotStu:
			ea = regs[st.b] + st.imm
			acc = ea &^ uint64(st.size-1)
			goto store

		case slotOpr, slotMul:
			regs[st.c] = host.EvalOp(st.op, regs[st.a], regs[st.b]+st.imm)
			goto advance
		case slotAddl:
			regs[st.c] = uint64(int64(int32(regs[st.a] + regs[st.b] + st.imm)))
			goto advance
		case slotAddq:
			regs[st.c] = regs[st.a] + regs[st.b] + st.imm
			goto advance
		case slotBis:
			regs[st.c] = regs[st.a] | (regs[st.b] + st.imm)
			goto advance
		case slotXor:
			regs[st.c] = regs[st.a] ^ (regs[st.b] + st.imm)
			goto advance
		case slotCmplt:
			v = 0
			if int64(regs[st.a]) < int64(regs[st.b]+st.imm) {
				v = 1
			}
			regs[st.c] = v
			goto advance
		case slotExtql:
			regs[st.c] = host.ExtLow(regs[st.a], regs[st.b]+st.imm, 8)
			goto advance
		case slotExtqh:
			regs[st.c] = host.ExtHigh(regs[st.a], regs[st.b]+st.imm, 8)
			goto advance

		case slotBr:
			// A BR with no link register is a pure fetch redirect; the EV6
			// front end folds it (it can also dual-issue).
			goto follow
		case slotBrLink:
			regs[st.a] = st.pc + host.InstBytes
			c.extra += p.TakenBranchCycles
			goto follow
		case slotBeq:
			taken = regs[st.a] == 0
			goto cond
		case slotBne:
			taken = regs[st.a] != 0
			goto cond
		case slotBlt:
			taken = int64(regs[st.a]) < 0
			goto cond
		case slotBle:
			taken = int64(regs[st.a]) <= 0
			goto cond
		case slotBgt:
			taken = int64(regs[st.a]) > 0
			goto cond
		case slotBge:
			taken = int64(regs[st.a]) >= 0
			goto cond
		case slotBlbc:
			taken = regs[st.a]&1 == 0
			goto cond
		case slotBlbs:
			taken = regs[st.a]&1 == 1
			goto cond

		case slotJmp:
			target := regs[st.b] &^ 3 // read before the link write: Ra may equal Rb
			regs[st.a] = st.pc + host.InstBytes
			c.extra += p.TakenBranchCycles
			// Dynamic target: no memoized link, but a direct LUT probe
			// still keeps indirect transfers inside the tier.
			if ent := m.traces.get(target); ent.tr != nil {
				m.tstats.ChainFollows++
				st = &ent.tr.steps[ent.idx]
				continue
			}
			m.traceExit(target, &c, entryInsts, n0, curLineID, false, used)
			return 0, 0, false

		case stepMisLd:
			// Constituents run in program order with their own fetch and
			// trap checks, so a fault mid-sequence delivers precisely: the
			// earlier register writes are visible, the faulting PC is the
			// constituent's, and megaTrap hands back the rest unretired
			// (interior PCs are not step heads, so Run forms a trace
			// there). An I-line crossing is charged before the first access
			// past it, or at the end, as an instruction fetch would be.
			x := &st.mega
			eaLo := regs[st.b] + st.imm
			var q [2]uint64 // the low and high quadwords
			for k := uint64(0); k < 2; k++ {
				ea = eaLo + k*(uint64(st.size)-1)
				if l := (st.pc + k*host.InstBytes) >> ilineShift; l != curLineID {
					curLineID = l
					if caches != nil {
						c.extra += uint64(caches.Fetch(l << ilineShift))
					}
				}
				acc = ea &^ 7
				if acc>>mem.PageShift == pm.idx && !pm.ldTrap {
					q[k] = binary.LittleEndian.Uint64(pm.pg[acc&(mem.PageSize-1):])
				} else if q[k], fault = pm.load(m.Mem, acc, 8, false); fault != trapNone {
					trapK, trap = k, slot{op: host.LDQU, a: x.ld[k], b: st.b, imm: st.imm + ea - eaLo}
					goto megaTrap
				}
				if caches != nil {
					if l := acc >> dshift; l != dataLine {
						dataLine = l
						c.extra += uint64(caches.Data(acc))
					}
				}
				regs[x.ld[k]] = q[k]
			}
			// lda; extXl; extXh; bis [; addl].
			xl := host.ExtLow(q[0], eaLo, int(st.size))
			xh := host.ExtHigh(q[1], eaLo, int(st.size))
			regs[x.ea], regs[x.ext[0]], regs[x.ext[1]] = eaLo, xl, xh
			v = xl | xh
			if x.sext {
				v = uint64(int64(int32(v)))
			}
			regs[st.c] = v
			if l := (st.pc + uint64(st.n-1)*host.InstBytes) >> ilineShift; l != curLineID {
				curLineID = l
				if caches != nil {
					c.extra += uint64(caches.Fetch(l << ilineShift))
				}
			}
			goto advance

		case stepMisSt:
			// The store twin of stepMisLd: read-merge-write of the two
			// covering quadwords, high stored first. A fault on the low
			// stq_u leaves the high store done.
			x := &st.mega
			eaLo := regs[st.b] + st.imm
			eaHi := eaLo + uint64(st.size) - 1
			regs[x.ea] = eaLo
			var q [2]uint64 // the high and low quadwords, in program order
			for k := uint64(1); k <= 2; k++ {
				ea = eaHi
				if k == 2 {
					ea = eaLo
				}
				if l := (st.pc + k*host.InstBytes) >> ilineShift; l != curLineID {
					curLineID = l
					if caches != nil {
						c.extra += uint64(caches.Fetch(l << ilineShift))
					}
				}
				acc = ea &^ 7
				if acc>>mem.PageShift == pm.idx && !pm.ldTrap {
					q[k-1] = binary.LittleEndian.Uint64(pm.pg[acc&(mem.PageSize-1):])
				} else if q[k-1], fault = pm.load(m.Mem, acc, 8, false); fault != trapNone {
					trapK, trap = k, slot{op: host.LDQU, a: x.ld[k-1], b: st.b, imm: st.imm + ea - eaLo}
					goto megaTrap
				}
				if caches != nil {
					if l := acc >> dshift; l != dataLine {
						dataLine = l
						c.extra += uint64(caches.Data(acc))
					}
				}
				regs[x.ld[k-1]] = q[k-1]
			}
			// insXh; insXl; mskXh; mskXl; bis; bis.
			sz := int(st.size)
			ih := host.InsHigh(regs[st.a], eaLo, sz)
			il := host.InsLow(regs[st.a], eaLo, sz)
			mh := host.MskHigh(q[0], eaLo, sz)
			ml := host.MskLow(q[1], eaLo, sz)
			regs[x.ext[0]], regs[x.ext[1]] = ih, il
			regs[x.msk[0]], regs[x.msk[1]] = mh, ml
			q = [2]uint64{mh | ih, ml | il}
			regs[x.st[0]], regs[x.st[1]] = q[0], q[1]
			for k := uint64(9); k <= 10; k++ {
				ea = eaHi
				if k == 10 {
					ea = eaLo
				}
				if l := (st.pc + k*host.InstBytes) >> ilineShift; l != curLineID {
					curLineID = l
					if caches != nil {
						c.extra += uint64(caches.Fetch(l << ilineShift))
					}
				}
				acc = ea &^ 7
				if acc>>mem.PageShift == pm.idx && !pm.stTrap {
					binary.LittleEndian.PutUint64(pm.pg[acc&(mem.PageSize-1):], q[k-9])
				} else if pm.store(m.Mem, acc, q[k-9], 8, false) != trapNone {
					trapK, trap = k, slot{op: host.STQU, a: x.st[k-9], b: st.b, imm: st.imm + ea - eaLo}
					goto megaTrap
				}
				if caches != nil {
					if l := acc >> dshift; l != dataLine {
						dataLine = l
						c.extra += uint64(caches.Data(acc))
					}
				}
			}
			goto advance

		default:
			panic(fmt.Sprintf("machine: corrupt trace step kind %d at %#x", st.kind, st.pc))
		}

	load:
		if acc>>mem.PageShift == pm.idx && !pm.ldTrap {
			v = pageRead(pm.pg, acc, st.size)
		} else if v, fault = pm.load(m.Mem, acc, st.size, st.kind != slotLdu); fault != trapNone {
			goto memTrap
		}
		if st.kind == slotLdl {
			v = uint64(int64(int32(v)))
		}
		regs[st.a] = v
		goto data

	store:
		v = regs[st.a]
		if acc>>mem.PageShift == pm.idx && !pm.stTrap {
			pageWrite(pm.pg, acc, v, st.size)
		} else if fault = pm.store(m.Mem, acc, v, st.size, st.kind == slotSt); fault != trapNone {
			goto memTrap
		}

	data:
		if caches != nil {
			if l := acc >> dshift; l != dataLine {
				dataLine = l
				c.extra += uint64(caches.Data(acc))
			}
		}

	advance:
		if st.rest.last {
			st = st.next
			continue
		}
		st = st.next
		goto step

	cond:
		if !taken {
			st = st.next
			continue
		}
		c.extra += p.TakenBranchCycles
	follow:
		if st.taken != nil {
			st = st.taken
			continue
		}
		if l := m.followLink(st); l != nil {
			st = l
			continue
		}
		m.traceExit(st.imm, &c, entryInsts, n0, curLineID, slotOpen != 0, used)
		return 0, 0, false
	}

	// Cold trap exits, reached by goto from the memory paths; ea holds the
	// faulting effective address. The stretch's head charged st and the
	// rest of the stretch, so what did not retire is taken back first. A
	// memory op leaves the issue slot open, trapping or not.
memTrap:
	c.takeBack(m.unretired(st, 0))
	m.traceExit(st.pc, &c, entryInsts, n0, curLineID, true, used)
	if fault == trapMisalign {
		m.misalignTrap(st.inst(), ea)
	} else {
		m.accessTrap(st.inst(), ea)
	}
	return 0, 0, false // handler set the resume PC; re-probe
megaTrap:
	c.takeBack(m.unretired(st, trapK))
	m.traceExit(st.pc+trapK*host.InstBytes, &c, entryInsts, n0, curLineID, true, used)
	m.accessTrap(trap.inst(), ea)
	return 0, 0, false
}

// unretired returns the charges a stretch head made for st and the rest
// of its stretch that did not retire because st's instruction k (a
// mega-step's constituent k; 0 for a plain step) faulted: instructions,
// loads, stores and cycles above the baseline. The faulting instruction
// itself retires; its access does not. A memory op leaves the issue slot
// open, trapping or not, so the rest's dual-issue credit does not depend
// on the slot state st was entered with, beyond a mega-store's leading
// lda, which retired.
func (m *Machine) unretired(st *traceStep, k uint64) (insts, loads, stores, extra uint64) {
	var doneLoads, doneStores, doneCredit uint64 // what st retired before k
	switch {
	case st.kind == stepMisLd:
		doneLoads = k
	case st.kind == stepMisSt && k <= 2:
		doneLoads = k - 1
	case st.kind == stepMisSt:
		doneLoads, doneStores, doneCredit = 2, k-9, 3
	}
	r := &st.rest
	insts = uint64(r.insts) - k - 1
	loads = uint64(r.loads) - doneLoads
	stores = uint64(r.stores) - doneStores
	extra = m.Params.LoadExtraCycles*loads + m.Params.MulExtraCycles*uint64(r.muls)
	if m.Params.DualIssueALU {
		extra -= uint64(r.slots[0]>>creditLSB) - doneCredit
	}
	return insts, loads, stores, extra
}

// tally is the executor's running count of retired instructions, loads
// and stores, and of cycles above the 1-cycle/instruction baseline
// (extra). Stretch heads update it once per stretch, and its exits take
// its address, so it lives in memory: that leaves the registers to the
// steps, which measured faster than holding the four in registers.
type tally struct {
	insts, loads, stores uint64
	extra                uint64 // wraps on dual-issue credit
}

// takeBack removes charges that did not retire (unretired's results).
func (c *tally) takeBack(insts, loads, stores, extra uint64) {
	c.insts -= insts
	c.loads -= loads
	c.stores -= stores
	c.extra -= extra
}

// traceExit writes the executor's hoisted state back to the machine with
// the PC at resume. Cycles are derived here: the executor tracks only the
// charges above the 1-cycle/instruction baseline. It runs only on trace
// exit, never per step.
func (m *Machine) traceExit(pc uint64, c *tally, entryInsts, n0, curLineID uint64, slotOpen bool, used *uint64) {
	delta := c.insts - entryInsts
	*used = n0 + delta
	m.pc = pc
	m.counters.Insts = c.insts
	m.counters.Cycles += delta + c.extra
	m.counters.Loads, m.counters.Stores = c.loads, c.stores
	m.slotOpen = slotOpen
	m.tstats.TracedInsts += delta
	m.curLineID = curLineID
}

// followLink resolves st's static side-exit target to a step of a live
// trace, memoizing the result. A failed probe is cached against the
// current trace-table version so steady-state exits into untraced code
// cost one comparison, not a table probe.
func (m *Machine) followLink(st *traceStep) *traceStep {
	if st.link != nil {
		m.tstats.ChainFollows++
		return st.link
	}
	if st.linkVer == m.traceVer {
		return nil
	}
	st.linkVer = m.traceVer
	if ent := m.traces.get(st.imm); ent.tr != nil {
		st.link = &ent.tr.steps[ent.idx]
		st.linkTr = ent.tr
		ent.tr.incoming = append(ent.tr.incoming, st)
		m.tstats.ChainFollows++
		return st.link
	}
	return nil
}

// relower rewrites the live step at addr in place after Patch wrote word
// there, and reports whether it did. It does so when addr heads a
// plain step that no other step covers, the word decodes, and a branch
// into the trace targets one of its step heads; otherwise the caller
// drops the traces over addr. The step takes the word's slot and its
// taken pointer, loses its chain-link memo, and its stretch totals and
// those of the steps before it in its stretch are summed again: a
// predecessor's totals change only if its successor's did, so the sweep
// stops at the first step whose totals stand. The PC lookup table, the
// step pool and the live-trace list are untouched, and no link into the
// step changes, since its PC still heads it.
func (m *Machine) relower(addr uint64, word uint32) bool {
	ent := m.traces.get(addr)
	t := ent.tr
	if t == nil || t.steps[ent.idx].n != 1 || m.megaOver(addr) {
		return false
	}
	inst, err := host.Decode(word)
	if err != nil {
		return false
	}
	s := lower(addr, inst)
	var taken *traceStep
	if s.kind.branches() && s.imm >= t.start && s.imm < t.end {
		tgt := m.traces.get(s.imm)
		if tgt.tr != t {
			return false // not a step head: formation would split a mega-step there
		}
		taken = &t.steps[tgt.idx]
	}
	st := &t.steps[ent.idx]
	st.slot, st.taken = s, taken
	st.link, st.linkTr, st.linkVer = nil, nil, 0
	for i := int(ent.idx); i >= 0; i-- {
		p := &t.steps[i]
		r := p.sums()
		if r == p.rest {
			break
		}
		p.rest = r
	}
	m.tstats.Relowered++
	return true
}

// reaches returns the live trace whose step at pc covers a word at or
// past addr, or nil.
func (m *Machine) reaches(pc, addr uint64) *trace {
	if ent := m.traces.get(pc); ent.tr != nil && pc+uint64(ent.tr.steps[ent.idx].n)*host.InstBytes > addr {
		return ent.tr
	}
	return nil
}

// megaOver reports whether a mega-step that starts before addr covers it.
func (m *Machine) megaOver(addr uint64) bool {
	for pc := addr - min(addr, (megaMaxLen-1)*host.InstBytes); pc < addr; pc += host.InstBytes {
		if m.reaches(pc, addr) != nil {
			return true
		}
	}
	return false
}

// dropOverlapping drops every live trace with a step covering a word of
// [addr, end). It reads the PC lookup table's entry of every word in the
// range, for the step heads there, and of the megaMaxLen-1 words before
// it, for the mega-steps that may reach into it: array reads within one
// or two chunks, so its cost follows the words written, not the live
// traces. The range filter skips a write outside the span of every live
// trace.
func (m *Machine) dropOverlapping(addr, end uint64) {
	if addr >= m.traceHi || end <= m.traceLo {
		return
	}
	for pc := addr - min(addr, (megaMaxLen-1)*host.InstBytes); pc < end; pc += host.InstBytes {
		if t := m.reaches(pc, addr); t != nil {
			m.dropTrace(t)
		}
	}
}

// dropTrace removes t from the lookup table and severs every chain link
// into it. Links *from* t die with it; back-references to t's steps held
// by other traces' incoming lists become harmless no-ops.
func (m *Machine) dropTrace(t *trace) {
	m.clearSteps(t)
	for _, in := range t.incoming {
		in.link, in.linkTr = nil, nil
		in.linkVer = 0 // below any live version: forces a re-probe
	}
	t.incoming = nil
	delete(m.traceList, t.id)
	m.steps.put(t.steps)
	m.tstats.Invalidations++
}

// dropAllTraces drops every live trace (IMB / code-cache flush).
func (m *Machine) dropAllTraces() {
	if len(m.traceList) == 0 {
		return
	}
	m.tstats.Invalidations += uint64(len(m.traceList))
	m.releaseTraces()
	m.traceLo, m.traceHi = ^uint64(0), 0
	m.traceVer++
}

// clearSteps clears the PC lookup table's entries for t's steps.
func (m *Machine) clearSteps(t *trace) {
	for i := range t.steps[:len(t.steps)-1] {
		m.traces.del(t.steps[i].pc)
	}
}

// releaseTraces empties the trace tables, keeping them, and pools every
// live trace's steps.
func (m *Machine) releaseTraces() {
	for _, t := range m.traceList {
		m.clearSteps(t)
		m.steps.put(t.steps)
	}
	clear(m.traceList)
}

// clearTraceState empties the trace tier and the fetch state (New and
// Reset only).
func (m *Machine) clearTraceState() {
	m.releaseTraces()
	m.traceLo, m.traceHi = ^uint64(0), 0
	m.traceSeq, m.traceVer = 0, 1
	m.tstats = TraceStats{}
	m.curLineID = noLineID
}

// TraceLink is one resolved chain link, for diagnostics and lint.
type TraceLink struct {
	FromPC uint64 // the exiting step
	ToPC   uint64 // the target step in another (or the same) trace
}

// TraceInfo describes one live trace, for dump output and the engine's
// invariant check.
type TraceInfo struct {
	ID         uint64
	Start, End uint64
	Steps      int      // steps, mega-steps counting once (synthetic exit excluded)
	Exits      []uint64 // static side-exit target host PCs, sorted
	Links      []TraceLink
}

// TraceInfos returns every live trace, ordered by start address.
func (m *Machine) TraceInfos() []TraceInfo {
	infos := make([]TraceInfo, 0, len(m.traceList))
	for _, t := range m.traceList {
		info := TraceInfo{ID: t.id, Start: t.start, End: t.end, Steps: len(t.steps) - 1}
		seen := map[uint64]bool{}
		for i := range t.steps {
			st := &t.steps[i]
			if st.kind.branches() && st.taken == nil && !seen[st.imm] {
				seen[st.imm] = true
				info.Exits = append(info.Exits, st.imm)
			}
			if st.link != nil {
				info.Links = append(info.Links, TraceLink{FromPC: st.pc, ToPC: st.link.pc})
			}
		}
		sort.Slice(info.Exits, func(i, j int) bool { return info.Exits[i] < info.Exits[j] })
		sort.Slice(info.Links, func(i, j int) bool { return info.Links[i].FromPC < info.Links[j].FromPC })
		infos = append(infos, info)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Start < infos[j].Start })
	return infos
}

// CheckTraceCoherence verifies the trace tier against memory and against
// its own side tables. Every live step must still be what formation
// would make of the code in memory now: a plain step's slot equals
// lower's result for its word, and a mega-step equals what fusing its
// freshly lowered words gives. The PC lookup table and the live-trace
// list must agree exactly, every step's threaded successor and taken
// pointers must land where its PC and branch target say, and every
// memoized chain link must land on a live, correctly-registered step of
// its recorded target trace. The engine's CheckInvariants calls this.
func (m *Machine) CheckTraceCoherence() error {
	entries := 0
	err := m.traces.each(func(pc uint64, ent traceEntry) error {
		entries++
		if m.traceList[ent.tr.id] != ent.tr {
			return fmt.Errorf("machine: trace LUT %#x points at dropped trace %d", pc, ent.tr.id)
		}
		if int(ent.idx) >= len(ent.tr.steps)-1 || ent.tr.steps[ent.idx].pc != pc {
			return fmt.Errorf("machine: trace LUT %#x maps to wrong step of trace %d", pc, ent.tr.id)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if entries != m.traces.live {
		return fmt.Errorf("machine: trace LUT holds %d entries, counts %d", entries, m.traces.live)
	}
	for _, t := range m.traceList {
		for i := 0; i < len(t.steps)-1; i++ {
			st := &t.steps[i]
			if ent := m.traces.get(st.pc); ent.tr != t || int(ent.idx) != i {
				return fmt.Errorf("machine: trace %d step %#x missing from LUT", t.id, st.pc)
			}
			if st.next != &t.steps[i+1] {
				return fmt.Errorf("machine: trace %d step %#x successor pointer unthreaded", t.id, st.pc)
			}
			if st.n == 0 || t.steps[i+1].pc != st.pc+uint64(st.n)*host.InstBytes {
				return fmt.Errorf("machine: trace %d step %#x (n=%d) not PC-contiguous with successor %#x", t.id, st.pc, st.n, t.steps[i+1].pc)
			}
			if err := m.checkStepCode(st); err != nil {
				return fmt.Errorf("machine: trace %d: %w", t.id, err)
			}
			var want *traceStep
			if st.kind.branches() && st.imm >= t.start && st.imm < t.end {
				if ent := m.traces.get(st.imm); ent.tr == t {
					want = &t.steps[ent.idx]
				}
			}
			if st.taken != want {
				return fmt.Errorf("machine: trace %d step %#x taken pointer mismatches target %#x", t.id, st.pc, st.imm)
			}
		}
		for i := len(t.steps) - 1; i >= 0; i-- {
			if st := &t.steps[i]; st.rest != st.sums() {
				return fmt.Errorf("machine: trace %d step %#x stretch totals %+v, want %+v", t.id, st.pc, st.rest, st.sums())
			}
		}
		for i := range t.steps {
			st := &t.steps[i]
			if st.link == nil {
				continue
			}
			lt := st.linkTr
			if lt == nil || m.traceList[lt.id] != lt {
				return fmt.Errorf("machine: trace %d holds a chain link into a dropped trace", t.id)
			}
			if st.link.pc != st.imm {
				return fmt.Errorf("machine: trace %d chain link %#x→%#x mistargeted", t.id, st.pc, st.imm)
			}
			if ent := m.traces.get(st.imm); ent.tr != lt || &lt.steps[ent.idx] != st.link {
				return fmt.Errorf("machine: trace %d chain link %#x→%#x not registered in LUT", t.id, st.pc, st.imm)
			}
		}
	}
	return nil
}

// checkStepCode re-lowers the words st covers from memory and compares
// the result with st: stale code under a live trace is an error.
func (m *Machine) checkStepCode(st *traceStep) error {
	var win [megaMaxLen]slot
	if int(st.n) > len(win) {
		return fmt.Errorf("step %#x covers %d instructions", st.pc, st.n)
	}
	for k := range int(st.n) {
		pc := st.pc + uint64(k)*host.InstBytes
		inst, err := host.Decode(m.Mem.Read32(pc))
		if err != nil {
			return fmt.Errorf("step %#x: word at %#x no longer decodes: %v", st.pc, pc, err)
		}
		win[k] = lower(pc, inst)
	}
	want, wantMega := win[0], megaAux{}
	if st.n > 1 {
		var c int
		if want, wantMega, c = fuseMega(win[:st.n]); c != int(st.n) {
			return fmt.Errorf("mega-step %#x no longer fuses its %d instructions (%d)", st.pc, st.n, c)
		}
	}
	if st.slot != want || st.mega != wantMega {
		return fmt.Errorf("step %#x is stale: holds %+v %+v, code in memory lowers to %+v %+v", st.pc, st.slot, st.mega, want, wantMega)
	}
	return nil
}

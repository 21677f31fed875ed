package machine

// The IR-less trace execution tier. A trace is a pre-decoded, pre-resolved
// copy of a span of host code: every instruction is lowered at build time
// to a traceStep whose operands are raw pointers into the register file,
// whose successors are direct step pointers (threaded code — no PC
// arithmetic, no bounds-checked indexing on the hot path), and whose
// displacement/line-crossing bookkeeping is precomputed. Each opcode is
// specialized to its own stepKind so the executor (execTrace) retires one
// host instruction per single indirect branch — no format dispatch, no
// second opcode switch, no operand decoding — and follows branches between
// traces through memoized chain links: the inner loop never returns to the
// BT dispatcher until it executes a BRKBT.
//
// The tier is simulation-invisible by construction: every cycle, counter,
// cache access, and trap the generic loop (runLoop) would charge is
// charged identically here. Two accounting transformations are applied,
// both provably neutral:
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
//
// The golden equivalence matrix pins this down — a trace-enabled
// configuration must fingerprint-identical to its untraced counterpart.
// Trace-tier telemetry therefore lives in the separate TraceStats struct,
// never in Counters.
//
// Coherence: WriteCode/Patch invalidate overlapping traces (and sever
// chain links into them) through the same invalidate() path that drops
// decoded I-lines; IMB and Reset drop every trace. A machine with a fault
// plan installed falls back to the generic loop wholesale so the
// injection stream is untouched (see Run).

import (
	"encoding/binary"
	"fmt"
	"sort"

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
	Invalidations uint64 // traces dropped by patching, IMB, or Reset
	TracedInsts   uint64 // host instructions retired by the trace executor
}

// stepKind is a fully-specialized opcode: the executor's single switch
// maps each kind straight to its semantics, so one indirect branch retires
// one instruction. stepAluX/stepBccX are generic fallbacks (host.EvalOp /
// host.BranchTaken) for any operate/branch op without its own kind.
type stepKind uint8

const (
	stepExitFall stepKind = iota // synthetic end-of-trace fallthrough; retires nothing
	stepBrk
	stepBr  // BR/BSR: unconditional, writes Ra
	stepJmp // JMP/JSR/RET: dynamic target

	// Conditional branches, one kind per predicate.
	stepBeq
	stepBne
	stepBlt
	stepBle
	stepBgt
	stepBge
	stepBlbc
	stepBlbs
	stepBccX

	// Memory, one kind per size/direction (LDA/LDAH fold into the ALU tail).
	stepLd1  // LDBU: zero-extend, never misaligns
	stepLd2  // LDWU
	stepLd4  // LDL: sign-extends
	stepLd8  // LDQ
	stepLdqu // LDQ_U: access at ea &^ 7, never misaligns
	stepSt1  // STB
	stepSt2  // STW
	stepSt4  // STL
	stepSt8  // STQ
	stepStqu // STQ_U

	stepMull
	stepMulq

	// MDA mega-steps (fuseMegaLd/fuseMegaSt): one dispatch for the whole
	// misalignment-safe load/store expansion the translator emits. They
	// sit in the memory block (non-branching, not operate-format) and
	// always execute in the outer loop; fused runs break around them.
	stepMisLd // ldq_u lo; ldq_u hi; lda; extXl; extXh; bis [; addl sext]
	stepMisSt // lda; ldq_u hi; ldq_u lo; insXh; insXl; mskXh; mskXl; bis; bis; stq_u hi; stq_u lo

	// Operate format: each case computes v and falls through to the shared
	// write-back/dual-issue tail.
	stepLda // LDA/LDAH: v = Rb + disp (disp pre-scaled for LDAH)
	stepAddl
	stepSubl
	stepAddq
	stepSubq
	stepCmpeq
	stepCmplt
	stepCmple
	stepCmpult
	stepCmpule
	stepAnd
	stepBic
	stepBis
	stepOrnot
	stepXor
	stepEqv
	stepSll
	stepSrl
	stepSra
	stepExtbl
	stepExtwl
	stepExtll
	stepExtql
	stepExtwh
	stepExtlh
	stepExtqh
	stepInsbl
	stepInswl
	stepInsll
	stepInsql
	stepInswh
	stepInslh
	stepInsqh
	stepMskbl
	stepMskwl
	stepMskll
	stepMskql
	stepMskwh
	stepMsklh
	stepMskqh
	stepAluX

	// Super-steps: build-time fusions (combineSteps) of the adjacent ALU
	// idioms misaligned-access expansions emit. n holds the constituent
	// instruction count; extra operands/destinations live in a2Ptr/b2Ptr/
	// w2Ptr/w3Ptr. All are pure operate-format work, so they sort above
	// stepLda and inherit the fused-run/stretch predicates.
	stepExtMergeL // extll t1; extlh t2; bis t1|t2 (misaligned-load merge)
	stepExtMergeW // extwl t1; extwh t2; bis t1|t2
	stepInsPairL  // inslh t; insll d (store-merge insert halves)
	stepInsPairW  // inswh t; inswl d
	stepMskPairL  // msklh t; mskll d (store-merge mask halves)
	stepMskPairW  // mskwh t; mskwl d
	stepBisPair   // two independent bis ops
)

// traceStep is one pre-resolved host instruction. Field order is
// deliberate: the first cache line holds everything the ALU and memory
// fast paths touch (successor/taken pointers, operand pointers,
// displacement, line ID, kind/flag bytes); chain links and trap-path data
// live in the second line. aPtr/bPtr/wPtr are always non-nil (unused
// sources read the pinned zero word, unused destinations hit the discard
// sink) so the executor loads operands unconditionally, without nil
// checks.
// megaAux carries the operands of an MDA mega-step that do not fit the
// traceStep pointer slots, plus the decoded constituent instructions
// needed for precise fault delivery at interior PCs.
type megaAux struct {
	hiT, loT     *uint64   // store: ldq_u destinations (high, low quadword)
	mskHw, mskLw *uint64   // store: mask destinations
	hiS, loS     *uint64   // store: merged store sources (bis destinations)
	instLdHi     host.Inst // ldq_u high (load k=1, store k=1)
	instLdLo     host.Inst // store: ldq_u low (k=2)
	instStHi     host.Inst // store: stq_u high (k=9)
	instStLo     host.Inst // store: stq_u low (k=10)
	crossK       int8      // constituent index entering a new I-line; -1 none
	sext         bool      // load: trailing addl sign-extension folded (n=7)
}

type traceStep struct {
	next  *traceStep // fallthrough successor (the synthetic exit at the end)
	taken *traceStep // in-trace branch target; nil = side exit
	aPtr  *uint64    // Ra as a source (stores, branch conditions, ALU av)
	bPtr  *uint64    // Rb as a source; for literal operate forms points at lit
	wPtr  *uint64    // destination register (or the discard sink for R31)
	a2Ptr *uint64    // super-step second-op A source
	b2Ptr *uint64    // super-step second-op B source (BisPair)
	w2Ptr *uint64    // super-step first-op destination
	w3Ptr *uint64    // super-step second-op destination (ExtMerge)

	disp   uint64 // pre-sign-extended displacement (LDAH: pre-shifted)
	lineID uint64

	kind   stepKind
	op     host.Op // kept for the generic fallbacks and diagnostics
	uncond bool    // BR with Ra==R31: foldable fetch redirect
	litB   bool    // operate literal form: bPtr is fixed up to &lit
	run    uint16  // fused-run length: consecutive non-branching steps
	//               from here on the same I-line (see execTrace)
	aluRun uint16 // pure operate-format prefix of run: closed-form dual-issue
	n      uint16 // constituent host instructions (super-steps fuse 2-3; else 1)

	pc     uint64
	exitPC uint64 // side-exit / fallthrough target host PC

	// Memoized side-exit resolution: link points at the target step of a
	// live trace (linkTr), nil when unresolved. linkVer caches the trace-
	// table version of the last failed probe so steady-state exits into
	// untraced code cost one comparison, not a map probe.
	link    *traceStep
	linkTr  *trace
	linkVer uint64

	aux *megaAux // mega-step overflow operands; nil for every other kind

	takenIdx int32  // step index of taken (kept for diagnostics/lint)
	idx      uint32 // own index in the trace's steps slice (fused-run cursor)
	payload  uint32 // BRKBT service payload
	lit      uint64 // operate-format literal backing store for bPtr
	inst     host.Inst
}

// trace is one built trace: a contiguous pre-decoded span of host code.
type trace struct {
	id         uint64
	start, end uint64
	steps      []traceStep
	gen        uint64 // stepArena generation steps was carved in
	// incoming lists steps of other traces whose chain link targets this
	// trace, so invalidation can sever them. A severed entry may belong to
	// an already-dropped trace; nil-ing its link is then harmless.
	incoming []*traceStep
}

// traceEntry is the PC-lookup-table value: every step PC of every live
// trace maps to its (trace, step) pair, so traces are enterable mid-body
// (e.g. on the return branch of an out-of-line MDA stub).
type traceEntry struct {
	tr  *trace
	idx int32
}

// maxTraceSteps bounds one trace (defensive; translated units are far
// smaller).
const maxTraceSteps = 4096

// stepArena carves the step slices of traces out of chunks the machine
// keeps, so a recycled machine rebuilds its traces without allocating.
// Memory the arena has not committed is always zero, as buildStep needs.
//
// Steps are reused only at Reset, the one point where no step pointer can
// survive: the trace tables are dropped, and no executor is running.
// Invalidation and IMB leave dropped steps in place, because chain-link
// back-lists and a running executor may still point into them. So that a
// long run that keeps invalidating and rebuilding traces does not grow
// the arena without bound, the arena abandons its chunks to the garbage
// collector (starting a new generation) when it needs a new chunk and
// more than half of the steps committed in the current generation belong
// to dropped traces. The steps it holds then stay within twice the live
// steps, plus the unused tails of full chunks and the chunk being filled.
type stepArena struct {
	chunks [][]traceStep
	cur    int    // chunk being carved
	off    int    // chunks[cur][:off] is committed
	gen    uint64 // bumped when the chunks are recycled or abandoned
	used   int    // steps committed in this generation
	dead   int    // of those, steps of dropped traces
}

// Chunk sizes double from minStepChunk up to maxStepChunk; a trace larger
// than that gets a chunk of its own size.
const (
	minStepChunk = 64
	maxStepChunk = 4096
)

// carve returns n zeroed steps at the arena cursor. They stay the
// arena's until commit; a caller that gives up must zero them again.
func (a *stepArena) carve(n int) []traceStep {
	for ; a.cur < len(a.chunks); a.cur, a.off = a.cur+1, 0 {
		if c := a.chunks[a.cur]; a.off+n <= len(c) {
			return c[a.off : a.off+n : a.off+n]
		}
	}
	if 2*a.dead > a.used {
		a.chunks, a.used, a.dead = nil, 0, 0
		a.gen++
	}
	size := minStepChunk
	if k := len(a.chunks); k > 0 {
		size = min(2*len(a.chunks[k-1]), maxStepChunk)
	}
	a.chunks = append(a.chunks, make([]traceStep, max(size, n)))
	a.cur, a.off = len(a.chunks)-1, 0
	return a.chunks[a.cur][:n:n]
}

// commit hands the first n steps of the last carve to a trace.
func (a *stepArena) commit(n int) {
	a.off += n
	a.used += n
}

// release accounts for a dropped trace's steps.
func (a *stepArena) release(t *trace) {
	if t.gen == a.gen {
		a.dead += len(t.steps)
	}
}

// releaseAll accounts for dropping every live trace.
func (a *stepArena) releaseAll() { a.dead = a.used }

// recycle zeroes every committed step and rewinds the cursor. Only Reset
// may call it (see stepArena).
func (a *stepArena) recycle() {
	for i, c := range a.chunks {
		if i == a.cur {
			clear(c[:a.off])
			break
		}
		clear(c)
	}
	a.cur, a.off, a.used, a.dead = 0, 0, 0, 0
	a.gen++
}

// noLineID is the "no current decoded line" sentinel used by the
// executor; real line IDs are PC>>6 and can never reach it.
const noLineID = ^uint64(0)

// EnableTraces switches the trace tier on or off. Disabling drops every
// trace. The tier stays dormant (Run uses the generic loop) while a
// fault-injection plan is installed even when enabled.
func (m *Machine) EnableTraces(on bool) {
	if !on {
		m.traces, m.traceList = nil, nil
		m.traceLo, m.traceHi = ^uint64(0), 0
		m.steps.releaseAll()
		return
	}
	if m.traces == nil {
		m.traces = make(map[uint64]traceEntry)
		m.traceList = make(map[uint64]*trace)
		m.traceLo, m.traceHi = ^uint64(0), 0
		m.traceVer = 1
	}
}

// TracesEnabled reports whether the trace tier is on.
func (m *Machine) TracesEnabled() bool { return m.traces != nil }

// HasTrace reports whether pc is covered by a live trace.
func (m *Machine) HasTrace(pc uint64) bool {
	_, ok := m.traces[pc]
	return ok
}

// TraceStats returns a copy of the trace-tier telemetry.
func (m *Machine) TraceStats() TraceStats { return m.tstats }

// combineSteps fuses adjacent ALU instructions forming the fixed idioms
// of misaligned-access expansions — extract-merge triples and insert/
// mask/or pair halves — into single multi-instruction super-steps, so
// the executor dispatches once for work the MDA-heavy code this
// simulator models always emits together. Fusion is architecturally
// exact: every constituent destination is still written, in program
// order, and the operand-aliasing guards in fuseAt skip any wiring
// where a later constituent reads a register an earlier one wrote.
// Super-steps never span I-lines (fused-run fetch accounting is per
// line) and never cover an intra-trace branch target (interior PCs stop
// being enterable; external entries at interior PCs simply miss the
// trace LUT and run generically). Returns the compacted step count.
func (m *Machine) combineSteps(steps []traceStep, n int) int {
	isTarget := make([]bool, n+1)
	for i := 0; i < n; i++ {
		if t := steps[i].takenIdx; t >= 0 {
			isTarget[t] = true
		}
	}
	oldToNew := make([]int32, n+1)
	w := 0
	for i := 0; i < n; {
		k := m.fuseMegaLd(steps, i, n, isTarget)
		if k == 0 {
			k = m.fuseMegaSt(steps, i, n, isTarget)
		}
		if k == 0 {
			k = fuseAt(steps, i, n, isTarget)
		}
		for j := 0; j < k; j++ {
			oldToNew[i+j] = int32(w)
		}
		steps[w] = steps[i]
		i += k
		w++
	}
	oldToNew[n] = int32(w)
	for i := 0; i < w; i++ {
		if steps[i].takenIdx >= 0 {
			steps[i].takenIdx = oldToNew[steps[i].takenIdx]
		}
	}
	return w
}

// megaCrossK returns the lowest constituent index in [1, n) whose PC
// falls on a different I-line than the idiom head, or -1 when the whole
// idiom fits one line. The executor charges the I-fetch for the second
// line exactly when execution passes that constituent, preserving the
// probe order (and thus shared-L2 state) of unfused execution.
func megaCrossK(pc uint64, lineID uint64, n int) int8 {
	for k := 1; k < n; k++ {
		if (pc+uint64(k)*host.InstBytes)>>ilineShift != lineID {
			return int8(k)
		}
	}
	return -1
}

// fuseMegaLd matches the full misalignment-safe load expansion, exactly
// as the translator emits it (paper Fig. 2):
//
//	ldq_u lo, d(base); ldq_u hi, d+sz-1(base); lda ea, d(base);
//	extXl; extXh; bis [; addl zero-sext]
//
// and rewrites it into a single stepMisLd retiring 6 (7 with the
// longword sign-extension) instructions. The wiring and clobber guards
// verify every constituent reads exactly the value the idiom's producer
// wrote, so fused execution with locals is architecturally identical.
// Returns consumed raw steps (0 = no match).
func (m *Machine) fuseMegaLd(steps []traceStep, i, n int, isTarget []bool) int {
	if i+5 >= n {
		return 0
	}
	s0, s1, s2 := &steps[i], &steps[i+1], &steps[i+2]
	s3, s4, s5 := &steps[i+3], &steps[i+4], &steps[i+5]
	if s0.kind != stepLdqu || s1.kind != stepLdqu ||
		s2.kind != stepLda || s2.op != host.LDA || s5.kind != stepBis {
		return 0
	}
	var sz uint64
	switch {
	case s3.kind == stepExtwl && s4.kind == stepExtwh:
		sz = 2
	case s3.kind == stepExtll && s4.kind == stepExtlh:
		sz = 4
	case s3.kind == stepExtql && s4.kind == stepExtqh:
		sz = 8
	default:
		return 0
	}
	for j := i + 1; j <= i+5; j++ {
		if isTarget[j] {
			return 0
		}
	}
	if s3.litB || s4.litB || s5.litB {
		return 0
	}
	base := s0.bPtr
	loT, hiT, eaT := s0.wPtr, s1.wPtr, s2.wPtr
	if s1.bPtr != base || s2.bPtr != base ||
		s1.disp != s0.disp+sz-1 || s2.disp != s0.disp {
		return 0
	}
	// Value chains and clobber guards (generic program order: each
	// register must stay live from its producer to its last reader).
	if loT == base || hiT == base || // base re-read at k1/k2
		loT == hiT || loT == eaT || hiT == eaT ||
		s3.aPtr != loT || s3.bPtr != eaT ||
		s4.aPtr != hiT || s4.bPtr != eaT ||
		s3.wPtr == hiT || s3.wPtr == eaT || s3.wPtr == s4.wPtr ||
		!(s5.aPtr == s4.wPtr && s5.bPtr == s3.wPtr ||
			s5.aPtr == s3.wPtr && s5.bPtr == s4.wPtr) {
		return 0
	}
	consumed := 6
	sext := false
	if i+6 < n && !isTarget[i+6] {
		if s6 := &steps[i+6]; s6.kind == stepAddl && !s6.litB &&
			s6.aPtr == &m.regs[host.Zero] && s6.bPtr == s5.wPtr && s6.wPtr == s5.wPtr {
			sext = true
			consumed = 7
		}
	}
	s0.aux = &megaAux{
		instLdHi: s1.inst,
		crossK:   megaCrossK(s0.pc, s0.lineID, consumed),
		sext:     sext,
	}
	s0.kind = stepMisLd
	s0.aPtr = loT // destination slots from here on; av is ignored at dispatch
	s0.a2Ptr = hiT
	s0.b2Ptr = eaT
	s0.w2Ptr = s3.wPtr
	s0.w3Ptr = s4.wPtr
	s0.wPtr = s5.wPtr
	s0.lit = sz
	s0.n = uint16(consumed)
	return consumed
}

// fuseMegaSt matches the full misalignment-safe store expansion
// (read-merge-write of the two covering quadwords, high stored first):
//
//	lda ea, d(base); ldq_u hi, d+sz-1(base); ldq_u lo, d(base);
//	insXh; insXl; mskXh; mskXl; bis; bis; stq_u hi; stq_u lo
//
// and rewrites it into a single stepMisSt retiring 11 instructions.
// Same soundness regime as fuseMegaLd. Returns consumed steps (0 = no
// match).
func (m *Machine) fuseMegaSt(steps []traceStep, i, n int, isTarget []bool) int {
	if i+10 >= n {
		return 0
	}
	s := steps[i : i+11 : i+11]
	if s[0].kind != stepLda || s[0].op != host.LDA ||
		s[1].kind != stepLdqu || s[2].kind != stepLdqu ||
		s[7].kind != stepBis || s[8].kind != stepBis ||
		s[9].kind != stepStqu || s[10].kind != stepStqu {
		return 0
	}
	var sz uint64
	switch {
	case s[3].kind == stepInswh && s[4].kind == stepInswl &&
		s[5].kind == stepMskwh && s[6].kind == stepMskwl:
		sz = 2
	case s[3].kind == stepInslh && s[4].kind == stepInsll &&
		s[5].kind == stepMsklh && s[6].kind == stepMskll:
		sz = 4
	case s[3].kind == stepInsqh && s[4].kind == stepInsql &&
		s[5].kind == stepMskqh && s[6].kind == stepMskql:
		sz = 8
	default:
		return 0
	}
	for j := i + 1; j <= i+10; j++ {
		if isTarget[j] {
			return 0
		}
	}
	for j := 3; j <= 8; j++ {
		if s[j].litB {
			return 0
		}
	}
	base, d := s[0].bPtr, s[0].disp
	eaT, hiT, loT := s[0].wPtr, s[1].wPtr, s[2].wPtr
	data := s[3].aPtr
	iA, iB := s[3].wPtr, s[4].wPtr
	mh, ml := s[5].wPtr, s[6].wPtr
	hs, ls := s[7].wPtr, s[8].wPtr
	if s[1].bPtr != base || s[2].bPtr != base || s[9].bPtr != base || s[10].bPtr != base ||
		s[1].disp != d+sz-1 || s[2].disp != d || s[9].disp != d+sz-1 || s[10].disp != d {
		return 0
	}
	// Dataflow wiring.
	if s[4].aPtr != data || s[3].bPtr != eaT || s[4].bPtr != eaT ||
		s[5].aPtr != hiT || s[5].bPtr != eaT ||
		s[6].aPtr != loT || s[6].bPtr != eaT ||
		!(s[7].aPtr == mh && s[7].bPtr == iA || s[7].aPtr == iA && s[7].bPtr == mh) ||
		!(s[8].aPtr == ml && s[8].bPtr == iB || s[8].aPtr == iB && s[8].bPtr == ml) ||
		s[9].aPtr != hs || s[10].aPtr != ls {
		return 0
	}
	// Clobber guards: every intermediate destination written while an
	// earlier value is still live must be a different register.
	if eaT == base || hiT == base || loT == base || iA == base || iB == base ||
		mh == base || ml == base || hs == base || ls == base ||
		data == eaT || data == hiT || data == loT || data == iA ||
		hiT == eaT || loT == eaT || iA == eaT || iB == eaT || mh == eaT ||
		loT == hiT || iA == hiT || iB == hiT ||
		iA == loT || iB == loT || mh == loT ||
		iB == iA || mh == iA || ml == iA ||
		mh == iB || ml == iB || hs == iB ||
		ml == mh || hs == ml || ls == hs {
		return 0
	}
	s0 := &steps[i]
	s0.aux = &megaAux{
		hiT: hiT, loT: loT, mskHw: mh, mskLw: ml, hiS: hs, loS: ls,
		instLdHi: s[1].inst, instLdLo: s[2].inst,
		instStHi: s[9].inst, instStLo: s[10].inst,
		crossK: megaCrossK(s0.pc, s0.lineID, 11),
	}
	s0.kind = stepMisSt
	s0.aPtr = data
	s0.b2Ptr = eaT
	s0.w2Ptr = iA
	s0.w3Ptr = iB
	s0.wPtr = &m.regs[sinkReg] // mega cases write their operands directly
	s0.lit = sz
	s0.n = 11
	return 11
}

// fuseAt rewrites steps[i] into a super-step when it heads a fusible
// idiom, returning the number of constituent steps consumed (1 = no
// fusion). See combineSteps for the soundness constraints.
func fuseAt(steps []traceStep, i, n int, isTarget []bool) int {
	s0 := &steps[i]
	// Extract-merge triple: extXl t1; extXh t2; bis d = t1|t2.
	if i+2 < n && !isTarget[i+1] && !isTarget[i+2] {
		s1, s2 := &steps[i+1], &steps[i+2]
		var mk stepKind
		switch {
		case s0.kind == stepExtll && s1.kind == stepExtlh:
			mk = stepExtMergeL
		case s0.kind == stepExtwl && s1.kind == stepExtwh:
			mk = stepExtMergeW
		}
		if mk != 0 && s2.kind == stepBis &&
			s0.lineID == s1.lineID && s1.lineID == s2.lineID &&
			!s0.litB && !s1.litB && !s2.litB &&
			s1.bPtr == s0.bPtr &&
			(s2.aPtr == s0.wPtr && s2.bPtr == s1.wPtr || s2.aPtr == s1.wPtr && s2.bPtr == s0.wPtr) &&
			s0.wPtr != s1.aPtr && s0.wPtr != s1.bPtr && s0.wPtr != s1.wPtr {
			s0.kind = mk
			s0.a2Ptr = s1.aPtr
			s0.w2Ptr = s0.wPtr
			s0.w3Ptr = s1.wPtr
			s0.wPtr = s2.wPtr
			s0.n = 3
			return 3
		}
	}
	if i+1 >= n || isTarget[i+1] {
		return 1
	}
	s1 := &steps[i+1]
	if s0.lineID != s1.lineID || s0.litB || s1.litB ||
		s0.wPtr == s1.aPtr || s0.wPtr == s1.bPtr || s0.wPtr == s1.wPtr {
		return 1
	}
	switch {
	// Insert pair: insXh t; insXl d — shared (value, address) inputs.
	case (s0.kind == stepInslh && s1.kind == stepInsll ||
		s0.kind == stepInswh && s1.kind == stepInswl) &&
		s1.aPtr == s0.aPtr && s1.bPtr == s0.bPtr:
		if s0.kind == stepInslh {
			s0.kind = stepInsPairL
		} else {
			s0.kind = stepInsPairW
		}
	// Mask pair: mskXh t; mskXl d — shared address, distinct sources.
	case (s0.kind == stepMsklh && s1.kind == stepMskll ||
		s0.kind == stepMskwh && s1.kind == stepMskwl) &&
		s1.bPtr == s0.bPtr:
		if s0.kind == stepMsklh {
			s0.kind = stepMskPairL
		} else {
			s0.kind = stepMskPairW
		}
		s0.a2Ptr = s1.aPtr
	// Independent OR pair (the store-merge tail emits two in a row).
	case s0.kind == stepBis && s1.kind == stepBis:
		s0.kind = stepBisPair
		s0.a2Ptr = s1.aPtr
		s0.b2Ptr = s1.bPtr
	default:
		return 1
	}
	s0.w2Ptr = s0.wPtr
	s0.wPtr = s1.wPtr
	s0.n = 2
	return 2
}

// BuildTrace pre-decodes the host code in [start, end) into a trace and
// registers every covered PC for direct execution. It reports success;
// failure (tier disabled, undecodable word, overlap with a live trace,
// bad bounds) leaves no trace behind. Building charges no simulated
// cycles: it models work the BT runtime does off the simulated CPU's
// critical path, and the resulting execution is bit-identical anyway.
func (m *Machine) BuildTrace(start, end uint64) bool {
	if m.traces == nil || start%host.InstBytes != 0 || end%host.InstBytes != 0 || end <= start {
		return false
	}
	n := int((end - start) / host.InstBytes)
	if n > maxTraceSteps {
		return false
	}
	steps := m.steps.carve(n + 1)
	for i := 0; i < n; i++ {
		pc := start + uint64(i)*host.InstBytes
		_, taken := m.traces[pc]
		inst, err := host.Decode(m.Mem.Read32(pc))
		if taken || err != nil || !m.buildStep(&steps[i], pc, inst, start, end) {
			clear(steps[:i+1]) // hand the arena back zeroed
			return false
		}
		steps[i].n = 1
	}
	// Fuse adjacent MDA-idiom ALU sequences into multi-instruction
	// super-steps; n becomes the compacted step count. Compaction leaves
	// stale copies past the new end; zero them before the arena reuses
	// that space.
	n = m.combineSteps(steps, n)
	clear(steps[n+1:])
	steps = steps[:n+1]
	m.steps.commit(n + 1)
	// Synthetic fallthrough exit: reached only if the final instruction
	// does not transfer control (translated units always do; this keeps
	// the executor total anyway). It retires no instruction.
	steps[n] = traceStep{kind: stepExitFall, pc: end, exitPC: end, takenIdx: -1, idx: uint32(n)}
	// Second pass, once the slice is final and element addresses stable:
	// thread successor/taken pointers and point literal operate forms'
	// bPtr at their own backing literal.
	for i := 0; i < n; i++ {
		st := &steps[i]
		st.idx = uint32(i)
		st.next = &steps[i+1]
		if st.takenIdx >= 0 {
			st.taken = &steps[st.takenIdx]
		}
		if st.litB {
			st.bPtr = &st.lit
		}
	}
	// Third pass: fused-run lengths. A run is a maximal stretch of
	// non-branching steps (memory, multiply, operate format — everything
	// at or above stepLd1) on one I-line; the executor settles the budget
	// check, I-fetch probe, and instruction count for a whole run up
	// front and retires its steps in a tight inner loop (trap exits
	// hand back the unretired remainder).
	for i := n - 1; i >= 0; i-- {
		st := &steps[i]
		if st.kind < stepLd1 {
			continue
		}
		st.run = st.n
		if st.kind == stepMisLd || st.kind == stepMisSt {
			// Mega-steps execute in the outer loop only (their bodies
			// carry their own fetch/trap handling); runs break around
			// them.
			continue
		}
		if nx := &steps[i+1]; nx.kind >= stepLd1 && nx.kind != stepMisLd &&
			nx.kind != stepMisSt && nx.lineID == st.lineID {
			st.run += nx.run
		}
		if st.kind >= stepLda {
			st.aluRun = st.n
			if nx := &steps[i+1]; nx.kind >= stepLda && nx.lineID == st.lineID {
				st.aluRun += nx.aluRun
			}
		}
	}

	m.traceSeq++
	t := &trace{id: m.traceSeq, start: start, end: end, steps: steps, gen: m.steps.gen}
	for i := 0; i < n; i++ {
		m.traces[steps[i].pc] = traceEntry{tr: t, idx: int32(i)}
	}
	m.traceList[t.id] = t
	if start < m.traceLo {
		m.traceLo = start
	}
	if end > m.traceHi {
		m.traceHi = end
	}
	m.traceVer++ // stale negative link caches must re-probe
	m.tstats.Formed++
	return true
}

// regRead returns a pointer to r's value as a source operand (R31's slot
// in the register file is never written, so it always reads zero).
func (m *Machine) regRead(r host.Reg) *uint64 { return &m.regs[r] }

// regWrite returns a pointer to r's value as a destination (writes to R31
// land in the sink slot).
func (m *Machine) regWrite(r host.Reg) *uint64 { return &m.regs[dstReg(r)] }

// aluKind specializes an operate-format op; ops without their own kind
// fall back to stepAluX (host.EvalOp).
func aluKind(op host.Op) stepKind {
	switch op {
	case host.ADDL:
		return stepAddl
	case host.SUBL:
		return stepSubl
	case host.ADDQ:
		return stepAddq
	case host.SUBQ:
		return stepSubq
	case host.CMPEQ:
		return stepCmpeq
	case host.CMPLT:
		return stepCmplt
	case host.CMPLE:
		return stepCmple
	case host.CMPULT:
		return stepCmpult
	case host.CMPULE:
		return stepCmpule
	case host.AND:
		return stepAnd
	case host.BIC:
		return stepBic
	case host.BIS:
		return stepBis
	case host.ORNOT:
		return stepOrnot
	case host.XOR:
		return stepXor
	case host.EQV:
		return stepEqv
	case host.SLL:
		return stepSll
	case host.SRL:
		return stepSrl
	case host.SRA:
		return stepSra
	case host.EXTBL:
		return stepExtbl
	case host.EXTWL:
		return stepExtwl
	case host.EXTLL:
		return stepExtll
	case host.EXTQL:
		return stepExtql
	case host.EXTWH:
		return stepExtwh
	case host.EXTLH:
		return stepExtlh
	case host.EXTQH:
		return stepExtqh
	case host.INSBL:
		return stepInsbl
	case host.INSWL:
		return stepInswl
	case host.INSLL:
		return stepInsll
	case host.INSQL:
		return stepInsql
	case host.INSWH:
		return stepInswh
	case host.INSLH:
		return stepInslh
	case host.INSQH:
		return stepInsqh
	case host.MSKBL:
		return stepMskbl
	case host.MSKWL:
		return stepMskwl
	case host.MSKLL:
		return stepMskll
	case host.MSKQL:
		return stepMskql
	case host.MSKWH:
		return stepMskwh
	case host.MSKLH:
		return stepMsklh
	case host.MSKQH:
		return stepMskqh
	}
	return stepAluX
}

// condKind specializes a conditional-branch predicate; unknown predicates
// fall back to stepBccX (host.BranchTaken).
func condKind(op host.Op) stepKind {
	switch op {
	case host.BEQ:
		return stepBeq
	case host.BNE:
		return stepBne
	case host.BLT:
		return stepBlt
	case host.BLE:
		return stepBle
	case host.BGT:
		return stepBgt
	case host.BGE:
		return stepBge
	case host.BLBC:
		return stepBlbc
	case host.BLBS:
		return stepBlbs
	}
	return stepBccX
}

// memKind specializes a memory-format op (LDA/LDAH excluded). The second
// result is false for ops the executor has no specialized path for.
func memKind(op host.Op) (stepKind, bool) {
	switch op {
	case host.LDBU:
		return stepLd1, true
	case host.LDWU:
		return stepLd2, true
	case host.LDL:
		return stepLd4, true
	case host.LDQ:
		return stepLd8, true
	case host.LDQU:
		return stepLdqu, true
	case host.STB:
		return stepSt1, true
	case host.STW:
		return stepSt2, true
	case host.STL:
		return stepSt4, true
	case host.STQ:
		return stepSt8, true
	case host.STQU:
		return stepStqu, true
	}
	return 0, false
}

// buildStep lowers one decoded instruction into st. It reports false on
// instructions the executor cannot reproduce.
func (m *Machine) buildStep(st *traceStep, pc uint64, inst host.Inst, start, end uint64) bool {
	st.pc = pc
	st.lineID = pc >> ilineShift
	st.inst = inst
	st.op = inst.Op
	st.takenIdx = -1
	// Never-nil defaults: the executor loads *aPtr/*bPtr unconditionally.
	st.aPtr, st.bPtr, st.wPtr = &m.regs[host.Zero], &m.regs[host.Zero], &m.regs[sinkReg]
	switch host.FormatOf(inst.Op) {
	case host.FormatPAL:
		st.kind = stepBrk
		st.payload = inst.Payload
	case host.FormatMem:
		disp := uint64(int64(inst.Disp))
		switch inst.Op {
		case host.LDA, host.LDAH:
			st.kind = stepLda
			if inst.Op == host.LDAH {
				disp <<= 16
			}
			st.disp = disp
			st.bPtr = m.regRead(inst.Rb)
			st.wPtr = m.regWrite(inst.Ra)
		default:
			kind, ok := memKind(inst.Op)
			if !ok {
				return false
			}
			st.kind = kind
			st.disp = disp
			st.bPtr = m.regRead(inst.Rb)
			if inst.Op.IsStore() {
				st.aPtr = m.regRead(inst.Ra)
			} else {
				st.wPtr = m.regWrite(inst.Ra)
			}
		}
	case host.FormatOpr:
		switch inst.Op {
		case host.MULL:
			st.kind = stepMull
		case host.MULQ:
			st.kind = stepMulq
		default:
			st.kind = aluKind(inst.Op)
		}
		st.aPtr = m.regRead(inst.Ra)
		if inst.IsLit {
			st.lit = uint64(inst.Lit)
			st.litB = true // bPtr is fixed up to &st.lit once the slice is final
		} else {
			st.bPtr = m.regRead(inst.Rb)
		}
		st.wPtr = m.regWrite(inst.Rc)
	case host.FormatBra:
		target := inst.BranchTarget(pc)
		if target >= start && target < end {
			st.takenIdx = int32((target - start) / host.InstBytes)
		} else {
			st.exitPC = target
		}
		if inst.Op == host.BR || inst.Op == host.BSR {
			st.kind = stepBr
			st.uncond = inst.Op == host.BR && inst.Ra == host.Zero
			st.wPtr = m.regWrite(inst.Ra)
		} else {
			st.kind = condKind(inst.Op)
			st.aPtr = m.regRead(inst.Ra)
		}
	case host.FormatJmp:
		st.kind = stepJmp
		st.bPtr = m.regRead(inst.Rb)
		st.wPtr = m.regWrite(inst.Ra)
	default:
		return false
	}
	return true
}

// runTraced is Run's trace-tier driver: it alternates trace execution
// with generic segments (runLoop in exit-on-trace mode), sharing one
// instruction budget.
func (m *Machine) runTraced(maxInsts uint64) (StopReason, uint32, error) {
	used := uint64(0)
	for used < maxInsts {
		if ent, ok := m.traces[m.pc]; ok && !m.traceStall {
			stop, payload, done := m.execTrace(&ent.tr.steps[ent.idx], &used, maxInsts)
			if done {
				return stop, payload, nil
			}
			continue // trap, side exit, or budget stall; re-probe below
		}
		// A budget stall means the next super-step is bigger than what is
		// left; the generic segment below retires the tail one
		// instruction at a time (it always makes progress before any
		// trace redirect, so this cannot livelock).
		m.traceStall = false
		before := m.counters.Insts
		stop, payload, err, redirected := m.runLoop(maxInsts-used, true)
		used += m.counters.Insts - before
		if !redirected {
			return stop, payload, err
		}
	}
	return StopLimit, 0, nil
}

// execTrace retires host instructions starting at step st, following
// threaded successor pointers, in-trace branch targets, and memoized
// chain links. It returns done=true when Run should return (BRKBT or
// exhausted budget); a false return means machine state is synced (a trap
// was delivered, or control left the trace tier) and the caller should
// re-probe at m.pc.
//
// Parity contract: every counter/cycle/cache mutation below mirrors the
// generic loop in runLoop exactly (modulo the two neutral accounting
// transformations documented at the top of this file). Change one only
// with its twin. The specialized ALU and branch-predicate kinds are
// pinned to host.EvalOp/host.BranchTaken by TestTraceOperateParity.
func (m *Machine) execTrace(st *traceStep, used *uint64, maxInsts uint64) (StopReason, uint32, bool) {
	p := &m.Params
	dual := p.DualIssueALU
	ldExtra := p.LoadExtraCycles
	tbc := p.TakenBranchCycles
	caches := m.caches
	insts := m.counters.Insts
	loads, stores := m.counters.Loads, m.counters.Stores
	slotOpen := uint64(0) // dual-issue slot state as 0/1 for branchless toggling
	if m.slotOpen {
		slotOpen = 1
	}
	entryInsts := insts
	n0 := *used
	limit := insts + (maxInsts - n0) // budget expressed on the insts counter
	var extra uint64                 // cycles above the 1/inst baseline; wraps on dual-issue credit
	curLineID := noLineID
	if m.curLine != nil {
		curLineID = m.curLineID
	}
	// Same-L1D-line probe memo (see the header comment for why skipping
	// repeat probes is simulation-invisible).
	dataLine := noLineID
	var dshift uint
	if caches != nil {
		dshift = caches.L1D.LineShift()
	}
	// One-entry page memo: repeat data accesses to the same 8 KiB page
	// skip the memory layer's page walk and size dispatch entirely. The
	// protection/watch check (AccessTrap) still runs per access, and page
	// backing arrays are stable for the life of the run, so direct page
	// reads/writes are equivalent to the mem accessors. Aligned accesses
	// can never cross a page, so no extent check is needed on the hit
	// path (byte ops trivially fit).
	pgIdx := ^uint64(0)
	var pg *[mem.PageSize]byte
	var pgLdTrap, pgStTrap bool
	var ea uint64 // faulting address, shared with the trap exits below
	// Mega-step fault bookkeeping (set on the goto megaTrap paths): the
	// faulting constituent's ordinal, PC, and decoded instruction.
	var trapK, trapPC uint64
	var trapInst host.Inst

	// Every exit path (including trap dispatch) writes the hoisted state
	// back through traceExit — a plain call with value arguments, not a
	// closure, so the per-step hot locals stay in registers instead of
	// being spilled to closure-captured stack slots.
	for {
		if st.kind == stepExitFall {
			// Retires nothing: either chain into the successor trace or
			// hand the fallthrough PC back to the driver.
			if l := m.followLink(st); l != nil {
				st = l
				continue
			}
			m.traceExit(st.exitPC, insts, extra, loads, stores, entryInsts, n0, curLineID, slotOpen != 0, used)
			return 0, 0, false
		}
		if insts+uint64(st.n) > limit {
			// Super-steps retire atomically, but the budget is defined on
			// single instructions: when the remainder cannot fit this step
			// (only possible for n > 1), hand the head PC back to the
			// generic loop so the tail retires instruction by instruction,
			// bit-identical to an unfused run. With n == 1 this is exactly
			// insts >= limit: the budget is spent.
			m.traceExit(st.pc, insts, extra, loads, stores, entryInsts, n0, curLineID, slotOpen != 0, used)
			if insts < limit {
				m.traceStall = true
				return 0, 0, false
			}
			return StopLimit, 0, true
		}
		if st.lineID != curLineID {
			curLineID = st.lineID
			if caches != nil {
				extra += uint64(caches.Fetch(st.pc))
			}
		}
		if r := uint64(st.run); r > uint64(st.n) && insts+r <= limit {
			// Fused run: r consecutive non-branching steps on this I-line.
			// None can branch or cross a line, so the budget is checked
			// once and insts bulk-retired, leaving the inner loop free of
			// the per-step loop-top checks. The case bodies are verbatim
			// twins of the outer switch (same accounting, same memo), with
			// two deltas: operate-format write-back and dual-issue
			// toggling share the loop tail (identical semantics), and
			// trap exits subtract the bulk-retired steps after the
			// trapping one before leaving.
			insts += r
		fused:
			for {
				if ar := uint64(st.aluRun); ar > 1 {
					// Pure operate-format stretch: every step toggles the
					// dual-issue slot the same way, so the pairing debit has
					// a closed form (pairs completed = floor((ar+open)/2))
					// and the per-op tail toggle drops out entirely.
					if dual {
						extra -= (ar + slotOpen) >> 1
						slotOpen = (slotOpen + ar) & 1
					}
					r -= ar
					for {
						av, bv := *st.aPtr, *st.bPtr
						var v uint64
						switch st.kind {
						case stepLda:
							v = bv + st.disp
						case stepAddl:
							v = uint64(int64(int32(av + bv)))
						case stepSubl:
							v = uint64(int64(int32(av - bv)))
						case stepAddq:
							v = av + bv
						case stepSubq:
							v = av - bv
						case stepCmpeq:
							v = b2iTr(av == bv)
						case stepCmplt:
							v = b2iTr(int64(av) < int64(bv))
						case stepCmple:
							v = b2iTr(int64(av) <= int64(bv))
						case stepCmpult:
							v = b2iTr(av < bv)
						case stepCmpule:
							v = b2iTr(av <= bv)
						case stepAnd:
							v = av & bv
						case stepBic:
							v = av &^ bv
						case stepBis:
							v = av | bv
						case stepOrnot:
							v = av | ^bv
						case stepXor:
							v = av ^ bv
						case stepEqv:
							v = av ^ ^bv
						case stepSll:
							v = av << (bv & 63)
						case stepSrl:
							v = av >> (bv & 63)
						case stepSra:
							v = uint64(int64(av) >> (bv & 63))
						case stepExtbl:
							v = host.ExtLow(av, bv, 1)
						case stepExtwl:
							v = host.ExtLow(av, bv, 2)
						case stepExtll:
							v = host.ExtLow(av, bv, 4)
						case stepExtql:
							v = host.ExtLow(av, bv, 8)
						case stepExtwh:
							v = host.ExtHigh(av, bv, 2)
						case stepExtlh:
							v = host.ExtHigh(av, bv, 4)
						case stepExtqh:
							v = host.ExtHigh(av, bv, 8)
						case stepInsbl:
							v = host.InsLow(av, bv, 1)
						case stepInswl:
							v = host.InsLow(av, bv, 2)
						case stepInsll:
							v = host.InsLow(av, bv, 4)
						case stepInsql:
							v = host.InsLow(av, bv, 8)
						case stepInswh:
							v = host.InsHigh(av, bv, 2)
						case stepInslh:
							v = host.InsHigh(av, bv, 4)
						case stepInsqh:
							v = host.InsHigh(av, bv, 8)
						case stepMskbl:
							v = host.MskLow(av, bv, 1)
						case stepMskwl:
							v = host.MskLow(av, bv, 2)
						case stepMskll:
							v = host.MskLow(av, bv, 4)
						case stepMskql:
							v = host.MskLow(av, bv, 8)
						case stepMskwh:
							v = host.MskHigh(av, bv, 2)
						case stepMsklh:
							v = host.MskHigh(av, bv, 4)
						case stepMskqh:
							v = host.MskHigh(av, bv, 8)
						case stepAluX:
							v = host.EvalOp(st.op, av, bv)
						case stepExtMergeL:
							t1 := host.ExtLow(av, bv, 4)
							t2 := host.ExtHigh(*st.a2Ptr, bv, 4)
							*st.w2Ptr = t1
							*st.w3Ptr = t2
							v = t1 | t2
						case stepExtMergeW:
							t1 := host.ExtLow(av, bv, 2)
							t2 := host.ExtHigh(*st.a2Ptr, bv, 2)
							*st.w2Ptr = t1
							*st.w3Ptr = t2
							v = t1 | t2
						case stepInsPairL:
							*st.w2Ptr = host.InsHigh(av, bv, 4)
							v = host.InsLow(av, bv, 4)
						case stepInsPairW:
							*st.w2Ptr = host.InsHigh(av, bv, 2)
							v = host.InsLow(av, bv, 2)
						case stepMskPairL:
							*st.w2Ptr = host.MskHigh(av, bv, 4)
							v = host.MskLow(*st.a2Ptr, bv, 4)
						case stepMskPairW:
							*st.w2Ptr = host.MskHigh(av, bv, 2)
							v = host.MskLow(*st.a2Ptr, bv, 2)
						case stepBisPair:
							*st.w2Ptr = av | bv
							v = *st.a2Ptr | *st.b2Ptr
						default:
							panic(fmt.Sprintf("machine: non-operate step %d inside an operate stretch at %#x", st.kind, st.pc))
						}
						*st.wPtr = v
						ar -= uint64(st.n)
						st = st.next
						if ar == 0 {
							break
						}
					}
					if r == 0 {
						break fused
					}
					continue fused
				}
				av, bv := *st.aPtr, *st.bPtr
				var v uint64
				switch st.kind {
				case stepLda:
					v = bv + st.disp
				case stepAddl:
					v = uint64(int64(int32(av + bv)))
				case stepSubl:
					v = uint64(int64(int32(av - bv)))
				case stepAddq:
					v = av + bv
				case stepSubq:
					v = av - bv
				case stepCmpeq:
					v = b2iTr(av == bv)
				case stepCmplt:
					v = b2iTr(int64(av) < int64(bv))
				case stepCmple:
					v = b2iTr(int64(av) <= int64(bv))
				case stepCmpult:
					v = b2iTr(av < bv)
				case stepCmpule:
					v = b2iTr(av <= bv)
				case stepAnd:
					v = av & bv
				case stepBic:
					v = av &^ bv
				case stepBis:
					v = av | bv
				case stepOrnot:
					v = av | ^bv
				case stepXor:
					v = av ^ bv
				case stepEqv:
					v = av ^ ^bv
				case stepSll:
					v = av << (bv & 63)
				case stepSrl:
					v = av >> (bv & 63)
				case stepSra:
					v = uint64(int64(av) >> (bv & 63))
				case stepExtbl:
					v = host.ExtLow(av, bv, 1)
				case stepExtwl:
					v = host.ExtLow(av, bv, 2)
				case stepExtll:
					v = host.ExtLow(av, bv, 4)
				case stepExtql:
					v = host.ExtLow(av, bv, 8)
				case stepExtwh:
					v = host.ExtHigh(av, bv, 2)
				case stepExtlh:
					v = host.ExtHigh(av, bv, 4)
				case stepExtqh:
					v = host.ExtHigh(av, bv, 8)
				case stepInsbl:
					v = host.InsLow(av, bv, 1)
				case stepInswl:
					v = host.InsLow(av, bv, 2)
				case stepInsll:
					v = host.InsLow(av, bv, 4)
				case stepInsql:
					v = host.InsLow(av, bv, 8)
				case stepInswh:
					v = host.InsHigh(av, bv, 2)
				case stepInslh:
					v = host.InsHigh(av, bv, 4)
				case stepInsqh:
					v = host.InsHigh(av, bv, 8)
				case stepMskbl:
					v = host.MskLow(av, bv, 1)
				case stepMskwl:
					v = host.MskLow(av, bv, 2)
				case stepMskll:
					v = host.MskLow(av, bv, 4)
				case stepMskql:
					v = host.MskLow(av, bv, 8)
				case stepMskwh:
					v = host.MskHigh(av, bv, 2)
				case stepMsklh:
					v = host.MskHigh(av, bv, 4)
				case stepMskqh:
					v = host.MskHigh(av, bv, 8)
				case stepAluX:
					v = host.EvalOp(st.op, av, bv)

				case stepLd1:
					ea = bv + st.disp
					slotOpen = 1
					if ea>>mem.PageShift == pgIdx {
						if pgLdTrap {
							insts -= r - 1
							goto memTrap
						}
						loads++
						extra += ldExtra
						*st.wPtr = uint64(pg[ea&(mem.PageSize-1)])
					} else {
						if m.Mem.AccessTrap(ea, 1, false) {
							insts -= r - 1
							goto memTrap
						}
						loads++
						extra += ldExtra
						*st.wPtr = uint64(m.Mem.Read8(ea))
						if p := m.Mem.PeekPage(ea); p != nil {
							pgIdx, pg = ea>>mem.PageShift, p
							pgLdTrap, pgStTrap = m.Mem.PageTrapped(ea)
						}
					}
					if caches != nil {
						if l := ea >> dshift; l != dataLine {
							dataLine = l
							extra += uint64(caches.Data(ea))
						}
					}
					st = st.next
					r--
					if r == 0 {
						break fused
					}
					continue fused

				case stepLd2:
					ea = bv + st.disp
					slotOpen = 1
					if ea&1 != 0 {
						insts -= r - 1
						goto memAlign
					}
					if ea>>mem.PageShift == pgIdx {
						if pgLdTrap {
							insts -= r - 1
							goto memTrap
						}
						loads++
						extra += ldExtra
						*st.wPtr = uint64(binary.LittleEndian.Uint16(pg[ea&(mem.PageSize-1):]))
					} else {
						if m.Mem.AccessTrap(ea, 2, false) {
							insts -= r - 1
							goto memTrap
						}
						loads++
						extra += ldExtra
						*st.wPtr = uint64(m.Mem.Read16(ea))
						if p := m.Mem.PeekPage(ea); p != nil {
							pgIdx, pg = ea>>mem.PageShift, p
							pgLdTrap, pgStTrap = m.Mem.PageTrapped(ea)
						}
					}
					if caches != nil {
						if l := ea >> dshift; l != dataLine {
							dataLine = l
							extra += uint64(caches.Data(ea))
						}
					}
					st = st.next
					r--
					if r == 0 {
						break fused
					}
					continue fused

				case stepLd4:
					ea = bv + st.disp
					slotOpen = 1
					if ea&3 != 0 {
						insts -= r - 1
						goto memAlign
					}
					if ea>>mem.PageShift == pgIdx {
						if pgLdTrap {
							insts -= r - 1
							goto memTrap
						}
						loads++
						extra += ldExtra
						*st.wPtr = uint64(int64(int32(binary.LittleEndian.Uint32(pg[ea&(mem.PageSize-1):]))))
					} else {
						if m.Mem.AccessTrap(ea, 4, false) {
							insts -= r - 1
							goto memTrap
						}
						loads++
						extra += ldExtra
						*st.wPtr = uint64(int64(int32(m.Mem.Read32(ea))))
						if p := m.Mem.PeekPage(ea); p != nil {
							pgIdx, pg = ea>>mem.PageShift, p
							pgLdTrap, pgStTrap = m.Mem.PageTrapped(ea)
						}
					}
					if caches != nil {
						if l := ea >> dshift; l != dataLine {
							dataLine = l
							extra += uint64(caches.Data(ea))
						}
					}
					st = st.next
					r--
					if r == 0 {
						break fused
					}
					continue fused

				case stepLd8:
					ea = bv + st.disp
					slotOpen = 1
					if ea&7 != 0 {
						insts -= r - 1
						goto memAlign
					}
					if ea>>mem.PageShift == pgIdx {
						if pgLdTrap {
							insts -= r - 1
							goto memTrap
						}
						loads++
						extra += ldExtra
						*st.wPtr = binary.LittleEndian.Uint64(pg[ea&(mem.PageSize-1):])
					} else {
						if m.Mem.AccessTrap(ea, 8, false) {
							insts -= r - 1
							goto memTrap
						}
						loads++
						extra += ldExtra
						*st.wPtr = m.Mem.Read64(ea)
						if p := m.Mem.PeekPage(ea); p != nil {
							pgIdx, pg = ea>>mem.PageShift, p
							pgLdTrap, pgStTrap = m.Mem.PageTrapped(ea)
						}
					}
					if caches != nil {
						if l := ea >> dshift; l != dataLine {
							dataLine = l
							extra += uint64(caches.Data(ea))
						}
					}
					st = st.next
					r--
					if r == 0 {
						break fused
					}
					continue fused

				case stepLdqu:
					ea = bv + st.disp
					slotOpen = 1
					{
						access := ea &^ 7
						if access>>mem.PageShift == pgIdx {
							if pgLdTrap {
								insts -= r - 1
								goto memTrap
							}
							loads++
							extra += ldExtra
							*st.wPtr = binary.LittleEndian.Uint64(pg[access&(mem.PageSize-1):])
						} else {
							if m.Mem.AccessTrap(access, 8, false) {
								insts -= r - 1
								goto memTrap
							}
							loads++
							extra += ldExtra
							*st.wPtr = m.Mem.Read64(access)
							if p := m.Mem.PeekPage(access); p != nil {
								pgIdx, pg = access>>mem.PageShift, p
								pgLdTrap, pgStTrap = m.Mem.PageTrapped(access)
							}
						}
						if caches != nil {
							if l := access >> dshift; l != dataLine {
								dataLine = l
								extra += uint64(caches.Data(access))
							}
						}
					}
					st = st.next
					r--
					if r == 0 {
						break fused
					}
					continue fused

				case stepSt1:
					ea = bv + st.disp
					slotOpen = 1
					if ea>>mem.PageShift == pgIdx {
						if pgStTrap {
							insts -= r - 1
							goto memTrap
						}
						stores++
						pg[ea&(mem.PageSize-1)] = byte(av)
					} else {
						if m.Mem.AccessTrap(ea, 1, true) {
							insts -= r - 1
							goto memTrap
						}
						stores++
						m.Mem.Write8(ea, byte(av))
						if p := m.Mem.PeekPage(ea); p != nil {
							pgIdx, pg = ea>>mem.PageShift, p
							pgLdTrap, pgStTrap = m.Mem.PageTrapped(ea)
						}
					}
					if caches != nil {
						if l := ea >> dshift; l != dataLine {
							dataLine = l
							extra += uint64(caches.Data(ea))
						}
					}
					st = st.next
					r--
					if r == 0 {
						break fused
					}
					continue fused

				case stepSt2:
					ea = bv + st.disp
					slotOpen = 1
					if ea&1 != 0 {
						insts -= r - 1
						goto memAlign
					}
					if ea>>mem.PageShift == pgIdx {
						if pgStTrap {
							insts -= r - 1
							goto memTrap
						}
						stores++
						binary.LittleEndian.PutUint16(pg[ea&(mem.PageSize-1):], uint16(av))
					} else {
						if m.Mem.AccessTrap(ea, 2, true) {
							insts -= r - 1
							goto memTrap
						}
						stores++
						m.Mem.Write16(ea, uint16(av))
						if p := m.Mem.PeekPage(ea); p != nil {
							pgIdx, pg = ea>>mem.PageShift, p
							pgLdTrap, pgStTrap = m.Mem.PageTrapped(ea)
						}
					}
					if caches != nil {
						if l := ea >> dshift; l != dataLine {
							dataLine = l
							extra += uint64(caches.Data(ea))
						}
					}
					st = st.next
					r--
					if r == 0 {
						break fused
					}
					continue fused

				case stepSt4:
					ea = bv + st.disp
					slotOpen = 1
					if ea&3 != 0 {
						insts -= r - 1
						goto memAlign
					}
					if ea>>mem.PageShift == pgIdx {
						if pgStTrap {
							insts -= r - 1
							goto memTrap
						}
						stores++
						binary.LittleEndian.PutUint32(pg[ea&(mem.PageSize-1):], uint32(av))
					} else {
						if m.Mem.AccessTrap(ea, 4, true) {
							insts -= r - 1
							goto memTrap
						}
						stores++
						m.Mem.Write32(ea, uint32(av))
						if p := m.Mem.PeekPage(ea); p != nil {
							pgIdx, pg = ea>>mem.PageShift, p
							pgLdTrap, pgStTrap = m.Mem.PageTrapped(ea)
						}
					}
					if caches != nil {
						if l := ea >> dshift; l != dataLine {
							dataLine = l
							extra += uint64(caches.Data(ea))
						}
					}
					st = st.next
					r--
					if r == 0 {
						break fused
					}
					continue fused

				case stepSt8:
					ea = bv + st.disp
					slotOpen = 1
					if ea&7 != 0 {
						insts -= r - 1
						goto memAlign
					}
					if ea>>mem.PageShift == pgIdx {
						if pgStTrap {
							insts -= r - 1
							goto memTrap
						}
						stores++
						binary.LittleEndian.PutUint64(pg[ea&(mem.PageSize-1):], av)
					} else {
						if m.Mem.AccessTrap(ea, 8, true) {
							insts -= r - 1
							goto memTrap
						}
						stores++
						m.Mem.Write64(ea, av)
						if p := m.Mem.PeekPage(ea); p != nil {
							pgIdx, pg = ea>>mem.PageShift, p
							pgLdTrap, pgStTrap = m.Mem.PageTrapped(ea)
						}
					}
					if caches != nil {
						if l := ea >> dshift; l != dataLine {
							dataLine = l
							extra += uint64(caches.Data(ea))
						}
					}
					st = st.next
					r--
					if r == 0 {
						break fused
					}
					continue fused

				case stepStqu:
					ea = bv + st.disp
					slotOpen = 1
					{
						access := ea &^ 7
						if access>>mem.PageShift == pgIdx {
							if pgStTrap {
								insts -= r - 1
								goto memTrap
							}
							stores++
							binary.LittleEndian.PutUint64(pg[access&(mem.PageSize-1):], av)
						} else {
							if m.Mem.AccessTrap(access, 8, true) {
								insts -= r - 1
								goto memTrap
							}
							stores++
							m.Mem.Write64(access, av)
							if p := m.Mem.PeekPage(access); p != nil {
								pgIdx, pg = access>>mem.PageShift, p
								pgLdTrap, pgStTrap = m.Mem.PageTrapped(access)
							}
						}
						if caches != nil {
							if l := access >> dshift; l != dataLine {
								dataLine = l
								extra += uint64(caches.Data(access))
							}
						}
					}
					st = st.next
					r--
					if r == 0 {
						break fused
					}
					continue fused

				case stepMull:
					*st.wPtr = uint64(int64(int32(av * bv)))
					extra += p.MulExtraCycles
					slotOpen = 0
					st = st.next
					r--
					if r == 0 {
						break fused
					}
					continue fused

				case stepMulq:
					*st.wPtr = av * bv
					extra += p.MulExtraCycles
					slotOpen = 0
					st = st.next
					r--
					if r == 0 {
						break fused
					}
					continue fused
				default:
					panic(fmt.Sprintf("machine: branching step %d inside a fused run at %#x", st.kind, st.pc))
				}
				*st.wPtr = v
				if dual {
					extra -= slotOpen
					slotOpen ^= 1
				}
				st = st.next
				r--
				if r == 0 {
					break
				}
			}
			continue
		}
		insts += uint64(st.n)
		av, bv := *st.aPtr, *st.bPtr
		var v uint64
		var taken bool

		switch st.kind {
		case stepLda:
			v = bv + st.disp
		case stepAddl:
			v = uint64(int64(int32(av + bv)))
		case stepSubl:
			v = uint64(int64(int32(av - bv)))
		case stepAddq:
			v = av + bv
		case stepSubq:
			v = av - bv
		case stepCmpeq:
			v = b2iTr(av == bv)
		case stepCmplt:
			v = b2iTr(int64(av) < int64(bv))
		case stepCmple:
			v = b2iTr(int64(av) <= int64(bv))
		case stepCmpult:
			v = b2iTr(av < bv)
		case stepCmpule:
			v = b2iTr(av <= bv)
		case stepAnd:
			v = av & bv
		case stepBic:
			v = av &^ bv
		case stepBis:
			v = av | bv
		case stepOrnot:
			v = av | ^bv
		case stepXor:
			v = av ^ bv
		case stepEqv:
			v = av ^ ^bv
		case stepSll:
			v = av << (bv & 63)
		case stepSrl:
			v = av >> (bv & 63)
		case stepSra:
			v = uint64(int64(av) >> (bv & 63))
		case stepExtbl:
			v = host.ExtLow(av, bv, 1)
		case stepExtwl:
			v = host.ExtLow(av, bv, 2)
		case stepExtll:
			v = host.ExtLow(av, bv, 4)
		case stepExtql:
			v = host.ExtLow(av, bv, 8)
		case stepExtwh:
			v = host.ExtHigh(av, bv, 2)
		case stepExtlh:
			v = host.ExtHigh(av, bv, 4)
		case stepExtqh:
			v = host.ExtHigh(av, bv, 8)
		case stepInsbl:
			v = host.InsLow(av, bv, 1)
		case stepInswl:
			v = host.InsLow(av, bv, 2)
		case stepInsll:
			v = host.InsLow(av, bv, 4)
		case stepInsql:
			v = host.InsLow(av, bv, 8)
		case stepInswh:
			v = host.InsHigh(av, bv, 2)
		case stepInslh:
			v = host.InsHigh(av, bv, 4)
		case stepInsqh:
			v = host.InsHigh(av, bv, 8)
		case stepMskbl:
			v = host.MskLow(av, bv, 1)
		case stepMskwl:
			v = host.MskLow(av, bv, 2)
		case stepMskll:
			v = host.MskLow(av, bv, 4)
		case stepMskql:
			v = host.MskLow(av, bv, 8)
		case stepMskwh:
			v = host.MskHigh(av, bv, 2)
		case stepMsklh:
			v = host.MskHigh(av, bv, 4)
		case stepMskqh:
			v = host.MskHigh(av, bv, 8)
		case stepAluX:
			v = host.EvalOp(st.op, av, bv)
		case stepExtMergeL:
			if dual {
				// Two extra constituents: closed-form debit, parity kept.
				extra -= (2 + slotOpen) >> 1
			}
			t1 := host.ExtLow(av, bv, 4)
			t2 := host.ExtHigh(*st.a2Ptr, bv, 4)
			*st.w2Ptr = t1
			*st.w3Ptr = t2
			v = t1 | t2
		case stepExtMergeW:
			if dual {
				// Two extra constituents: closed-form debit, parity kept.
				extra -= (2 + slotOpen) >> 1
			}
			t1 := host.ExtLow(av, bv, 2)
			t2 := host.ExtHigh(*st.a2Ptr, bv, 2)
			*st.w2Ptr = t1
			*st.w3Ptr = t2
			v = t1 | t2
		case stepInsPairL:
			if dual {
				extra -= slotOpen
				slotOpen ^= 1
			}
			*st.w2Ptr = host.InsHigh(av, bv, 4)
			v = host.InsLow(av, bv, 4)
		case stepInsPairW:
			if dual {
				extra -= slotOpen
				slotOpen ^= 1
			}
			*st.w2Ptr = host.InsHigh(av, bv, 2)
			v = host.InsLow(av, bv, 2)
		case stepMskPairL:
			if dual {
				extra -= slotOpen
				slotOpen ^= 1
			}
			*st.w2Ptr = host.MskHigh(av, bv, 4)
			v = host.MskLow(*st.a2Ptr, bv, 4)
		case stepMskPairW:
			if dual {
				extra -= slotOpen
				slotOpen ^= 1
			}
			*st.w2Ptr = host.MskHigh(av, bv, 2)
			v = host.MskLow(*st.a2Ptr, bv, 2)
		case stepBisPair:
			if dual {
				extra -= slotOpen
				slotOpen ^= 1
			}
			*st.w2Ptr = av | bv
			v = *st.a2Ptr | *st.b2Ptr

		case stepBeq:
			taken = av == 0
			goto condBr
		case stepBne:
			taken = av != 0
			goto condBr
		case stepBlt:
			taken = int64(av) < 0
			goto condBr
		case stepBle:
			taken = int64(av) <= 0
			goto condBr
		case stepBgt:
			taken = int64(av) > 0
			goto condBr
		case stepBge:
			taken = int64(av) >= 0
			goto condBr
		case stepBlbc:
			taken = av&1 == 0
			goto condBr
		case stepBlbs:
			taken = av&1 != 0
			goto condBr
		case stepBccX:
			taken = host.BranchTaken(st.op, av)
			goto condBr

		case stepLd1:
			ea = bv + st.disp
			slotOpen = 1
			if ea>>mem.PageShift == pgIdx {
				if pgLdTrap {
					goto memTrap
				}
				loads++
				extra += ldExtra
				*st.wPtr = uint64(pg[ea&(mem.PageSize-1)])
			} else {
				if m.Mem.AccessTrap(ea, 1, false) {
					goto memTrap
				}
				loads++
				extra += ldExtra
				*st.wPtr = uint64(m.Mem.Read8(ea))
				if p := m.Mem.PeekPage(ea); p != nil {
					pgIdx, pg = ea>>mem.PageShift, p
					pgLdTrap, pgStTrap = m.Mem.PageTrapped(ea)
				}
			}
			if caches != nil {
				if l := ea >> dshift; l != dataLine {
					dataLine = l
					extra += uint64(caches.Data(ea))
				}
			}
			st = st.next
			continue

		case stepLd2:
			ea = bv + st.disp
			slotOpen = 1
			if ea&1 != 0 {
				goto memAlign
			}
			if ea>>mem.PageShift == pgIdx {
				if pgLdTrap {
					goto memTrap
				}
				loads++
				extra += ldExtra
				*st.wPtr = uint64(binary.LittleEndian.Uint16(pg[ea&(mem.PageSize-1):]))
			} else {
				if m.Mem.AccessTrap(ea, 2, false) {
					goto memTrap
				}
				loads++
				extra += ldExtra
				*st.wPtr = uint64(m.Mem.Read16(ea))
				if p := m.Mem.PeekPage(ea); p != nil {
					pgIdx, pg = ea>>mem.PageShift, p
					pgLdTrap, pgStTrap = m.Mem.PageTrapped(ea)
				}
			}
			if caches != nil {
				if l := ea >> dshift; l != dataLine {
					dataLine = l
					extra += uint64(caches.Data(ea))
				}
			}
			st = st.next
			continue

		case stepLd4:
			ea = bv + st.disp
			slotOpen = 1
			if ea&3 != 0 {
				goto memAlign
			}
			if ea>>mem.PageShift == pgIdx {
				if pgLdTrap {
					goto memTrap
				}
				loads++
				extra += ldExtra
				*st.wPtr = uint64(int64(int32(binary.LittleEndian.Uint32(pg[ea&(mem.PageSize-1):]))))
			} else {
				if m.Mem.AccessTrap(ea, 4, false) {
					goto memTrap
				}
				loads++
				extra += ldExtra
				*st.wPtr = uint64(int64(int32(m.Mem.Read32(ea))))
				if p := m.Mem.PeekPage(ea); p != nil {
					pgIdx, pg = ea>>mem.PageShift, p
					pgLdTrap, pgStTrap = m.Mem.PageTrapped(ea)
				}
			}
			if caches != nil {
				if l := ea >> dshift; l != dataLine {
					dataLine = l
					extra += uint64(caches.Data(ea))
				}
			}
			st = st.next
			continue

		case stepLd8:
			ea = bv + st.disp
			slotOpen = 1
			if ea&7 != 0 {
				goto memAlign
			}
			if ea>>mem.PageShift == pgIdx {
				if pgLdTrap {
					goto memTrap
				}
				loads++
				extra += ldExtra
				*st.wPtr = binary.LittleEndian.Uint64(pg[ea&(mem.PageSize-1):])
			} else {
				if m.Mem.AccessTrap(ea, 8, false) {
					goto memTrap
				}
				loads++
				extra += ldExtra
				*st.wPtr = m.Mem.Read64(ea)
				if p := m.Mem.PeekPage(ea); p != nil {
					pgIdx, pg = ea>>mem.PageShift, p
					pgLdTrap, pgStTrap = m.Mem.PageTrapped(ea)
				}
			}
			if caches != nil {
				if l := ea >> dshift; l != dataLine {
					dataLine = l
					extra += uint64(caches.Data(ea))
				}
			}
			st = st.next
			continue

		case stepLdqu:
			ea = bv + st.disp
			slotOpen = 1
			{
				access := ea &^ 7
				if access>>mem.PageShift == pgIdx {
					if pgLdTrap {
						goto memTrap
					}
					loads++
					extra += ldExtra
					*st.wPtr = binary.LittleEndian.Uint64(pg[access&(mem.PageSize-1):])
				} else {
					if m.Mem.AccessTrap(access, 8, false) {
						goto memTrap
					}
					loads++
					extra += ldExtra
					*st.wPtr = m.Mem.Read64(access)
					if p := m.Mem.PeekPage(access); p != nil {
						pgIdx, pg = access>>mem.PageShift, p
						pgLdTrap, pgStTrap = m.Mem.PageTrapped(access)
					}
				}
				if caches != nil {
					if l := access >> dshift; l != dataLine {
						dataLine = l
						extra += uint64(caches.Data(access))
					}
				}
			}
			st = st.next
			continue

		case stepSt1:
			ea = bv + st.disp
			slotOpen = 1
			if ea>>mem.PageShift == pgIdx {
				if pgStTrap {
					goto memTrap
				}
				stores++
				pg[ea&(mem.PageSize-1)] = byte(av)
			} else {
				if m.Mem.AccessTrap(ea, 1, true) {
					goto memTrap
				}
				stores++
				m.Mem.Write8(ea, byte(av))
				if p := m.Mem.PeekPage(ea); p != nil {
					pgIdx, pg = ea>>mem.PageShift, p
					pgLdTrap, pgStTrap = m.Mem.PageTrapped(ea)
				}
			}
			if caches != nil {
				if l := ea >> dshift; l != dataLine {
					dataLine = l
					extra += uint64(caches.Data(ea))
				}
			}
			st = st.next
			continue

		case stepSt2:
			ea = bv + st.disp
			slotOpen = 1
			if ea&1 != 0 {
				goto memAlign
			}
			if ea>>mem.PageShift == pgIdx {
				if pgStTrap {
					goto memTrap
				}
				stores++
				binary.LittleEndian.PutUint16(pg[ea&(mem.PageSize-1):], uint16(av))
			} else {
				if m.Mem.AccessTrap(ea, 2, true) {
					goto memTrap
				}
				stores++
				m.Mem.Write16(ea, uint16(av))
				if p := m.Mem.PeekPage(ea); p != nil {
					pgIdx, pg = ea>>mem.PageShift, p
					pgLdTrap, pgStTrap = m.Mem.PageTrapped(ea)
				}
			}
			if caches != nil {
				if l := ea >> dshift; l != dataLine {
					dataLine = l
					extra += uint64(caches.Data(ea))
				}
			}
			st = st.next
			continue

		case stepSt4:
			ea = bv + st.disp
			slotOpen = 1
			if ea&3 != 0 {
				goto memAlign
			}
			if ea>>mem.PageShift == pgIdx {
				if pgStTrap {
					goto memTrap
				}
				stores++
				binary.LittleEndian.PutUint32(pg[ea&(mem.PageSize-1):], uint32(av))
			} else {
				if m.Mem.AccessTrap(ea, 4, true) {
					goto memTrap
				}
				stores++
				m.Mem.Write32(ea, uint32(av))
				if p := m.Mem.PeekPage(ea); p != nil {
					pgIdx, pg = ea>>mem.PageShift, p
					pgLdTrap, pgStTrap = m.Mem.PageTrapped(ea)
				}
			}
			if caches != nil {
				if l := ea >> dshift; l != dataLine {
					dataLine = l
					extra += uint64(caches.Data(ea))
				}
			}
			st = st.next
			continue

		case stepSt8:
			ea = bv + st.disp
			slotOpen = 1
			if ea&7 != 0 {
				goto memAlign
			}
			if ea>>mem.PageShift == pgIdx {
				if pgStTrap {
					goto memTrap
				}
				stores++
				binary.LittleEndian.PutUint64(pg[ea&(mem.PageSize-1):], av)
			} else {
				if m.Mem.AccessTrap(ea, 8, true) {
					goto memTrap
				}
				stores++
				m.Mem.Write64(ea, av)
				if p := m.Mem.PeekPage(ea); p != nil {
					pgIdx, pg = ea>>mem.PageShift, p
					pgLdTrap, pgStTrap = m.Mem.PageTrapped(ea)
				}
			}
			if caches != nil {
				if l := ea >> dshift; l != dataLine {
					dataLine = l
					extra += uint64(caches.Data(ea))
				}
			}
			st = st.next
			continue

		case stepStqu:
			ea = bv + st.disp
			slotOpen = 1
			{
				access := ea &^ 7
				if access>>mem.PageShift == pgIdx {
					if pgStTrap {
						goto memTrap
					}
					stores++
					binary.LittleEndian.PutUint64(pg[access&(mem.PageSize-1):], av)
				} else {
					if m.Mem.AccessTrap(access, 8, true) {
						goto memTrap
					}
					stores++
					m.Mem.Write64(access, av)
					if p := m.Mem.PeekPage(access); p != nil {
						pgIdx, pg = access>>mem.PageShift, p
						pgLdTrap, pgStTrap = m.Mem.PageTrapped(access)
					}
				}
				if caches != nil {
					if l := access >> dshift; l != dataLine {
						dataLine = l
						extra += uint64(caches.Data(access))
					}
				}
			}
			st = st.next
			continue

		case stepMisLd:
			// Fused misalignment-safe load (see fuseMegaLd). Constituents
			// run in program order with per-access trap checks, so a
			// fault mid-idiom delivers precisely: earlier register
			// writes are visible, the faulting PC is the interior
			// constituent's, and the unretired remainder is handed back
			// at megaTrap. Interior PCs are not in the trace LUT, so the
			// post-fault resume runs the rest of the idiom generically.
			{
				ax := st.aux
				sz := int(st.lit)
				eaLo := bv + st.disp
				eaHi := eaLo + uint64(sz) - 1
				slotOpen = 1
				// k0: ldq_u low quadword
				var lo uint64
				if access := eaLo &^ 7; access>>mem.PageShift == pgIdx {
					if pgLdTrap {
						trapK, trapPC, trapInst, ea = 0, st.pc, st.inst, eaLo
						goto megaTrap
					}
					loads++
					extra += ldExtra
					lo = binary.LittleEndian.Uint64(pg[access&(mem.PageSize-1):])
					if caches != nil {
						if l := access >> dshift; l != dataLine {
							dataLine = l
							extra += uint64(caches.Data(access))
						}
					}
				} else {
					if m.Mem.AccessTrap(access, 8, false) {
						trapK, trapPC, trapInst, ea = 0, st.pc, st.inst, eaLo
						goto megaTrap
					}
					loads++
					extra += ldExtra
					lo = m.Mem.Read64(access)
					if p := m.Mem.PeekPage(access); p != nil {
						pgIdx, pg = access>>mem.PageShift, p
						pgLdTrap, pgStTrap = m.Mem.PageTrapped(access)
					}
					if caches != nil {
						if l := access >> dshift; l != dataLine {
							dataLine = l
							extra += uint64(caches.Data(access))
						}
					}
				}
				*st.aPtr = lo
				if ax.crossK == 1 {
					curLineID = (st.pc + 1*host.InstBytes) >> ilineShift
					if caches != nil {
						extra += uint64(caches.Fetch(st.pc + 1*host.InstBytes))
					}
				}
				// k1: ldq_u high quadword
				var hi uint64
				if access := eaHi &^ 7; access>>mem.PageShift == pgIdx {
					if pgLdTrap {
						trapK, trapPC, trapInst, ea = 1, st.pc+1*host.InstBytes, ax.instLdHi, eaHi
						goto megaTrap
					}
					loads++
					extra += ldExtra
					hi = binary.LittleEndian.Uint64(pg[access&(mem.PageSize-1):])
					if caches != nil {
						if l := access >> dshift; l != dataLine {
							dataLine = l
							extra += uint64(caches.Data(access))
						}
					}
				} else {
					if m.Mem.AccessTrap(access, 8, false) {
						trapK, trapPC, trapInst, ea = 1, st.pc+1*host.InstBytes, ax.instLdHi, eaHi
						goto megaTrap
					}
					loads++
					extra += ldExtra
					hi = m.Mem.Read64(access)
					if p := m.Mem.PeekPage(access); p != nil {
						pgIdx, pg = access>>mem.PageShift, p
						pgLdTrap, pgStTrap = m.Mem.PageTrapped(access)
					}
					if caches != nil {
						if l := access >> dshift; l != dataLine {
							dataLine = l
							extra += uint64(caches.Data(access))
						}
					}
				}
				*st.a2Ptr = hi
				if ax.crossK >= 2 {
					cp := st.pc + uint64(ax.crossK)*host.InstBytes
					curLineID = cp >> ilineShift
					if caches != nil {
						extra += uint64(caches.Fetch(cp))
					}
				}
				// k2..: lda; extXl; extXh; bis [; addl] — pure operate
				// work, closed-form dual-issue from the post-load slot
				// state (always open after a memory op).
				if dual {
					if ax.sext {
						extra -= 3
					} else {
						extra -= 2
					}
				}
				if ax.sext {
					slotOpen = 0
				} else {
					slotOpen = 1
				}
				*st.b2Ptr = eaLo
				e1 := host.ExtLow(lo, eaLo, sz)
				*st.w2Ptr = e1
				e2 := host.ExtHigh(hi, eaLo, sz)
				*st.w3Ptr = e2
				v := e2 | e1
				if ax.sext {
					v = uint64(int64(int32(v)))
				}
				*st.wPtr = v
			}
			st = st.next
			continue

		case stepMisSt:
			// Fused misalignment-safe store (see fuseMegaSt): read-merge-
			// write of the two covering quadwords, high stored first.
			// Same precise-fault regime as stepMisLd; a fault on the
			// second stq_u leaves the first store architecturally done.
			{
				ax := st.aux
				sz := int(st.lit)
				dv := av // aPtr = stored value
				eaLo := bv + st.disp
				eaHi := eaLo + uint64(sz) - 1
				accLo := eaLo &^ 7
				accHi := eaHi &^ 7
				// k0: lda (operate: one dual toggle, state then forced
				// open by the ldq_u pair)
				if dual {
					extra -= slotOpen
				}
				slotOpen = 1
				*st.b2Ptr = eaLo
				if ax.crossK == 1 {
					curLineID = (st.pc + 1*host.InstBytes) >> ilineShift
					if caches != nil {
						extra += uint64(caches.Fetch(st.pc + 1*host.InstBytes))
					}
				}
				// k1: ldq_u high quadword
				var hi uint64
				if accHi>>mem.PageShift == pgIdx {
					if pgLdTrap {
						trapK, trapPC, trapInst, ea = 1, st.pc+1*host.InstBytes, ax.instLdHi, eaHi
						goto megaTrap
					}
					loads++
					extra += ldExtra
					hi = binary.LittleEndian.Uint64(pg[accHi&(mem.PageSize-1):])
					if caches != nil {
						if l := accHi >> dshift; l != dataLine {
							dataLine = l
							extra += uint64(caches.Data(accHi))
						}
					}
				} else {
					if m.Mem.AccessTrap(accHi, 8, false) {
						trapK, trapPC, trapInst, ea = 1, st.pc+1*host.InstBytes, ax.instLdHi, eaHi
						goto megaTrap
					}
					loads++
					extra += ldExtra
					hi = m.Mem.Read64(accHi)
					if p := m.Mem.PeekPage(accHi); p != nil {
						pgIdx, pg = accHi>>mem.PageShift, p
						pgLdTrap, pgStTrap = m.Mem.PageTrapped(accHi)
					}
					if caches != nil {
						if l := accHi >> dshift; l != dataLine {
							dataLine = l
							extra += uint64(caches.Data(accHi))
						}
					}
				}
				*ax.hiT = hi
				if ax.crossK == 2 {
					curLineID = (st.pc + 2*host.InstBytes) >> ilineShift
					if caches != nil {
						extra += uint64(caches.Fetch(st.pc + 2*host.InstBytes))
					}
				}
				// k2: ldq_u low quadword
				var lo uint64
				if accLo>>mem.PageShift == pgIdx {
					if pgLdTrap {
						trapK, trapPC, trapInst, ea = 2, st.pc+2*host.InstBytes, ax.instLdLo, eaLo
						goto megaTrap
					}
					loads++
					extra += ldExtra
					lo = binary.LittleEndian.Uint64(pg[accLo&(mem.PageSize-1):])
					if caches != nil {
						if l := accLo >> dshift; l != dataLine {
							dataLine = l
							extra += uint64(caches.Data(accLo))
						}
					}
				} else {
					if m.Mem.AccessTrap(accLo, 8, false) {
						trapK, trapPC, trapInst, ea = 2, st.pc+2*host.InstBytes, ax.instLdLo, eaLo
						goto megaTrap
					}
					loads++
					extra += ldExtra
					lo = m.Mem.Read64(accLo)
					if p := m.Mem.PeekPage(accLo); p != nil {
						pgIdx, pg = accLo>>mem.PageShift, p
						pgLdTrap, pgStTrap = m.Mem.PageTrapped(accLo)
					}
					if caches != nil {
						if l := accLo >> dshift; l != dataLine {
							dataLine = l
							extra += uint64(caches.Data(accLo))
						}
					}
				}
				*ax.loT = lo
				if k := ax.crossK; k >= 3 && k <= 9 {
					cp := st.pc + uint64(k)*host.InstBytes
					curLineID = cp >> ilineShift
					if caches != nil {
						extra += uint64(caches.Fetch(cp))
					}
				}
				// k3..k8: ins/msk/bis merge — closed-form dual-issue from
				// the post-load open slot (6 operate ops: 3 pairs).
				if dual {
					extra -= 3
				}
				slotOpen = 1
				iA := host.InsHigh(dv, eaLo, sz)
				*st.w2Ptr = iA
				iB := host.InsLow(dv, eaLo, sz)
				*st.w3Ptr = iB
				mh := host.MskHigh(hi, eaLo, sz)
				*ax.mskHw = mh
				ml := host.MskLow(lo, eaLo, sz)
				*ax.mskLw = ml
				hs := mh | iA
				*ax.hiS = hs
				ls := ml | iB
				*ax.loS = ls
				// k9: stq_u high quadword
				if accHi>>mem.PageShift == pgIdx {
					if pgStTrap {
						trapK, trapPC, trapInst, ea = 9, st.pc+9*host.InstBytes, ax.instStHi, eaHi
						goto megaTrap
					}
					stores++
					binary.LittleEndian.PutUint64(pg[accHi&(mem.PageSize-1):], hs)
					if caches != nil {
						if l := accHi >> dshift; l != dataLine {
							dataLine = l
							extra += uint64(caches.Data(accHi))
						}
					}
				} else {
					if m.Mem.AccessTrap(accHi, 8, true) {
						trapK, trapPC, trapInst, ea = 9, st.pc+9*host.InstBytes, ax.instStHi, eaHi
						goto megaTrap
					}
					stores++
					m.Mem.Write64(accHi, hs)
					if p := m.Mem.PeekPage(accHi); p != nil {
						pgIdx, pg = accHi>>mem.PageShift, p
						pgLdTrap, pgStTrap = m.Mem.PageTrapped(accHi)
					}
					if caches != nil {
						if l := accHi >> dshift; l != dataLine {
							dataLine = l
							extra += uint64(caches.Data(accHi))
						}
					}
				}
				if ax.crossK == 10 {
					curLineID = (st.pc + 10*host.InstBytes) >> ilineShift
					if caches != nil {
						extra += uint64(caches.Fetch(st.pc + 10*host.InstBytes))
					}
				}
				// k10: stq_u low quadword
				if accLo>>mem.PageShift == pgIdx {
					if pgStTrap {
						trapK, trapPC, trapInst, ea = 10, st.pc+10*host.InstBytes, ax.instStLo, eaLo
						goto megaTrap
					}
					stores++
					binary.LittleEndian.PutUint64(pg[accLo&(mem.PageSize-1):], ls)
					if caches != nil {
						if l := accLo >> dshift; l != dataLine {
							dataLine = l
							extra += uint64(caches.Data(accLo))
						}
					}
				} else {
					if m.Mem.AccessTrap(accLo, 8, true) {
						trapK, trapPC, trapInst, ea = 10, st.pc+10*host.InstBytes, ax.instStLo, eaLo
						goto megaTrap
					}
					stores++
					m.Mem.Write64(accLo, ls)
					if p := m.Mem.PeekPage(accLo); p != nil {
						pgIdx, pg = accLo>>mem.PageShift, p
						pgLdTrap, pgStTrap = m.Mem.PageTrapped(accLo)
					}
					if caches != nil {
						if l := accLo >> dshift; l != dataLine {
							dataLine = l
							extra += uint64(caches.Data(accLo))
						}
					}
				}
			}
			st = st.next
			continue

		case stepMull:
			*st.wPtr = uint64(int64(int32(av * bv)))
			extra += p.MulExtraCycles
			slotOpen = 0
			st = st.next
			continue

		case stepMulq:
			*st.wPtr = av * bv
			extra += p.MulExtraCycles
			slotOpen = 0
			st = st.next
			continue

		case stepBr:
			if st.uncond && dual {
				extra -= slotOpen
				slotOpen ^= 1
			} else {
				slotOpen = 0
			}
			*st.wPtr = st.pc + host.InstBytes
			if !st.uncond {
				extra += tbc
			}
			if st.taken != nil {
				st = st.taken
				continue
			}
			if l := m.followLink(st); l != nil {
				st = l
				continue
			}
			m.traceExit(st.exitPC, insts, extra, loads, stores, entryInsts, n0, curLineID, slotOpen != 0, used)
			return 0, 0, false

		case stepJmp:
			slotOpen = 0
			target := bv &^ 3
			*st.wPtr = st.pc + host.InstBytes
			extra += tbc
			// Dynamic target: no memoized link, but a direct LUT probe
			// still keeps indirect transfers inside the tier.
			if ent, ok := m.traces[target]; ok {
				m.tstats.ChainFollows++
				st = &ent.tr.steps[ent.idx]
				continue
			}
			m.traceExit(target, insts, extra, loads, stores, entryInsts, n0, curLineID, slotOpen != 0, used)
			return 0, 0, false

		case stepBrk:
			m.counters.Brks++
			extra += p.BrkCycles
			slotOpen = 0
			m.traceExit(st.pc+host.InstBytes, insts, extra, loads, stores, entryInsts, n0, curLineID, slotOpen != 0, used)
			if st.payload == HaltService {
				return StopHalt, st.payload, true
			}
			return StopBrk, st.payload, true

		default:
			panic(fmt.Sprintf("machine: corrupt trace step kind %d at %#x", st.kind, st.pc))
		}

		// Shared operate-format tail: write back and toggle the dual-issue
		// slot. Only the v-computing cases above fall through to here.
		*st.wPtr = v
		if dual {
			extra -= slotOpen
			slotOpen ^= 1
		}
		st = st.next
		continue

	condBr:
		slotOpen = 0
		if taken {
			extra += tbc
			if st.taken != nil {
				st = st.taken
				continue
			}
			if l := m.followLink(st); l != nil {
				st = l
				continue
			}
			m.traceExit(st.exitPC, insts, extra, loads, stores, entryInsts, n0, curLineID, slotOpen != 0, used)
			return 0, 0, false
		}
		st = st.next
	}

	// Cold trap exits, reached by goto from the memory cases; ea holds the
	// faulting effective address.
memAlign:
	m.traceExit(st.pc, insts, extra, loads, stores, entryInsts, n0, curLineID, slotOpen != 0, used)
	m.misalignTrap(st.inst, ea)
	return 0, 0, false // handler set the resume PC; re-probe
memTrap:
	m.traceExit(st.pc, insts, extra, loads, stores, entryInsts, n0, curLineID, slotOpen != 0, used)
	m.accessTrap(st.inst, ea)
	return 0, 0, false
megaTrap:
	// A constituent of an MDA mega-step faulted. Constituents before
	// trapK retired (their register/memory effects are visible, and are
	// reflected in loads/stores/extra already); the faulting instruction
	// itself is charged like every other trapping access, and the
	// remainder of the idiom is handed back unretired.
	insts -= uint64(st.n) - trapK - 1
	m.traceExit(trapPC, insts, extra, loads, stores, entryInsts, n0, curLineID, slotOpen != 0, used)
	m.accessTrap(trapInst, ea)
	return 0, 0, false
}

func b2iTr(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// traceExit writes the executor's hoisted state back to the machine with
// the PC at resume. Cycles are derived here: the executor tracks only the
// charges above the 1-cycle/instruction baseline. Value parameters keep
// execTrace's hot locals out of memory; this runs only on trace exit,
// never per step.
func (m *Machine) traceExit(pc, insts, extra, loads, stores, entryInsts, n0, curLineID uint64, slotOpen bool, used *uint64) {
	delta := insts - entryInsts
	*used = n0 + delta
	m.pc = pc
	m.counters.Insts = insts
	m.counters.Cycles += delta + extra
	m.counters.Loads, m.counters.Stores = loads, stores
	m.slotOpen = slotOpen
	m.tstats.TracedInsts += delta
	if curLineID != noLineID {
		// Generic execution would have this line decoded; materialize it
		// (decode slots refill lazily, at no simulated cost) so the generic
		// loop resumes without a spurious fetch charge.
		m.curLine, m.curLineID = m.line(curLineID), curLineID
	}
}

// followLink resolves st's static side-exit target to a step of a live
// trace, memoizing the result. A failed probe is cached against the
// current trace-table version so steady-state exits into untraced code
// cost one comparison, not a map probe.
func (m *Machine) followLink(st *traceStep) *traceStep {
	if st.link != nil {
		m.tstats.ChainFollows++
		return st.link
	}
	if st.linkVer == m.traceVer {
		return nil
	}
	st.linkVer = m.traceVer
	if ent, ok := m.traces[st.exitPC]; ok {
		st.link = &ent.tr.steps[ent.idx]
		st.linkTr = ent.tr
		ent.tr.incoming = append(ent.tr.incoming, st)
		m.tstats.ChainFollows++
		return st.link
	}
	return nil
}

// invalidateTraces drops every trace overlapping [addr, addr+size) and
// severs chain links into it. Called from invalidate() under WriteCode/
// Patch; the range filter keeps the common new-code case free.
func (m *Machine) invalidateTraces(addr, size uint64) {
	if len(m.traceList) == 0 || addr >= m.traceHi || addr+size <= m.traceLo {
		return
	}
	// Span overlap against each live trace, not a per-PC LUT probe:
	// super-steps register only their head PC, so a write landing on an
	// interior constituent would slip past the map.
	for _, t := range m.traceList {
		if addr < t.end && addr+size > t.start {
			m.dropTrace(t)
		}
	}
}

// dropTrace removes t from the lookup table and severs every chain link
// into it. Links *from* t die with it; back-references to t's steps held
// by other traces' incoming lists become harmless no-ops.
func (m *Machine) dropTrace(t *trace) {
	for i := range t.steps {
		st := &t.steps[i]
		if st.kind != stepExitFall {
			delete(m.traces, st.pc)
		}
	}
	for _, in := range t.incoming {
		in.link, in.linkTr = nil, nil
		in.linkVer = 0 // below any live version: forces a re-probe
	}
	t.incoming = nil
	delete(m.traceList, t.id)
	m.steps.release(t)
	m.tstats.Invalidations++
}

// dropAllTraces drops every live trace (IMB / code-cache flush).
func (m *Machine) dropAllTraces() {
	if len(m.traceList) == 0 {
		return
	}
	m.tstats.Invalidations += uint64(len(m.traceList))
	clear(m.traces)
	clear(m.traceList)
	m.steps.releaseAll()
	m.traceLo, m.traceHi = ^uint64(0), 0
	m.traceVer++
}

// clearTraceState restores the just-built (disabled) trace tier on Reset
// and recycles the step arena.
func (m *Machine) clearTraceState() {
	m.steps.recycle()
	m.traces, m.traceList = nil, nil
	m.traceLo, m.traceHi = ^uint64(0), 0
	m.traceSeq, m.traceVer = 0, 0
	m.tstats = TraceStats{}
}

// TraceLink is one resolved chain link, for diagnostics and lint.
type TraceLink struct {
	FromPC uint64 // the exiting step
	ToPC   uint64 // the target step in another (or the same) trace
}

// TraceInfo describes one live trace, for dump output and the
// translation lint.
type TraceInfo struct {
	ID         uint64
	Start, End uint64
	Steps      int      // real instructions (synthetic exit excluded)
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
			if st.kind != stepExitFall && st.taken == nil && st.exitPC != 0 && !seen[st.exitPC] {
				seen[st.exitPC] = true
				info.Exits = append(info.Exits, st.exitPC)
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

// CheckTraceCoherence verifies the trace side tables against each other:
// the PC lookup table and the live-trace list must agree exactly, every
// step's threaded successor pointers must match its recorded indices, and
// every memoized chain link must land on a live, correctly-registered
// step of its recorded target trace. The engine's CheckInvariants calls
// this.
func (m *Machine) CheckTraceCoherence() error {
	for pc, ent := range m.traces {
		if m.traceList[ent.tr.id] != ent.tr {
			return fmt.Errorf("machine: trace LUT %#x points at dropped trace %d", pc, ent.tr.id)
		}
		if int(ent.idx) >= len(ent.tr.steps)-1 || ent.tr.steps[ent.idx].pc != pc {
			return fmt.Errorf("machine: trace LUT %#x maps to wrong step of trace %d", pc, ent.tr.id)
		}
	}
	for _, t := range m.traceList {
		for i := 0; i < len(t.steps)-1; i++ {
			st := &t.steps[i]
			if ent, ok := m.traces[st.pc]; !ok || ent.tr != t || int(ent.idx) != i {
				return fmt.Errorf("machine: trace %d step %#x missing from LUT", t.id, st.pc)
			}
			if st.next != &t.steps[i+1] {
				return fmt.Errorf("machine: trace %d step %#x successor pointer unthreaded", t.id, st.pc)
			}
			if st.idx != uint32(i) {
				return fmt.Errorf("machine: trace %d step %#x self-index %d != %d", t.id, st.pc, st.idx, i)
			}
			if st.n == 0 || t.steps[i+1].pc != st.pc+uint64(st.n)*host.InstBytes {
				return fmt.Errorf("machine: trace %d step %#x (n=%d) not PC-contiguous with successor %#x", t.id, st.pc, st.n, t.steps[i+1].pc)
			}
			if (st.taken != nil) != (st.takenIdx >= 0) || (st.taken != nil && st.taken != &t.steps[st.takenIdx]) {
				return fmt.Errorf("machine: trace %d step %#x taken pointer mismatches index %d", t.id, st.pc, st.takenIdx)
			}
			if st.kind == stepMisLd || st.kind == stepMisSt {
				if st.aux == nil {
					return fmt.Errorf("machine: trace %d mega-step %#x missing aux table", t.id, st.pc)
				}
				if st.run != st.n {
					return fmt.Errorf("machine: trace %d mega-step %#x joined a run (run=%d n=%d)", t.id, st.pc, st.run, st.n)
				}
			} else if st.aux != nil {
				return fmt.Errorf("machine: trace %d non-mega step %#x carries an aux table", t.id, st.pc)
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
			if st.link.pc != st.exitPC {
				return fmt.Errorf("machine: trace %d chain link %#x→%#x mistargeted", t.id, st.pc, st.exitPC)
			}
			if ent, ok := m.traces[st.exitPC]; !ok || ent.tr != lt || &lt.steps[ent.idx] != st.link {
				return fmt.Errorf("machine: trace %d chain link %#x→%#x not registered in LUT", t.id, st.pc, st.exitPC)
			}
		}
	}
	return nil
}

// DumpTraceSteps prints every live trace's step sequence (kind, pc, run
// lengths) to stdout. Debug aid for trace formation work; not used by the
// simulator.
func DumpTraceSteps(m *Machine) {
	for _, t := range m.traceList {
		fmt.Printf("trace %d [%#x,%#x):\n", t.id, t.start, t.end)
		for i := range t.steps {
			st := &t.steps[i]
			fmt.Printf("  %3d pc=%#x kind=%2d n=%d run=%2d aluRun=%2d op=%v\n", i, st.pc, st.kind, st.n, st.run, st.aluRun, st.op)
		}
	}
}

package machine

// The IR-less trace execution tier. A trace is a pre-decoded copy of a span
// of host code: every instruction becomes a traceStep that embeds the same
// lowered slot the generic loop runs (lower), plus what threaded execution
// needs — direct successor and taken-branch pointers, memoized chain links
// into other traces, the step's PC and I-line. The executor (execTrace)
// therefore switches once per step over the slot kinds runLoop switches
// over, with no fetch, no line lookup and no PC arithmetic between steps,
// and follows branches between traces through chain links: it never
// returns to the BT dispatcher until it executes a BRKBT or leaves the
// tier.
//
// On top of the slots, BuildTrace fuses the two MDA code sequences the
// translator emits (paper Fig. 2: the ldq_u/ext/ins/msk expansions of a
// misaligned load or store) into one mega-step each, so the 6-11
// instructions that replace a misalignment trap retire in one dispatch.
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
// decoded I-lines; IMB and Reset drop every trace. CheckTraceCoherence
// re-lowers every live step from memory to catch code changed behind the
// tier's back. A machine with a fault plan installed falls back to the
// generic loop wholesale so the injection stream is untouched (see Run).

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
// step come first.
type traceStep struct {
	slot
	next   *traceStep // fallthrough successor (the synthetic exit at the end)
	taken  *traceStep // in-trace branch target; nil = side exit
	pc     uint64
	lineID uint64
	n      uint8 // host instructions retired: 1, a mega-step's constituents, 0 for the synthetic exit
	mega   megaAux
	exitPC uint64 // side-exit / fallthrough target host PC

	// Memoized side-exit resolution: link points at the target step of a
	// live trace (linkTr), nil when unresolved. linkVer caches the trace-
	// table version of the last failed probe so steady-state exits into
	// untraced code cost one comparison, not a map probe.
	link    *traceStep
	linkTr  *trace
	linkVer uint64
}

// branches reports whether a slot of kind k is a PC-relative branch,
// whose imm is the target.
func (k slotKind) branches() bool { return k >= slotBr && k < slotJmp }

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
// Memory the arena has not committed is always zero, as BuildTrace needs.
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

// mdaOps lists, per access size, the ext/ins/msk ops of the MDA sequences
// fuseMega matches.
var mdaOps = [...]struct {
	size                               uint64
	extl, exth, insh, insl, mskh, mskl host.Op
}{
	{2, host.EXTWL, host.EXTWH, host.INSWH, host.INSWL, host.MSKWH, host.MSKWL},
	{4, host.EXTLL, host.EXTLH, host.INSLH, host.INSLL, host.MSKLH, host.MSKLL},
	{8, host.EXTQL, host.EXTQH, host.INSQH, host.INSQL, host.MSKQH, host.MSKQL},
}

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
	for _, o := range mdaOps {
		if s[3].op == o.extl && s[4].op == o.exth {
			sz = o.size
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
	for _, o := range mdaOps {
		if s[3].op == o.insh && s[4].op == o.insl && s[5].op == o.mskh && s[6].op == o.mskl {
			sz = o.size
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
	// Lower every word, marking in-trace branch targets: a mega-step must
	// not swallow one, since only step heads are enterable.
	var target [maxTraceSteps/64 + 1]uint64
	isTarget := func(i int) bool { return target[i/64]>>(i%64)&1 != 0 }
	for i := 0; i < n; i++ {
		pc := start + uint64(i)*host.InstBytes
		_, live := m.traces[pc]
		inst, err := host.Decode(m.Mem.Read32(pc))
		if live || err != nil {
			clear(steps[:i]) // hand the arena back zeroed
			return false
		}
		st := &steps[i]
		st.slot, st.pc, st.lineID, st.n = lower(pc, inst), pc, pc>>ilineShift, 1
		if st.kind.branches() {
			if j := (st.imm - start) / host.InstBytes; st.imm >= start && st.imm < end {
				target[j/64] |= 1 << (j % 64)
			} else {
				st.exitPC = st.imm
			}
		}
	}
	// Fuse the MDA sequences, compacting the steps in place. A sequence
	// ends before the next branch target.
	w := 0
	for i := 0; i < n; w++ {
		steps[w] = steps[i]
		c := 1
		if op := steps[w].op; op == host.LDQU || op == host.LDA {
			var win [megaMaxLen]slot
			k := 0
			for ; k < megaMaxLen && i+k < n && (k == 0 || !isTarget(i+k)); k++ {
				win[k] = steps[i+k].slot
			}
			if ms, mx, f := fuseMega(win[:k]); f > 0 {
				steps[w].slot, steps[w].mega, steps[w].n = ms, mx, uint8(f)
				c = f
			}
		}
		i += c
	}
	// Compaction leaves stale copies past the new end; zero them before
	// the arena reuses that space.
	clear(steps[w+1:])
	steps = steps[:w+1]
	m.steps.commit(w + 1)
	// Synthetic fallthrough exit: reached only if the final instruction
	// does not transfer control (translated units always do; this keeps
	// the executor total anyway). It retires nothing and sits on the last
	// instruction's line, so reaching it charges no fetch.
	steps[w] = traceStep{pc: end, lineID: (end - host.InstBytes) >> ilineShift, exitPC: end}

	m.traceSeq++
	t := &trace{id: m.traceSeq, start: start, end: end, steps: steps, gen: m.steps.gen}
	for i := 0; i < w; i++ {
		m.traces[steps[i].pc] = traceEntry{tr: t, idx: int32(i)}
	}
	for i := 0; i < w; i++ {
		st := &steps[i]
		st.next = &steps[i+1]
		if st.kind.branches() && st.imm >= start && st.imm < end {
			st.taken = &steps[m.traces[st.imm].idx]
		}
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
		// A budget stall means the next mega-step is bigger than what is
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

// pageMemo is the executor's one-entry page memo: a data access to the
// page of the last access that went through the memory layer reads or
// writes the page's backing array directly, skipping the page walk and
// size dispatch. It also caches the page's trap bits (mem.PageTrapped),
// which decide AccessTrap for every access contained in the page, as
// aligned accesses are. Both stay valid while the executor runs: page
// arrays are stable, and protections change only in trap handlers, which
// run after the executor has exited.
type pageMemo struct {
	idx            uint64 // page index of pg; ^0 matches no address
	pg             *[mem.PageSize]byte
	ldTrap, stTrap bool
}

// load performs a load the memo does not serve: it checks protections,
// reads through the memory layer and points the memo at acc's page. It
// reports trapped, without reading, when the access must trap.
func (pm *pageMemo) load(mm *mem.Memory, acc uint64, size uint8) (v uint64, trapped bool) {
	if mm.AccessTrap(acc, int(size), false) {
		return 0, true
	}
	v = mm.Read(acc, int(size))
	pm.point(mm, acc)
	return v, false
}

// store is load's counterpart for stores.
func (pm *pageMemo) store(mm *mem.Memory, acc, v uint64, size uint8) (trapped bool) {
	if mm.AccessTrap(acc, int(size), true) {
		return true
	}
	mm.Write(acc, v, int(size))
	pm.point(mm, acc)
	return false
}

// point memoizes acc's page, unless it has never been touched.
func (pm *pageMemo) point(mm *mem.Memory, acc uint64) {
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
// was delivered, or control left the trace tier) and the caller should
// re-probe at m.pc.
//
// Parity contract: the case bodies below are runLoop's, kind for kind,
// with the same counters, cycles and cache probes in the same order
// (modulo the two neutral accounting transformations documented at the
// top of this file). Change one only with its twin.
func (m *Machine) execTrace(st *traceStep, used *uint64, maxInsts uint64) (StopReason, uint32, bool) {
	p := &m.Params
	dual := p.DualIssueALU
	ldExtra := p.LoadExtraCycles
	regs := &m.regs
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
	pm := pageMemo{idx: ^uint64(0)}
	var ea, acc, v uint64 // effective and accessed address, loaded or stored value
	var trapped, taken bool
	// A mega-step constituent that faults: its index and its slot.
	var trapK uint64
	var trap slot

	// Every exit path (including trap dispatch) writes the hoisted state
	// back through traceExit — a plain call with value arguments, not a
	// closure, so the per-step hot locals stay in registers instead of
	// being spilled to closure-captured stack slots.
	for {
		if insts+uint64(st.n) > limit {
			// A mega-step retires atomically, but the budget is defined on
			// single instructions: when the remainder cannot fit it, hand
			// its head PC to the generic loop so the tail retires
			// instruction by instruction, bit-identical to an unfused run.
			// For any other step this is insts >= limit: the budget is
			// spent.
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
		insts += uint64(st.n)

		// Memory kinds jump to the shared load or store path, operate kinds
		// to the dual-issue tail, branches to the taken/follow tail.
		switch st.kind {
		case slotEmpty:
			// The synthetic exit: chain into the successor trace or hand
			// the fallthrough PC back to the driver.
			goto follow

		case slotPAL:
			m.counters.Brks++
			extra += p.BrkCycles
			m.traceExit(st.pc+host.InstBytes, insts, extra, loads, stores, entryInsts, n0, curLineID, false, used)
			if st.imm == HaltService {
				return StopHalt, uint32(st.imm), true
			}
			return StopBrk, uint32(st.imm), true

		case slotLda:
			regs[st.a] = regs[st.b] + st.imm
			goto alu

		case slotLd, slotLdl:
			ea = regs[st.b] + st.imm
			if ea&uint64(st.size-1) != 0 {
				goto memAlign
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
				goto memAlign
			}
			acc = ea
			goto store
		case slotStu:
			ea = regs[st.b] + st.imm
			acc = ea &^ uint64(st.size-1)
			goto store

		case slotOpr:
			regs[st.c] = host.EvalOp(st.op, regs[st.a], regs[st.b]+st.imm)
			goto alu
		case slotAddl:
			regs[st.c] = uint64(int64(int32(regs[st.a] + regs[st.b] + st.imm)))
			goto alu
		case slotAddq:
			regs[st.c] = regs[st.a] + regs[st.b] + st.imm
			goto alu
		case slotBis:
			regs[st.c] = regs[st.a] | (regs[st.b] + st.imm)
			goto alu
		case slotXor:
			regs[st.c] = regs[st.a] ^ (regs[st.b] + st.imm)
			goto alu
		case slotCmplt:
			v = 0
			if int64(regs[st.a]) < int64(regs[st.b]+st.imm) {
				v = 1
			}
			regs[st.c] = v
			goto alu
		case slotExtql:
			regs[st.c] = host.ExtLow(regs[st.a], regs[st.b]+st.imm, 8)
			goto alu
		case slotExtqh:
			regs[st.c] = host.ExtHigh(regs[st.a], regs[st.b]+st.imm, 8)
			goto alu

		case slotMul:
			regs[st.c] = host.EvalOp(st.op, regs[st.a], regs[st.b]+st.imm)
			extra += p.MulExtraCycles
			slotOpen = 0
			st = st.next
			continue

		case slotBr:
			// A BR with no link register is a pure fetch redirect; the EV6
			// front end folds it (it can also dual-issue).
			if dual {
				extra -= slotOpen
				slotOpen ^= 1
			} else {
				slotOpen = 0
			}
			goto follow
		case slotBrLink:
			slotOpen = 0
			regs[st.a] = st.pc + host.InstBytes
			extra += p.TakenBranchCycles
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
			slotOpen = 0
			target := regs[st.b] &^ 3 // read before the link write: Ra may equal Rb
			regs[st.a] = st.pc + host.InstBytes
			extra += p.TakenBranchCycles
			// Dynamic target: no memoized link, but a direct LUT probe
			// still keeps indirect transfers inside the tier.
			if ent, ok := m.traces[target]; ok {
				m.tstats.ChainFollows++
				st = &ent.tr.steps[ent.idx]
				continue
			}
			m.traceExit(target, insts, extra, loads, stores, entryInsts, n0, curLineID, false, used)
			return 0, 0, false

		case stepMisLd:
			// Constituents run in program order with their own fetch and
			// trap checks, so a fault mid-sequence delivers precisely: the
			// earlier register writes are visible, the faulting PC is the
			// constituent's, and megaTrap hands back the rest unretired
			// (interior PCs are not in the trace LUT, so the generic loop
			// runs it). An I-line crossing is charged before the first
			// access past it, or at the end, as runLoop's fetch would be.
			x := &st.mega
			eaLo := regs[st.b] + st.imm
			slotOpen = 1
			var q [2]uint64 // the low and high quadwords
			for k := uint64(0); k < 2; k++ {
				ea = eaLo + k*(uint64(st.size)-1)
				if l := (st.pc + k*host.InstBytes) >> ilineShift; l != curLineID {
					curLineID = l
					if caches != nil {
						extra += uint64(caches.Fetch(l << ilineShift))
					}
				}
				acc = ea &^ 7
				if acc>>mem.PageShift == pm.idx && !pm.ldTrap {
					q[k] = binary.LittleEndian.Uint64(pm.pg[acc&(mem.PageSize-1):])
				} else if q[k], trapped = pm.load(m.Mem, acc, 8); trapped {
					trapK, trap = k, slot{op: host.LDQU, a: x.ld[k], b: st.b, imm: st.imm + ea - eaLo}
					goto megaTrap
				}
				loads++
				extra += ldExtra
				if caches != nil {
					if l := acc >> dshift; l != dataLine {
						dataLine = l
						extra += uint64(caches.Data(acc))
					}
				}
				regs[x.ld[k]] = q[k]
			}
			// lda; extXl; extXh; bis [; addl]: operate ops pairing from
			// the slot the loads left open.
			if dual {
				ops := uint64(st.n) - 2
				extra -= (ops + 1) >> 1
				slotOpen = (ops + 1) & 1
			}
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
					extra += uint64(caches.Fetch(l << ilineShift))
				}
			}
			st = st.next
			continue

		case stepMisSt:
			// The store twin of stepMisLd: read-merge-write of the two
			// covering quadwords, high stored first. A fault on the low
			// stq_u leaves the high store done.
			x := &st.mega
			eaLo := regs[st.b] + st.imm
			eaHi := eaLo + uint64(st.size) - 1
			if dual { // lda pairs with an open slot; the loads then leave one open
				extra -= slotOpen
			}
			regs[x.ea] = eaLo
			slotOpen = 1
			var q [2]uint64 // the high and low quadwords, in program order
			for k := uint64(1); k <= 2; k++ {
				ea = eaHi
				if k == 2 {
					ea = eaLo
				}
				if l := (st.pc + k*host.InstBytes) >> ilineShift; l != curLineID {
					curLineID = l
					if caches != nil {
						extra += uint64(caches.Fetch(l << ilineShift))
					}
				}
				acc = ea &^ 7
				if acc>>mem.PageShift == pm.idx && !pm.ldTrap {
					q[k-1] = binary.LittleEndian.Uint64(pm.pg[acc&(mem.PageSize-1):])
				} else if q[k-1], trapped = pm.load(m.Mem, acc, 8); trapped {
					trapK, trap = k, slot{op: host.LDQU, a: x.ld[k-1], b: st.b, imm: st.imm + ea - eaLo}
					goto megaTrap
				}
				loads++
				extra += ldExtra
				if caches != nil {
					if l := acc >> dshift; l != dataLine {
						dataLine = l
						extra += uint64(caches.Data(acc))
					}
				}
				regs[x.ld[k-1]] = q[k-1]
			}
			// insXh; insXl; mskXh; mskXl; bis; bis: three dual-issue pairs
			// from the open slot, leaving it open.
			if dual {
				extra -= 3
			}
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
						extra += uint64(caches.Fetch(l << ilineShift))
					}
				}
				acc = ea &^ 7
				if acc>>mem.PageShift == pm.idx && !pm.stTrap {
					binary.LittleEndian.PutUint64(pm.pg[acc&(mem.PageSize-1):], q[k-9])
				} else if pm.store(m.Mem, acc, q[k-9], 8) {
					trapK, trap = k, slot{op: host.STQU, a: x.st[k-9], b: st.b, imm: st.imm + ea - eaLo}
					goto megaTrap
				}
				stores++
				if caches != nil {
					if l := acc >> dshift; l != dataLine {
						dataLine = l
						extra += uint64(caches.Data(acc))
					}
				}
			}
			st = st.next
			continue

		default:
			panic(fmt.Sprintf("machine: corrupt trace step kind %d at %#x", st.kind, st.pc))
		}

	alu:
		if dual {
			extra -= slotOpen // issued alongside the previous instruction, or opens a slot
			slotOpen ^= 1
		}
		st = st.next
		continue

	load:
		slotOpen = 1 // a memory op leaves an ALU slot open
		if acc>>mem.PageShift == pm.idx && !pm.ldTrap {
			v = pageRead(pm.pg, acc, st.size)
		} else if v, trapped = pm.load(m.Mem, acc, st.size); trapped {
			goto memTrap
		}
		loads++
		extra += ldExtra
		if st.kind == slotLdl {
			v = uint64(int64(int32(v)))
		}
		regs[st.a] = v
		goto data

	store:
		slotOpen = 1
		v = regs[st.a]
		if acc>>mem.PageShift == pm.idx && !pm.stTrap {
			pageWrite(pm.pg, acc, v, st.size)
		} else if pm.store(m.Mem, acc, v, st.size) {
			goto memTrap
		}
		stores++

	data:
		if caches != nil {
			if l := acc >> dshift; l != dataLine {
				dataLine = l
				extra += uint64(caches.Data(acc))
			}
		}
		st = st.next
		continue

	cond:
		slotOpen = 0
		if !taken {
			st = st.next
			continue
		}
		extra += p.TakenBranchCycles
	follow:
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

	// Cold trap exits, reached by goto from the memory paths; ea holds the
	// faulting effective address. A memory op leaves the issue slot open,
	// trapping or not.
memAlign:
	m.traceExit(st.pc, insts, extra, loads, stores, entryInsts, n0, curLineID, true, used)
	m.misalignTrap(st.inst(), ea)
	return 0, 0, false // handler set the resume PC; re-probe
memTrap:
	m.traceExit(st.pc, insts, extra, loads, stores, entryInsts, n0, curLineID, true, used)
	m.accessTrap(st.inst(), ea)
	return 0, 0, false
megaTrap:
	// A constituent of a mega-step faulted. Those before trapK retired
	// (their register/memory effects are visible, and are reflected in
	// loads/stores/extra already); the faulting instruction itself is
	// charged like every other trapping access, and the rest of the
	// sequence is handed back unretired.
	insts -= uint64(st.n) - trapK - 1
	m.traceExit(st.pc+trapK*host.InstBytes, insts, extra, loads, stores, entryInsts, n0, curLineID, true, used)
	m.accessTrap(trap.inst(), ea)
	return 0, 0, false
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
	// mega-steps register only their head PC, so a write landing on an
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
		if st.kind != slotEmpty {
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
			if st.kind != slotEmpty && st.taken == nil && st.exitPC != 0 && !seen[st.exitPC] {
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

// CheckTraceCoherence verifies the trace tier against memory and against
// its own side tables. Every live step must still be what BuildTrace
// would make of the code in memory now: a plain step's slot equals
// lower's result for its word, and a mega-step equals what fusing its
// freshly lowered words gives. The PC lookup table and the live-trace
// list must agree exactly, every step's threaded successor and taken
// pointers must land where its PC and branch target say, and every
// memoized chain link must land on a live, correctly-registered step of
// its recorded target trace. The engine's CheckInvariants calls this.
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
			if st.n == 0 || t.steps[i+1].pc != st.pc+uint64(st.n)*host.InstBytes {
				return fmt.Errorf("machine: trace %d step %#x (n=%d) not PC-contiguous with successor %#x", t.id, st.pc, st.n, t.steps[i+1].pc)
			}
			if err := m.checkStepCode(st); err != nil {
				return fmt.Errorf("machine: trace %d: %w", t.id, err)
			}
			var want *traceStep
			if st.kind.branches() && st.imm >= t.start && st.imm < t.end {
				if ent, ok := m.traces[st.imm]; ok && ent.tr == t {
					want = &t.steps[ent.idx]
				}
			}
			if st.taken != want || st.taken == nil && st.kind.branches() && st.exitPC != st.imm {
				return fmt.Errorf("machine: trace %d step %#x taken pointer or exit mismatches target %#x", t.id, st.pc, st.imm)
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
	got := st.slot
	got.run, want.run = 0, 0
	if got != want || st.mega != wantMega {
		return fmt.Errorf("step %#x is stale: holds %+v %+v, code in memory lowers to %+v %+v", st.pc, got, st.mega, want, wantMega)
	}
	return nil
}

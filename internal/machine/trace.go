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
// Traces come from two places. BuildTrace makes a unit trace over a span
// the BT runtime names (one translated unit). Run makes a fill trace
// wherever execution reaches a PC no live trace covers: it starts there
// and ends after the first control transfer, before a live trace's step,
// before an undecodable word, or at maxTraceSteps. A unit trace takes
// precedence: BuildTrace first drops the fill traces it overlaps.
//
// BuildTrace and fill traces alike fuse the two MDA code sequences the
// translator emits (paper Fig. 2: the ldq_u/ext/ins/msk expansions of a
// misaligned load or store) into one mega-step each, so the 6-11
// instructions that replace a misalignment trap retire in one dispatch.
//
// Every cycle, counter, cache access, trap and fault-injection draw an
// instruction-at-a-time machine would make is made here, in the same
// order; the single-stepping reference in lower_test.go is the judge. Two
// accounting transformations are applied, both provably neutral:
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
// Which traces exist is simulation-invisible: the golden equivalence
// matrix pins runs with and without unit traces to the same fingerprints.
// Trace-tier telemetry therefore lives in the separate TraceStats struct,
// never in Counters.
//
// Coherence: WriteCode/Patch invalidate overlapping traces (and sever
// chain links into them); IMB and Reset drop every trace. A code write
// behind the tier's back (a raw memory write) is not seen until then;
// CheckTraceCoherence re-lowers every live step from memory to catch it.

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
	Invalidations uint64 // traces dropped by code writes, IMB, or a unit trace replacing fill traces
	TracedInsts   uint64 // host instructions retired (every one runs in a trace)
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
	fill       bool // built by Run, not BuildTrace
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

// stepPool recycles the step slices of dropped traces, so a machine that
// keeps rebuilding traces — after patches, over code resumed after a
// trap, or on every request of a recycled engine — reuses their memory
// instead of allocating. Slices are pooled by capacity class (a power of
// two) and cleared when pooled, so get always returns zeroed steps.
//
// A dropped trace's steps are never in use by the executor: traces are
// dropped only between executor runs (by BuildTrace, by a code write from
// the dispatcher or from a trap handler, which runs after the executor
// synced its state and before it returns without touching a step again,
// by IMB and by Reset). Stale entries for them may linger in the chain-link
// back-lists of live traces; severing one only clears a link memo, which
// is harmless on any step. The pool holds at most maxPooledSteps steps;
// beyond that dropped steps are left to the garbage collector, which
// bounds a long run that keeps dropping traces without Reset.
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

// HasTrace reports whether pc is a step of a live unit trace (one
// BuildTrace made).
func (m *Machine) HasTrace(pc uint64) bool {
	ent, ok := m.traces[pc]
	return ok && !ent.tr.fill
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

// BuildTrace pre-decodes the host code in [start, end) into a unit trace
// and registers every covered PC for direct execution, first dropping the
// fill traces the span overlaps. It reports success; failure (undecodable
// word, overlap with a live unit trace, bad bounds) leaves no trace
// behind. Building charges no simulated cycles: it models work the BT
// runtime does off the simulated CPU's critical path, and the resulting
// execution is bit-identical anyway.
func (m *Machine) BuildTrace(start, end uint64) bool {
	if start%host.InstBytes != 0 || end%host.InstBytes != 0 || end <= start ||
		(end-start)/host.InstBytes > maxTraceSteps || m.dropOverlapping(start, end, true) {
		return false
	}
	return m.build(start, end, false) != nil
}

// fillTrace builds a fill trace at pc, which no live trace covers, and
// returns its first step. An undecodable word at pc is Run's fetch error;
// the fetch charges the I-cache first, as every fetch of a new line does.
func (m *Machine) fillTrace(pc uint64) (*traceStep, error) {
	end := pc
	for n := 0; n < maxTraceSteps && end+host.InstBytes != 0; n++ {
		inst, err := host.Decode(m.Mem.Read32(end))
		if err != nil {
			break
		}
		end += host.InstBytes
		if opSlot[inst.Op].transfers() {
			break
		}
		if _, live := m.traces[end]; live {
			break
		}
	}
	if end != pc {
		return &m.build(pc, end, true).steps[0], nil
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

// build lowers [start, end), which no live trace overlaps, into a trace
// and registers it. It returns nil if a word does not decode.
func (m *Machine) build(start, end uint64, fill bool) *trace {
	n := int((end - start) / host.InstBytes)
	steps := m.steps.get(n + 1)
	// Lower every word, marking in-trace branch targets: a mega-step must
	// not swallow one, since only step heads are enterable.
	var target [maxTraceSteps/64 + 1]uint64
	isTarget := func(i int) bool { return target[i/64]>>(i%64)&1 != 0 }
	for i := 0; i < n; i++ {
		pc := start + uint64(i)*host.InstBytes
		inst, err := host.Decode(m.Mem.Read32(pc))
		if err != nil {
			m.steps.put(steps)
			return nil
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
	// Compaction leaves stale copies past the new end, outside the
	// trace's slice; the pool clears them when the trace is dropped.
	steps = steps[:w+1]
	// Synthetic fallthrough exit: reached when the final instruction does
	// not transfer control (a fill trace cut before a live trace or an
	// undecodable word; translated units always transfer). It retires
	// nothing and sits on the last instruction's line, so reaching it
	// charges no fetch.
	steps[w] = traceStep{pc: end, lineID: (end - host.InstBytes) >> ilineShift, exitPC: end}

	m.traceSeq++
	t := &trace{id: m.traceSeq, start: start, end: end, steps: steps, fill: fill}
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
	m.traceLo = min(m.traceLo, start)
	m.traceHi = max(m.traceHi, end)
	m.traceVer++ // stale negative link caches must re-probe
	m.tstats.Formed++
	return t
}

// unfuse lowers the words of mega-step st into the machine's scratch
// trace, one step each, and returns its first step: the budget ends inside
// the sequence, so its constituents retire one at a time. The scratch
// trace's exit hands control back to Run without chaining. If st's first
// word no longer decodes (code changed behind the tier's back), the stale
// trace is dropped and the exit is at st.pc.
func (m *Machine) unfuse(st *traceStep) *traceStep {
	s := &m.scratch
	k := 0
	for ; k < int(st.n); k++ {
		pc := st.pc + uint64(k)*host.InstBytes
		inst, err := host.Decode(m.Mem.Read32(pc))
		if err != nil {
			break
		}
		s[k] = traceStep{slot: lower(pc, inst), next: &s[k+1], pc: pc, lineID: pc >> ilineShift, n: 1, linkVer: m.traceVer}
		if s[k].kind.branches() {
			s[k].exitPC = s[k].imm
		}
	}
	pc, lineID := st.pc+uint64(k)*host.InstBytes, st.lineID
	if k == 0 {
		m.dropTrace(m.traces[st.pc].tr) // st is not read again
	} else {
		lineID = s[k-1].lineID
	}
	s[k] = traceStep{pc: pc, lineID: lineID, exitPC: pc, linkVer: m.traceVer}
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
			// single instructions: when the remainder cannot fit it, its
			// constituents retire one at a time from an unfused copy. For
			// any other step this is insts >= limit: the budget is spent.
			if insts < limit {
				st = m.unfuse(st)
				continue
			}
			m.traceExit(st.pc, insts, extra, loads, stores, entryInsts, n0, curLineID, slotOpen != 0, used)
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
			// (interior PCs are not step heads, so Run builds a fill trace
			// there). An I-line crossing is charged before the first access
			// past it, or at the end, as an instruction fetch would be.
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
				} else if q[k], fault = pm.load(m.Mem, acc, 8, false); fault != trapNone {
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
				} else if q[k-1], fault = pm.load(m.Mem, acc, 8, false); fault != trapNone {
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
				} else if pm.store(m.Mem, acc, q[k-9], 8, false) != trapNone {
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
		} else if v, fault = pm.load(m.Mem, acc, st.size, st.kind != slotLdu); fault != trapNone {
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
		} else if fault = pm.store(m.Mem, acc, v, st.size, st.kind == slotSt); fault != trapNone {
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
memTrap:
	m.traceExit(st.pc, insts, extra, loads, stores, entryInsts, n0, curLineID, true, used)
	if fault == trapMisalign {
		m.misalignTrap(st.inst(), ea)
	} else {
		m.accessTrap(st.inst(), ea)
	}
	return 0, 0, false // handler set the resume PC; re-probe
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
	m.curLineID = curLineID
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

// dropOverlapping drops every live trace with a step covering a word of
// [addr, end), or with fillsOnly only the fill traces, and reports whether
// a trace it kept overlaps. It probes the PC lookup table for the step
// heads in the range and for the mega-steps that may reach into it from
// before, so its cost follows the words written, not the live traces; the
// range filter skips a write outside the span of every live trace.
func (m *Machine) dropOverlapping(addr, end uint64, fillsOnly bool) (kept bool) {
	if addr >= m.traceHi || end <= m.traceLo {
		return false
	}
	for pc := addr - min(addr, (megaMaxLen-1)*host.InstBytes); pc < end; pc += host.InstBytes {
		ent, ok := m.traces[pc]
		switch {
		case !ok || pc+uint64(ent.tr.steps[ent.idx].n)*host.InstBytes <= addr:
		case fillsOnly && !ent.tr.fill:
			kept = true
		default:
			m.dropTrace(ent.tr)
		}
	}
	return kept
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

// releaseTraces empties the trace tables, keeping them, and pools every
// live trace's steps.
func (m *Machine) releaseTraces() {
	for _, t := range m.traceList {
		m.steps.put(t.steps)
	}
	clear(m.traces)
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

// TraceInfo describes one live unit trace, for dump output and the
// translation lint.
type TraceInfo struct {
	ID         uint64
	Start, End uint64
	Steps      int      // steps, mega-steps counting once (synthetic exit excluded)
	Exits      []uint64 // static side-exit target host PCs, sorted
	Links      []TraceLink
}

// TraceInfos returns every live unit trace, ordered by start address.
func (m *Machine) TraceInfos() []TraceInfo {
	infos := make([]TraceInfo, 0, len(m.traceList))
	for _, t := range m.traceList {
		if t.fill {
			continue
		}
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
	if st.slot != want || st.mega != wantMega {
		return fmt.Errorf("step %#x is stale: holds %+v %+v, code in memory lowers to %+v %+v", st.pc, st.slot, st.mega, want, wantMega)
	}
	return nil
}

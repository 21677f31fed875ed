// Package machine simulates the paper's evaluation hardware: a
// single-processor Alpha ES40 (paper §V-A). It executes host (Alpha-like)
// code from simulated memory with a cycle cost model, the ES40 cache
// hierarchy, precise misaligned-access traps that dispatch to a registered
// handler, and a code-patching interface with instruction-stream coherence
// (the decoded-instruction cache is invalidated when code is patched).
//
// The simulator is the substitution for real Alpha hardware (see DESIGN.md):
// every MDA handling mechanism's cost reduces to instructions executed,
// cache misses, and traps taken, all of which are charged explicitly here.
package machine

import (
	"fmt"

	"mdabt/internal/cache"
	"mdabt/internal/faultinject"
	"mdabt/internal/host"
	"mdabt/internal/mem"
)

// Params is the cycle cost model. Defaults (DefaultParams) are documented in
// DESIGN.md §5 and derive from the paper where it gives numbers: the
// misalignment trap cost of ~1000 cycles comes from §II (refs [15][16]).
type Params struct {
	// MisalignTrapCycles is charged for every misaligned-access trap before
	// the handler runs (kernel entry/exit, context save, dispatch).
	MisalignTrapCycles uint64
	// AccessFaultCycles is charged for every access-protection trap (page
	// protection violation, watched-page store, or trap-table guard hit)
	// before the access-fault handler runs. Same kernel round trip as a
	// misalignment trap.
	AccessFaultCycles uint64
	// LoadExtraCycles is the additional latency of a load beyond the base
	// cycle (in-order pipeline load-use approximation).
	LoadExtraCycles uint64
	// MulExtraCycles is the additional latency of integer multiply.
	MulExtraCycles uint64
	// TakenBranchCycles is the extra cost of a taken branch or jump
	// (fetch redirect).
	TakenBranchCycles uint64
	// BrkCycles is the cost of a BRKBT exit to the BT runtime (register
	// spill, dispatch into the monitor).
	BrkCycles uint64
	// UseCaches enables the ES40 cache hierarchy; when false every access
	// costs its base latency only (useful for unit tests).
	UseCaches bool
	// DualIssueALU models the EV6's multi-issue pipeline cheaply: an
	// ALU-class instruction (operate format, LDA, LDAH) can issue in the
	// same cycle as the preceding instruction when that instruction left an
	// issue slot open (memory and ALU instructions do; branches and BRKBT
	// do not). This matters to the paper's trade-off — on the 4-wide EV6
	// the 7–11 instruction MDA sequence costs far fewer than 7–11 cycles
	// because its EXT/INS/MSK arithmetic issues alongside the loads, while
	// a misalignment trap costs the full ~1000 cycles regardless.
	DualIssueALU bool
}

// DefaultParams returns the ES40-flavored cost model used by all
// experiments.
func DefaultParams() Params {
	return Params{
		MisalignTrapCycles: 1000,
		AccessFaultCycles:  1000,
		LoadExtraCycles:    2,
		MulExtraCycles:     7,
		TakenBranchCycles:  1,
		BrkCycles:          80,
		UseCaches:          true,
		DualIssueALU:       true,
	}
}

// Counters accumulates execution statistics.
type Counters struct {
	Cycles        uint64 // total cycles charged
	Insts         uint64 // host instructions retired
	Loads         uint64
	Stores        uint64
	MisalignTraps uint64 // misaligned-access traps taken
	AccessFaults  uint64 // access-protection traps taken
	Brks          uint64 // BRKBT exits to the runtime
	TrapCycles    uint64 // cycles spent in trap overhead + handlers
}

// StopReason reports why Run returned.
type StopReason int

// Stop reasons.
const (
	StopHalt  StopReason = iota // BRKBT with the Halt service
	StopBrk                     // BRKBT with any other service payload
	StopLimit                   // instruction budget exhausted
)

func (r StopReason) String() string {
	switch r {
	case StopHalt:
		return "halt"
	case StopBrk:
		return "brk"
	case StopLimit:
		return "limit"
	}
	return fmt.Sprintf("stop(%d)", int(r))
}

// HaltService is the BRKBT payload that halts the machine.
const HaltService = 0

// MisalignHandler is the registered misalignment trap handler. It runs after
// the architectural trap cost has been charged and must return the PC at
// which execution resumes. Returning the faulting PC re-executes the
// (possibly patched) instruction; the handler typically either emulates the
// access (OS-style fixup, see Machine.EmulateAccess) and resumes at pc+4, or
// patches code (BT-style, paper §IV) and resumes at pc.
type MisalignHandler func(m *Machine, pc uint64, inst host.Inst, ea uint64) (resume uint64)

// AccessFaultHandler is the registered handler for access-protection traps
// (mem.AccessTrap hits and injected spurious faults). It runs after the
// architectural trap cost has been charged and returns the resume PC. The
// trapped access has NOT been performed; a handler that decides the access
// is legal completes it itself (Machine.PerformAccess) and resumes at
// pc+4. The trap-bit table is a superset filter, so handlers must tolerate
// false positives.
type AccessFaultHandler func(m *Machine, pc uint64, inst host.Inst, ea uint64) (resume uint64)

// Machine is the simulated host processor plus memory system.
type Machine struct {
	Mem    *mem.Memory
	Params Params

	// regs is the register file plus one sink slot (sinkReg). Lowered
	// I-line slots and trace steps send writes to R31 into the sink, so
	// regs[host.Zero] is never written and always reads zero.
	regs [host.NumRegs + 1]uint64
	pc   uint64

	caches        *cache.Hierarchy
	handler       MisalignHandler
	accessHandler AccessFaultHandler
	// faults, when non-nil, injects trap-delivery anomalies: spurious
	// misalignment traps on aligned accesses and duplicate delivery of a
	// trap the handler already serviced. Both are safe against a correct
	// handler (MDA sequences are alignment-agnostic; trap servicing is
	// idempotent), which is exactly what the chaos tests assert.
	faults *faultinject.Plan

	counters Counters

	// Decoded-instruction cache: one entry per 64-byte I-line, lazily
	// filled. Patching code invalidates the affected line, which models the
	// I-stream coherence actions (imb) a real BT must perform.
	//
	// Lines are held in a dense slice indexed by I-line offset from the
	// first line ever fetched — in practice the bottom of the translated
	// code cache, which is where all host execution lives — so the per-line
	// lookup on the fetch path is an array index, not a map probe. Lines
	// below the anchor or beyond the dense window (code placed far from the
	// anchor by tests or exotic layouts) fall back to a map.
	//
	// Reset recycles lines rather than dropping them: filled lists every
	// dense offset that received a line since the last Reset or IMB (an
	// offset refilled after invalidation appears more than once), so
	// Reset and IMB walk the lines actually filled instead of the whole
	// window, and Reset moves the lines it finds to spare, zeroed, for
	// line to hand out again.
	anchored  bool
	denseBase uint64   // line ID of dense[0]; valid once anchored
	dense     []*iline // grown on demand up to maxDenseLines
	filled    []uint32 // dense offsets given a line since Reset/IMB
	farLines  map[uint64]*iline
	spare     []*iline // zeroed lines recycled by Reset
	curLine   *iline
	curLineID uint64
	slotOpen  bool // an issue slot is open for an ALU-class instruction

	// Trace tier (see trace.go). traces is the PC lookup table over every
	// step of every live trace; nil means the tier is disabled. traceLo/
	// traceHi bound the covered address range so the generic loop's
	// redirect probe is a subtraction, not a map probe, when off-range.
	traces    map[uint64]traceEntry
	traceList map[uint64]*trace
	traceLo   uint64
	traceHi   uint64
	traceSeq  uint64
	traceVer  uint64 // bumped on build/flush; versions negative link caches
	steps     stepArena
	tstats    TraceStats
	// traceStall is set when the trace executor stops at a mega-step
	// head because the remaining budget cannot fit its atomic retire;
	// runTraced consumes it and burns the tail generically, instruction
	// by instruction, exactly as an untraced run would.
	traceStall bool
}

const (
	ilineShift = 6
	ilineInsts = (1 << ilineShift) / host.InstBytes
	// maxDenseLines bounds the dense decode window (64 MiB of code).
	maxDenseLines = (64 << 20) >> ilineShift
)

// sinkReg is the register-file index that stands in for R31 as a
// destination; nothing reads it.
const sinkReg = host.NumRegs

// dstReg maps a destination register to its register-file index.
func dstReg(r host.Reg) uint8 {
	if r == host.Zero {
		return sinkReg
	}
	return uint8(r)
}

// iline is one 64-byte I-line of lowered instructions.
type iline [ilineInsts]slot

// slot is one instruction lowered for runLoop when fetch first decodes it:
// the dispatch kind, register-file indexes (destinations of R31 remapped to
// sinkReg), and the immediate already resolved, so the loop does no format
// dispatch, operand decoding or R31 test per instruction. It also records
// the length of the straight-line run it starts, so the loop fetches, checks
// the budget and settles its counters once per run. Trace steps embed the
// same form (trace.go).
type slot struct {
	// imm is the sign-extended memory displacement (LDAH: pre-shifted by
	// 16), the operate literal (0 in register forms, so the B operand is
	// regs[b] + imm either way), the absolute branch target, or the BRKBT
	// payload.
	imm  uint64
	kind slotKind
	op   host.Op // operate opcode for EvalOp; the opcode for inst()
	a    uint8   // Ra: source, or destination for LDA/loads/links
	b    uint8   // Rb: source; R31 in literal operate forms
	c    uint8   // Rc: operate destination
	size uint8   // memory access size in bytes
	// run counts the slots from this one up to and including the first
	// control transfer (branch, jump, BRKBT) of its I-line, stopping
	// before a slot not yet lowered and at the end of the line; see
	// linkRun.
	run uint8
}

// slotKind is a lowered slot's dispatch kind; the zero value marks a slot
// not yet decoded.
type slotKind uint8

const (
	slotEmpty slotKind = iota
	slotPAL            // BRKBT
	slotLda            // LDA, LDAH: regs[a] = regs[b] + imm
	slotLd             // LDWU, LDQ: traps when misaligned
	slotLdl            // LDL: traps when misaligned, sign-extends
	slotSt             // STW, STL, STQ: traps when misaligned
	slotLdu            // LDBU, LDQ_U: never trap on alignment; access ea&^(size-1)
	slotStu            // STB, STQ_U: likewise
	slotOpr            // operate: regs[c] = op(regs[a], regs[b] + imm)
	slotAddl           // the operate ops Figure 16 retires most, specialized
	slotAddq
	slotBis
	slotXor
	slotCmplt
	slotExtql
	slotExtqh
	slotMul    // MULL, MULQ
	slotBr     // BR with Ra == R31: a foldable fetch redirect
	slotBrLink // BR, BSR: regs[a] = return address
	slotBeq    // conditional branches on regs[a]
	slotBne
	slotBlt
	slotBle
	slotBgt
	slotBge
	slotBlbc
	slotBlbs
	slotJmp // JMP, JSR, RET: regs[a] = return address, target regs[b]&^3
)

// opSlot maps each opcode to its slot kind. Operate opcodes left out
// lower to slotOpr; BR with Ra == R31 lowers to slotBr.
var opSlot = [256]slotKind{
	host.BRKBT: slotPAL,
	host.LDA:   slotLda, host.LDAH: slotLda,
	host.LDWU: slotLd, host.LDQ: slotLd, host.LDL: slotLdl, host.LDBU: slotLdu, host.LDQU: slotLdu,
	host.STW: slotSt, host.STL: slotSt, host.STQ: slotSt, host.STB: slotStu, host.STQU: slotStu,
	host.ADDL: slotAddl, host.ADDQ: slotAddq, host.BIS: slotBis, host.XOR: slotXor,
	host.CMPLT: slotCmplt, host.EXTQL: slotExtql, host.EXTQH: slotExtqh,
	host.MULL: slotMul, host.MULQ: slotMul,
	host.BR: slotBrLink, host.BSR: slotBrLink,
	host.BEQ: slotBeq, host.BNE: slotBne, host.BLT: slotBlt, host.BLE: slotBle,
	host.BGT: slotBgt, host.BGE: slotBge, host.BLBC: slotBlbc, host.BLBS: slotBlbs,
	host.JMP: slotJmp, host.JSR: slotJmp, host.RET: slotJmp,
}

// transfers reports whether a slot of kind k may leave straight-line
// execution, which ends a run.
func (k slotKind) transfers() bool { return k == slotPAL || k >= slotBr }

// linkRun sets the run of the slot just lowered at index i and lengthens
// the runs of the straight-line slots before it, so every lowered slot's
// run stays exact while the line fills in lazily: a run never covers a
// slot not yet lowered, crosses a control transfer or leaves its I-line.
func (l *iline) linkRun(i int) {
	run := uint8(1)
	if !l[i].kind.transfers() && i+1 < ilineInsts && l[i+1].kind != slotEmpty {
		run += l[i+1].run
	}
	l[i].run = run
	for j := i - 1; j >= 0 && l[j].kind != slotEmpty && !l[j].kind.transfers(); j-- {
		run++
		l[j].run = run
	}
}

// lower builds the slot for inst located at pc.
func lower(pc uint64, inst host.Inst) slot {
	s := slot{kind: opSlot[inst.Op], op: inst.Op, a: uint8(inst.Ra), b: uint8(inst.Rb)}
	switch host.FormatOf(inst.Op) {
	case host.FormatPAL:
		s.imm = uint64(inst.Payload)
	case host.FormatMem:
		s.imm = uint64(int64(inst.Disp))
		s.size = uint8(inst.Op.MemSize())
		if inst.Op == host.LDAH {
			s.imm <<= 16
		}
		if !inst.Op.IsStore() {
			s.a = dstReg(inst.Ra)
		}
	case host.FormatOpr:
		if s.kind == slotEmpty {
			s.kind = slotOpr
		}
		s.c = dstReg(inst.Rc)
		if inst.IsLit {
			s.b, s.imm = uint8(host.Zero), uint64(inst.Lit)
		}
	case host.FormatBra:
		s.imm = inst.BranchTarget(pc)
		if inst.Op == host.BR && inst.Ra == host.Zero {
			s.kind = slotBr
		} else if s.kind == slotBrLink {
			s.a = dstReg(inst.Ra)
		}
	case host.FormatJmp:
		s.a = dstReg(inst.Ra)
	}
	return s
}

// inst re-raises a memory-format slot (other than LDA/LDAH) to the decoded
// instruction the trap handlers take; it equals host.Decode's result for
// the word the slot was lowered from.
func (s *slot) inst() host.Inst {
	ra := host.Reg(s.a)
	if s.a == sinkReg {
		ra = host.Zero
	}
	return host.Inst{Op: s.op, Ra: ra, Rb: host.Reg(s.b), Disp: int32(int64(s.imm))}
}

// New creates a machine over m with cost model p.
func New(m *mem.Memory, p Params) *Machine {
	mc := &Machine{
		Mem:    m,
		Params: p,
	}
	if p.UseCaches {
		mc.caches = cache.NewES40()
	}
	return mc
}

// Caches exposes the cache hierarchy (nil when disabled).
func (m *Machine) Caches() *cache.Hierarchy { return m.caches }

// Reset restores the machine to its just-built state — registers, PC,
// counters, issue-slot state, the decoded-instruction cache (window
// re-anchors on the next fetch), the trace tier, and the cache hierarchy
// — while keeping what it allocated for reuse: the decode window, its
// lines (zeroed onto a spare list), and the trace-step arena. Its cost
// follows the lines and steps the last run filled, not the window size.
// The registered misalignment handler is preserved; the fault plan is
// cleared (its owner re-installs one per run). A reset machine behaves
// bit-identically to a fresh one.
func (m *Machine) Reset() {
	m.regs = [host.NumRegs + 1]uint64{}
	m.pc = 0
	m.counters = Counters{}
	m.faults = nil
	m.anchored = false
	m.denseBase = 0
	m.dropLines(true)
	m.slotOpen = false
	m.clearTraceState()
	if m.caches != nil {
		m.caches.Reset()
	}
}

// Counters returns a copy of the accumulated counters.
func (m *Machine) Counters() Counters { return m.counters }

// AddCycles charges extra cycles (used by the BT runtime to model
// interpreter, translator, and handler work happening "on this CPU").
func (m *Machine) AddCycles(n uint64) { m.counters.Cycles += n }

// AddTrapCycles charges handler work and also attributes it to trap time.
func (m *Machine) AddTrapCycles(n uint64) {
	m.counters.Cycles += n
	m.counters.TrapCycles += n
}

// PC returns the current program counter.
func (m *Machine) PC() uint64 { return m.pc }

// SetPC sets the program counter. The PC must be instruction-aligned.
func (m *Machine) SetPC(pc uint64) {
	if pc%host.InstBytes != 0 {
		panic(fmt.Sprintf("machine: SetPC(%#x): misaligned", pc))
	}
	m.pc = pc
}

// Reg reads register r (R31 reads as zero).
func (m *Machine) Reg(r host.Reg) uint64 { return m.regs[r] }

// SetReg writes register r (writes to R31 are discarded).
func (m *Machine) SetReg(r host.Reg, v uint64) {
	if r != host.Zero {
		m.regs[r] = v
	}
}

// SetMisalignHandler registers the misalignment trap handler. A nil handler
// restores the default OS-style behaviour: emulate the access and continue.
func (m *Machine) SetMisalignHandler(h MisalignHandler) { m.handler = h }

// SetAccessFaultHandler registers the access-protection trap handler. A
// nil handler restores the default behaviour: perform the access raw and
// continue (no one owns the protections).
func (m *Machine) SetAccessFaultHandler(h AccessFaultHandler) { m.accessHandler = h }

// SetFaultPlan installs a fault-injection plan for trap delivery. A nil
// plan (the default) disables injection.
func (m *Machine) SetFaultPlan(p *faultinject.Plan) { m.faults = p }

// WriteCode copies host code into memory at addr and invalidates any decoded
// instructions it covers. addr must be instruction-aligned.
func (m *Machine) WriteCode(addr uint64, words []uint32) {
	if addr%host.InstBytes != 0 {
		panic(fmt.Sprintf("machine: WriteCode(%#x): misaligned", addr))
	}
	for i, w := range words {
		m.Mem.Write32(addr+uint64(i)*host.InstBytes, w)
	}
	m.invalidate(addr, uint64(len(words))*host.InstBytes)
}

// Patch overwrites the single instruction word at addr and invalidates its
// decoded line. This is the primitive the BT exception handler uses to
// replace a faulting memory operation with a branch (paper Fig. 5).
func (m *Machine) Patch(addr uint64, word uint32) {
	m.WriteCode(addr, []uint32{word})
}

// IMB discards all decoded instructions (Alpha's instruction memory
// barrier). WriteCode/Patch already invalidate precisely; IMB exists for
// bulk invalidation such as a code cache flush.
func (m *Machine) IMB() {
	m.dropLines(false)
	m.dropAllTraces()
}

// dropLines empties the decode cache, keeping the dense window and its
// capacity. With recycle set (Reset only: no fetched slot pointer can
// outlive it) the lines go to the spare list, zeroed; otherwise they are
// left to the garbage collector, because a caller may still hold a slot
// of one.
func (m *Machine) dropLines(recycle bool) {
	for _, off := range m.filled {
		if l := m.dense[off]; l != nil {
			m.dense[off] = nil
			if recycle {
				*l = iline{}
				m.spare = append(m.spare, l)
			}
		}
	}
	m.filled = m.filled[:0]
	if recycle {
		for _, l := range m.farLines {
			*l = iline{}
			m.spare = append(m.spare, l)
		}
	}
	clear(m.farLines)
	m.curLine, m.curLineID = nil, 0
}

// newLine returns a zeroed line, recycled when Reset left one spare.
func (m *Machine) newLine() *iline {
	if n := len(m.spare); n > 0 {
		l := m.spare[n-1]
		m.spare = m.spare[:n-1]
		return l
	}
	return new(iline)
}

func (m *Machine) invalidate(addr, size uint64) {
	m.invalidateTraces(addr, size)
	first := addr >> ilineShift
	last := (addr + size - 1) >> ilineShift
	for l := first; l <= last; l++ {
		if off := l - m.denseBase; m.anchored && off < uint64(len(m.dense)) {
			m.dense[off] = nil
		} else if m.farLines != nil {
			delete(m.farLines, l)
		}
		if l == m.curLineID {
			m.curLine = nil
		}
	}
}

// line returns the (possibly empty) decoded line for lineID, anchoring the
// dense window at the first line ever requested.
func (m *Machine) line(lineID uint64) *iline {
	if !m.anchored {
		m.anchored = true
		m.denseBase = lineID
	}
	if off := lineID - m.denseBase; off < maxDenseLines {
		if off >= uint64(len(m.dense)) {
			newLen := uint64(2 * len(m.dense))
			if newLen < off+64 {
				newLen = off + 64
			}
			if newLen > maxDenseLines {
				newLen = maxDenseLines
			}
			nd := make([]*iline, newLen)
			copy(nd, m.dense)
			m.dense = nd
		}
		l := m.dense[off]
		if l == nil {
			l = m.newLine()
			m.dense[off] = l
			m.filled = append(m.filled, uint32(off))
		}
		return l
	}
	if m.farLines == nil {
		m.farLines = make(map[uint64]*iline)
	}
	l := m.farLines[lineID]
	if l == nil {
		l = m.newLine()
		m.farLines[lineID] = l
	}
	return l
}

// fetch returns the lowered instruction at pc, decoding and lowering it on
// first use and charging I-cache latency on line crossings. The returned
// pointer aliases the decode cache; it stays valid across invalidation and
// IMB (those drop lines; only Reset reuses them) but callers must not hold
// it across a fetch of different code or a Reset.
func (m *Machine) fetch(pc uint64) (*slot, error) {
	lineID := pc >> ilineShift
	line := m.curLine
	if line == nil || lineID != m.curLineID {
		line = m.line(lineID)
		m.curLine, m.curLineID = line, lineID
		if m.caches != nil {
			m.counters.Cycles += uint64(m.caches.Fetch(pc))
		}
	}
	i := int(pc >> 2 & (ilineInsts - 1))
	s := &line[i]
	if s.kind == slotEmpty {
		inst, err := host.Decode(m.Mem.Read32(pc))
		if err != nil {
			return nil, fmt.Errorf("machine: fetch at %#x: %w", pc, err)
		}
		*s = lower(pc, inst)
		line.linkRun(i)
	}
	return s, nil
}

// EmulateAccess performs inst's memory access at ea in software, ignoring
// alignment. Loads deposit into inst.Ra with the op's extension semantics;
// stores write inst.Ra's low bytes. This is what the OS-style fixup handler
// and the BT's first-trap handling use.
func (m *Machine) EmulateAccess(inst host.Inst, ea uint64) {
	size := inst.Op.MemSize()
	if inst.Op.IsStore() {
		m.Mem.Write(ea, m.Reg(inst.Ra), size)
		return
	}
	v := m.Mem.Read(ea, size)
	if inst.Op == host.LDL {
		v = uint64(int64(int32(v)))
	}
	m.SetReg(inst.Ra, v)
}

// Run executes until a BRKBT, the instruction budget is exhausted, or an
// execution error (undecodable instruction) occurs. On StopBrk/StopHalt the
// PC is left at the instruction after the BRKBT and the payload is returned.
//
// With the trace tier enabled (EnableTraces + at least one BuildTrace) Run
// drives execution through runTraced, which interleaves the pre-resolved
// trace executor with generic segments. A machine with a fault-injection
// plan installed always takes the generic loop so the injection stream is
// identical with and without traces.
func (m *Machine) Run(maxInsts uint64) (StopReason, uint32, error) {
	if m.traces == nil || m.faults != nil {
		stop, payload, err, _ := m.runLoop(maxInsts, false)
		return stop, payload, err
	}
	return m.runTraced(maxInsts)
}

// runLoop is the generic execution loop. With exitOnTrace set it returns
// redirected=true (state fully synced, PC at the target) whenever a taken
// branch or jump lands on a PC covered by a live trace, so runTraced can
// switch to the trace executor. The probe is placed only on the taken-
// branch and jump paths: executing traced PCs generically is bit-identical
// anyway, so straight-line entry into a trace region is simply picked up
// at the next control transfer (or never — harmlessly).
func (m *Machine) runLoop(maxInsts uint64, exitOnTrace bool) (_ StopReason, _ uint32, _ error, redirected bool) {
	p := &m.Params
	dual := p.DualIssueALU
	regs := &m.regs
	caches := m.caches
	faults := m.faults
	tlo, tspan := m.traceLo, m.traceHi-m.traceLo
	// The hottest loop in the simulator: the PC, current decoded I-line,
	// issue-slot state, and the instruction and cycle counters live in
	// locals so each iteration runs out of registers instead of reloading
	// Machine fields. They are written back (and re-read) at every point
	// where other code can observe or change them: fetch misses, traps (the
	// handler may patch code and charge cycles), and every return.
	//
	// Each outer iteration fetches one slot and retires the straight-line
	// run it starts (slot.run) in the inner loop, so the line check, the
	// budget test and the instruction count are paid per run. A run ends at
	// its first control transfer and never leaves its I-line, so fetch
	// charges, taken-branch costs and the trace-redirect probe fall exactly
	// where instruction-at-a-time execution puts them; everything else —
	// issue slots, extra latencies, the data-cache memo, injection draws —
	// stays per instruction.
	pc := m.pc
	curLine, curLineID := m.curLine, m.curLineID
	insts, cycles := m.counters.Insts, m.counters.Cycles
	slotOpen := m.slotOpen
	// Same-L1D-line memo: a data access to the line of the previous access
	// skips the hierarchy probe (DESIGN.md §8 shows why that is exact).
	// Only instruction fetches, which touch L1I and L2 but never L1D, run
	// between two accesses here; trap handlers may probe L1D, so the memo
	// is dropped after each one.
	dataLine := noLineID
	var dshift uint
	var misaligned bool // which trap the shared trap path delivers
	if caches != nil {
		dshift = caches.L1D.LineShift()
	}
	for n := uint64(0); n < maxInsts; {
		// Fetch, with the same-I-line case inlined so it does not pay a
		// call. Line crossings and first executions go through fetch.
		var s *slot
		if pc>>ilineShift == curLineID && curLine != nil {
			s = &curLine[pc>>2&(ilineInsts-1)]
		}
		if s == nil || s.kind == slotEmpty {
			m.counters.Cycles = cycles // fetch charges I-cache latency
			var err error
			s, err = m.fetch(pc)
			cycles = m.counters.Cycles
			curLine, curLineID = m.curLine, m.curLineID
			if err != nil {
				m.pc = pc
				m.counters.Insts = insts
				m.slotOpen = slotOpen
				return StopLimit, 0, err, false
			}
		}
		// Retire the run that starts at s (see slot.run), clipped to the
		// budget. Its instruction count and base cycles are charged up
		// front; a trap mid-run takes back the slots after the trapping one.
		r := uint64(s.run)
		if left := maxInsts - n; r > left {
			r = left
		}
		n += r
		insts += r
		cycles += r
		runEnd := pc + r*host.InstBytes
		var ea uint64
		for ; pc != runEnd; pc += host.InstBytes {
			s = &curLine[pc>>2&(ilineInsts-1)]

			// Memory kinds fall out of the switch into the shared data-cache
			// tail below; every other kind continues or jumps to its tail. In
			// the aligning kinds the short-circuit keeps the injection stream
			// untouched by genuinely misaligned accesses: only aligned ones
			// can draw a spurious trap. The access-protection check (the
			// dense trap-bit table filters protected, watched, and guard
			// pages) runs before the injection draw for the same reason.
			switch s.kind {
			case slotPAL:
				m.counters.Brks++
				m.pc = pc + host.InstBytes
				m.curLine, m.curLineID = curLine, curLineID
				m.counters.Insts, m.counters.Cycles = insts, cycles+p.BrkCycles
				m.slotOpen = false
				if s.imm == HaltService {
					return StopHalt, uint32(s.imm), nil, false
				}
				return StopBrk, uint32(s.imm), nil, false

			case slotLda:
				regs[s.a] = regs[s.b] + s.imm
				goto alu

			case slotLd, slotLdl:
				slotOpen = true // a memory op leaves an ALU slot open
				ea = regs[s.b] + s.imm
				if ea&uint64(s.size-1) != 0 || (faults != nil && faults.Should(faultinject.SpuriousTrap)) {
					goto misalign
				}
				if m.Mem.AccessTrap(ea, int(s.size), false) || (faults != nil && faults.Should(faultinject.SpuriousAccessFault)) {
					goto accessFault
				}
				m.counters.Loads++
				cycles += p.LoadExtraCycles
				if v := m.Mem.Read(ea, int(s.size)); s.kind == slotLdl {
					regs[s.a] = uint64(int64(int32(v)))
				} else {
					regs[s.a] = v
				}

			case slotSt:
				slotOpen = true
				ea = regs[s.b] + s.imm
				if ea&uint64(s.size-1) != 0 || (faults != nil && faults.Should(faultinject.SpuriousTrap)) {
					goto misalign
				}
				if m.Mem.AccessTrap(ea, int(s.size), true) || (faults != nil && faults.Should(faultinject.SpuriousAccessFault)) {
					goto accessFault
				}
				m.counters.Stores++
				m.Mem.Write(ea, regs[s.a], int(s.size))

			case slotLdu:
				slotOpen = true
				ea = regs[s.b] + s.imm
				acc := ea &^ uint64(s.size-1) // LDQ_U reads, and the cache sees, the quadword at ea&^7
				if m.Mem.AccessTrap(acc, int(s.size), false) || (faults != nil && faults.Should(faultinject.SpuriousAccessFault)) {
					goto accessFault
				}
				m.counters.Loads++
				cycles += p.LoadExtraCycles
				regs[s.a] = m.Mem.Read(acc, int(s.size))
				ea = acc

			case slotStu:
				slotOpen = true
				ea = regs[s.b] + s.imm
				acc := ea &^ uint64(s.size-1)
				if m.Mem.AccessTrap(acc, int(s.size), true) || (faults != nil && faults.Should(faultinject.SpuriousAccessFault)) {
					goto accessFault
				}
				m.counters.Stores++
				m.Mem.Write(acc, regs[s.a], int(s.size))
				ea = acc

			case slotOpr:
				regs[s.c] = host.EvalOp(s.op, regs[s.a], regs[s.b]+s.imm)
				goto alu
			case slotAddl:
				regs[s.c] = uint64(int64(int32(regs[s.a] + regs[s.b] + s.imm)))
				goto alu
			case slotAddq:
				regs[s.c] = regs[s.a] + regs[s.b] + s.imm
				goto alu
			case slotBis:
				regs[s.c] = regs[s.a] | (regs[s.b] + s.imm)
				goto alu
			case slotXor:
				regs[s.c] = regs[s.a] ^ (regs[s.b] + s.imm)
				goto alu
			case slotCmplt:
				v := uint64(0)
				if int64(regs[s.a]) < int64(regs[s.b]+s.imm) {
					v = 1
				}
				regs[s.c] = v
				goto alu
			case slotExtql:
				regs[s.c] = host.ExtLow(regs[s.a], regs[s.b]+s.imm, 8)
				goto alu
			case slotExtqh:
				regs[s.c] = host.ExtHigh(regs[s.a], regs[s.b]+s.imm, 8)
				goto alu

			case slotMul:
				regs[s.c] = host.EvalOp(s.op, regs[s.a], regs[s.b]+s.imm)
				cycles += p.MulExtraCycles
				slotOpen = false
				continue

			case slotBr:
				// A BR with no link register is a pure fetch redirect; the
				// EV6 front end folds it (it can also dual-issue).
				if dual {
					if slotOpen {
						cycles--
						slotOpen = false
					} else {
						slotOpen = true
					}
				} else {
					slotOpen = false
				}
				pc = s.imm
				goto redirect

			case slotBrLink:
				slotOpen = false
				regs[s.a] = pc + host.InstBytes
				goto taken

			case slotBeq:
				slotOpen = false
				if regs[s.a] == 0 {
					goto taken
				}
				continue
			case slotBne:
				slotOpen = false
				if regs[s.a] != 0 {
					goto taken
				}
				continue
			case slotBlt:
				slotOpen = false
				if int64(regs[s.a]) < 0 {
					goto taken
				}
				continue
			case slotBle:
				slotOpen = false
				if int64(regs[s.a]) <= 0 {
					goto taken
				}
				continue
			case slotBgt:
				slotOpen = false
				if int64(regs[s.a]) > 0 {
					goto taken
				}
				continue
			case slotBge:
				slotOpen = false
				if int64(regs[s.a]) >= 0 {
					goto taken
				}
				continue
			case slotBlbc:
				slotOpen = false
				if regs[s.a]&1 == 0 {
					goto taken
				}
				continue
			case slotBlbs:
				slotOpen = false
				if regs[s.a]&1 == 1 {
					goto taken
				}
				continue

			case slotJmp:
				slotOpen = false
				target := regs[s.b] &^ 3 // read before the link write: Ra may equal Rb
				regs[s.a] = pc + host.InstBytes
				pc = target
				cycles += p.TakenBranchCycles
				goto redirect
			}

			// Memory kinds: the access is done at ea.
			if caches != nil {
				if l := ea >> dshift; l != dataLine {
					dataLine = l
					cycles += uint64(caches.Data(ea))
				}
			}
			continue

		alu:
			if dual {
				if slotOpen {
					cycles-- // issued alongside the previous instruction
					slotOpen = false
				} else {
					slotOpen = true
				}
			}
		}
		continue

	taken:
		pc = s.imm
		cycles += p.TakenBranchCycles
	redirect:
		if exitOnTrace && pc-tlo < tspan {
			if _, ok := m.traces[pc]; ok {
				m.pc = pc
				m.curLine, m.curLineID = curLine, curLineID
				m.counters.Insts, m.counters.Cycles = insts, cycles
				m.slotOpen = slotOpen
				return StopLimit, 0, nil, true
			}
		}
		continue

	misalign:
		misaligned = true
		goto trap
	accessFault:
		misaligned = false
	trap:
		// The slots after the trapping one did not retire.
		back := (runEnd-pc)/host.InstBytes - 1
		n -= back
		m.pc = pc
		m.counters.Insts, m.counters.Cycles = insts-back, cycles-back
		m.slotOpen = slotOpen
		if misaligned {
			m.misalignTrap(s.inst(), ea)
		} else {
			m.accessTrap(s.inst(), ea)
		}
		// The handler set the resume PC; it may also have patched code,
		// charged cycles, or probed the data cache.
		pc = m.pc
		insts, cycles = m.counters.Insts, m.counters.Cycles
		curLine, curLineID = m.curLine, m.curLineID
		faults = m.faults
		dataLine = noLineID
	}
	m.pc = pc
	m.curLine, m.curLineID = curLine, curLineID
	m.counters.Insts, m.counters.Cycles = insts, cycles
	m.slotOpen = slotOpen
	return StopLimit, 0, nil, false
}

// misalignTrap charges the trap cost and dispatches to the handler. With a
// fault plan installed the serviced trap may be delivered again (duplicate
// delivery): the full trap cost recharges and the handler reruns on the
// original faulting PC — trap servicing must be, and is, idempotent.
func (m *Machine) misalignTrap(inst host.Inst, ea uint64) {
	pc := m.pc
	for {
		m.counters.MisalignTraps++
		m.counters.Cycles += m.Params.MisalignTrapCycles
		m.counters.TrapCycles += m.Params.MisalignTrapCycles
		if m.handler != nil {
			m.pc = m.handler(m, pc, inst, ea)
			if m.pc%host.InstBytes != 0 {
				panic(fmt.Sprintf("machine: misalign handler returned misaligned pc %#x", m.pc))
			}
		} else {
			// Default OS behaviour: fix up the access in software and continue.
			m.EmulateAccess(inst, ea)
			m.pc = pc + host.InstBytes
		}
		if !m.faults.Should(faultinject.DuplicateTrap) {
			return
		}
	}
}

// accessTrap charges the access-fault trap cost and dispatches to the
// access-fault handler. Unlike misalignTrap there is no duplicate
// redelivery: the handler does not complete the access in place, so a
// replay would observe post-handler state.
func (m *Machine) accessTrap(inst host.Inst, ea uint64) {
	pc := m.pc
	m.counters.AccessFaults++
	m.counters.Cycles += m.Params.AccessFaultCycles
	m.counters.TrapCycles += m.Params.AccessFaultCycles
	if m.accessHandler != nil {
		m.pc = m.accessHandler(m, pc, inst, ea)
		if m.pc%host.InstBytes != 0 {
			panic(fmt.Sprintf("machine: access-fault handler returned misaligned pc %#x", m.pc))
		}
		return
	}
	// Default: nobody owns the protections (bare machine, or a spurious
	// injection with no BT attached) — complete the access and continue.
	m.PerformAccess(inst, ea)
	m.pc = pc + host.InstBytes
}

// PerformAccess executes inst's memory access at ea exactly as the Run
// loop would — including the quadword masking of LDQU/STQU and the LDL
// sign extension — charging the load/store counter but no cycles. The BT's
// access-fault handler uses it to complete an access the trap-bit table
// flagged as a false positive.
func (m *Machine) PerformAccess(inst host.Inst, ea uint64) {
	access := ea
	if inst.Op == host.LDQU || inst.Op == host.STQU {
		access = ea &^ 7
	}
	size := inst.Op.MemSize()
	if inst.Op.IsStore() {
		m.counters.Stores++
		m.Mem.Write(access, m.Reg(inst.Ra), size)
		return
	}
	m.counters.Loads++
	v := m.Mem.Read(access, size)
	if inst.Op == host.LDL {
		v = uint64(int64(int32(v)))
	}
	m.SetReg(inst.Ra, v)
}

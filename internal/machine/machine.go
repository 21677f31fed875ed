// Package machine simulates the paper's evaluation hardware: a
// single-processor Alpha ES40 (paper §V-A). It executes host (Alpha-like)
// code from simulated memory — every instruction in one executor over
// pre-decoded traces (trace.go) — with a cycle cost model, the ES40 cache
// hierarchy, precise misaligned-access traps that dispatch to a registered
// handler, and a code-patching interface with instruction-stream coherence
// (a patched step is rewritten in place, traces over other written code
// are dropped).
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
	// trace steps send writes to R31 into the sink, so regs[host.Zero] is
	// never written and always reads zero.
	regs [host.NumRegs + 1]uint64
	pc   uint64

	caches        *cache.Hierarchy
	handler       MisalignHandler
	accessHandler AccessFaultHandler
	// faults, when non-nil, injects trap-delivery anomalies: spurious
	// misalignment traps on aligned accesses, spurious access faults, and
	// duplicate delivery of a trap the handler already serviced. All are
	// safe against a correct handler (MDA sequences are alignment-agnostic;
	// trap servicing is idempotent), which is exactly what the chaos tests
	// assert.
	faults *faultinject.Plan

	counters Counters

	// curLineID is the 64-byte I-line of the last instruction fetched, or
	// noLineID when the next fetch must charge the I-cache whatever its
	// line: after Reset, IMB, or a code write to that line (the I-stream
	// coherence actions, imb, a real BT must perform).
	curLineID uint64
	slotOpen  bool // an issue slot is open for an ALU-class instruction

	// The trace tier (see trace.go), the machine's only executor. traces
	// is the PC lookup table, a per-word array in chunks (pctable.go),
	// with an entry at the PC of every step of every live trace;
	// traceList holds the live traces by id. traceLo/traceHi bound the
	// covered address range so a code write outside it skips the overlap
	// search.
	traces    pcTable
	traceList map[uint64]*trace
	traceLo   uint64
	traceHi   uint64
	traceSeq  uint64
	traceVer  uint64 // bumped on build/flush; versions negative link caches
	steps     stepPool
	tstats    TraceStats
	// scratch holds the unfused copy of a stretch whose instructions must
	// retire one at a time because the budget ends inside it. A stretch's
	// steps start on one I-line, and the last may be a mega-step.
	scratch [ilineInsts + megaMaxLen]traceStep
}

// ilineShift sizes the I-line: a fetch from a line other than the last
// one fetched charges the I-cache.
const ilineShift = 6

// ilineInsts is the number of instructions in one I-line.
const ilineInsts = (1 << ilineShift) / host.InstBytes

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

// slot is one instruction lowered for the executor when a trace is built:
// the kind, register-file indexes (destinations of R31 remapped to
// sinkReg), and the immediate already resolved, so execution does no
// format dispatch, operand decoding or R31 test per instruction. Trace
// steps embed it (trace.go).
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
	// disp is the kind the executor dispatches on: kind, or in a trace the
	// pair kind that also runs the next step (pairOf, trace.go). Everything
	// but the executor's switch reads kind.
	disp slotKind
}

// slotKind is a lowered slot's kind; the zero value is a trace's
// synthetic exit.
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
// execution; an unconditional one can end a trace.
func (k slotKind) transfers() bool { return k == slotPAL || k >= slotBr && k <= slotJmp }

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
	s.disp = s.kind
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
		Mem:       m,
		Params:    p,
		traces:    newPCTable(),
		traceList: make(map[uint64]*trace),
	}
	mc.clearTraceState()
	if p.UseCaches {
		mc.caches = cache.NewES40()
	}
	return mc
}

// Caches exposes the cache hierarchy (nil when disabled).
func (m *Machine) Caches() *cache.Hierarchy { return m.caches }

// Reset restores the machine to its just-built state — registers, PC,
// counters, issue-slot and fetch state, the trace tier, and the cache
// hierarchy — while keeping what it allocated for reuse: the trace tables
// and, pooled, the steps of the traces it drops. Its cost follows the
// traces the last run left live. The registered handlers are preserved; the fault plan is
// cleared (its owner re-installs one per run). A reset machine behaves
// bit-identically to a fresh one.
func (m *Machine) Reset() {
	m.regs = [host.NumRegs + 1]uint64{}
	m.pc = 0
	m.counters = Counters{}
	m.faults = nil
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

// WriteCode copies host code into memory at addr and drops every trace
// with a step over the words written. addr must be instruction-aligned.
func (m *Machine) WriteCode(addr uint64, words []uint32) {
	if addr%host.InstBytes != 0 {
		panic(fmt.Sprintf("machine: WriteCode(%#x): misaligned", addr))
	}
	for i, w := range words {
		m.Mem.Write32(addr+uint64(i)*host.InstBytes, w)
	}
	size := uint64(len(words)) * host.InstBytes
	m.dropOverlapping(addr, addr+size)
	m.refetch(addr, size)
}

// Patch overwrites the single instruction word at addr. This is the
// primitive the BT exception handler uses to replace a faulting memory
// operation with a branch (paper Fig. 5), and chaining to link or unlink
// an exit. A live trace's plain step at addr is rewritten in place
// (relower); otherwise Patch drops the traces over addr as WriteCode does.
// addr must be instruction-aligned.
func (m *Machine) Patch(addr uint64, word uint32) {
	if addr%host.InstBytes != 0 {
		panic(fmt.Sprintf("machine: Patch(%#x): misaligned", addr))
	}
	m.Mem.Write32(addr, word)
	if !m.relower(addr, word) {
		m.dropOverlapping(addr, addr+host.InstBytes)
	}
	m.refetch(addr, host.InstBytes)
}

// IMB discards all decoded instructions (Alpha's instruction memory
// barrier). WriteCode/Patch already keep the traces coherent; IMB exists
// for bulk invalidation such as a code cache flush.
func (m *Machine) IMB() {
	m.curLineID = noLineID
	m.dropAllTraces()
}

// refetch makes the next fetch charge the I-cache again when a code write
// to [addr, addr+size) hit the line being fetched.
func (m *Machine) refetch(addr, size uint64) {
	if m.curLineID >= addr>>ilineShift && m.curLineID <= (addr+size-1)>>ilineShift {
		m.curLineID = noLineID
	}
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
// Every instruction retires in the trace executor (trace.go): Run enters
// the live trace covering the PC, or first forms one there, and
// re-enters after each trap or exit from the tier, sharing one budget.
func (m *Machine) Run(maxInsts uint64) (StopReason, uint32, error) {
	for used := uint64(0); used < maxInsts; {
		var st *traceStep
		if ent := m.traces.get(m.pc); ent.tr != nil {
			st = &ent.tr.steps[ent.idx]
		} else {
			var err error
			if st, err = m.formTrace(m.pc); err != nil {
				return StopLimit, 0, err
			}
		}
		if stop, payload, done := m.execTrace(st, &used, maxInsts); done {
			return stop, payload, nil
		}
	}
	return StopLimit, 0, nil
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

// PerformAccess executes inst's memory access at ea exactly as Run
// would — including the quadword masking of LDQU/STQU and the LDL
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

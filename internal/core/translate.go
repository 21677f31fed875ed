package core

import (
	"fmt"

	"mdabt/internal/align"
	"mdabt/internal/faultinject"
	"mdabt/internal/guest"
	"mdabt/internal/host"
	"mdabt/internal/policy"
)

// maxBlockInsts caps basic-block length; longer straight-line runs are
// split with a synthetic fallthrough exit.
const maxBlockInsts = 64

// MaxBlockInsts exports the translator's unit bound so offline CFG recovery
// (internal/align.RecoverCFG via internal/aot) forms exactly the blocks the
// dynamic translator would.
const MaxBlockInsts = maxBlockInsts

// sitePolicy is the translation-time decision for one memory site.
type sitePolicy uint8

const (
	polPlain    sitePolicy = iota // single trap-prone memory instruction
	polSeq                        // inline MDA code sequence
	polMixed                      // per-site multi-version code (§IV-D, Fig. 8 left)
	polAdaptive                   // streak-counting adaptive code (§IV-D, Fig. 8 right)
)

// String names the policy for dumps and verifier findings.
func (p sitePolicy) String() string {
	switch p {
	case polPlain:
		return "plain"
	case polSeq:
		return "seq"
	case polMixed:
		return "mixed"
	case polAdaptive:
		return "adaptive"
	}
	return "policy?"
}

// decodeBlock decodes the basic block starting at pc from guest memory,
// through the engine's PC-indexed decode cache (translations and the
// interpreter share decoded instructions).
func (e *Engine) decodeBlock(pc uint32) (insts []guest.Inst, lens []int, pcs []uint32, err error) {
	cur := pc
	for len(insts) < maxBlockInsts {
		de, derr := e.decoded(cur)
		if derr != nil {
			return nil, nil, nil, fmt.Errorf("core: decode block at %#x: %w", cur, derr)
		}
		insts = append(insts, de.inst)
		lens = append(lens, de.len)
		pcs = append(pcs, cur)
		cur += uint32(de.len)
		if de.inst.Op.EndsBlock() {
			break
		}
	}
	// When splitting an over-long straight-line run, never separate a
	// flag-setting instruction from the conditional branch that consumes
	// it: push the flag setter into the next block.
	if n := len(insts); n == maxBlockInsts && insts[n-1].Op.SetsFlags() {
		insts = insts[:n-1]
		lens = lens[:n-1]
		pcs = pcs[:n-1]
	}
	return insts, lens, pcs, nil
}

// guestKind maps a guest memory op to the host memKind of its data access.
func guestKind(op guest.Op) (memKind, bool) {
	switch op {
	case guest.LD4:
		return kindLD4, true
	case guest.LD2Z:
		return kindLD2Z, true
	case guest.LD2S:
		return kindLD2S, true
	case guest.ST4:
		return kindST4, true
	case guest.ST2:
		return kindST2, true
	case guest.FLD8:
		return kindFLD8, true
	case guest.FST8:
		return kindFST8, true
	case guest.POP, guest.RET:
		return kindLD4, true
	case guest.PUSH, guest.CALL:
		return kindST4, true
	case guest.REPMOVS4:
		return kindLD4, true // both streams are dword accesses
	}
	return 0, false // byte accesses and non-memory ops never misalign
}

// flagKind tracks how the translator can materialize a pending condition.
type flagKind uint8

const (
	flagNone      flagKind = iota
	flagCmp                // CMP a, b/imm
	flagTest               // TEST a, b
	flagResult             // flags reflect an ALU result left in a register
	flagClobbered          // a source register was overwritten; unusable
)

type flagState struct {
	kind   flagKind
	a, b   guest.Reg
	imm    int32
	useImm bool
	result guest.Reg
}

// note records a register write, clobbering the flag state if it kills a
// source the materialization would need.
func (f *flagState) note(w guest.Reg) {
	switch f.kind {
	case flagCmp, flagTest:
		if w == f.a || (!f.useImm && w == f.b) {
			f.kind = flagClobbered
		}
	case flagResult:
		if w == f.result {
			f.kind = flagClobbered
		}
	}
}

// traceEdge describes how a trace-internal terminator is emitted: JMPs to
// the next trace block vanish; JCCs become side-exit branches, inverted
// when the hot path is the taken target.
type traceEdge struct {
	skip       bool   // suppress the branch entirely (JMP to next)
	invert     bool   // branch on the inverse condition
	sideTarget uint32 // guest target of the cold side exit
}

// sideExit is a deferred cold-path exit stub emitted after the trace body.
type sideExit struct {
	label  string
	target uint32
}

// emitter translates one translation unit's body into host code.
type emitter struct {
	e         *Engine
	a         *host.Asm
	b         *block
	policy    map[int]sitePolicy
	counters  map[int]uint64    // inst index -> adaptive streak counter address
	edges     map[int]traceEdge // trace-internal terminators
	sideExits []sideExit
	// mvActive/mvPolicy replace polMixed while emitting one copy of a
	// block-granularity multi-version body (polPlain in the optimistic
	// copy, polSeq in the pessimistic one).
	mvActive bool
	mvPolicy sitePolicy
	record   bool // second pass: record sites and exits
	flags    flagState
	nlabel   int
}

func (em *emitter) label(prefix string) string {
	em.nlabel++
	return fmt.Sprintf("%s_%d", prefix, em.nlabel)
}

// siteFor returns the memSite for inst index idx (sub-access sub: string
// copies have a load site 0 and a store site 1), creating it on the
// recording pass.
func (em *emitter) siteFor(idx, sub int, pc uint32, k memKind) *memSite {
	if !em.record {
		return nil
	}
	for _, s := range em.b.sites {
		if s.instIdx == idx && s.sub == sub {
			return s
		}
	}
	s := &memSite{
		instIdx: idx, sub: sub, guestPC: pc, size: k.size(), isStore: k.isStore(),
		kind: k, patched: make(map[uint64]bool),
	}
	em.b.sites = append(em.b.sites, s)
	return s
}

// markAligned records, on the recording pass, that the host memory op at
// pc was emitted under a proven-aligned claim (static verdict or
// BT-internal data at a constructed-aligned address).
func (em *emitter) markAligned(pc uint64) {
	if em.record {
		em.b.alignedPCs[pc] = true
	}
}

// markGuarded records, on the recording pass, a plain memory op inside an
// alignment-guarded arm (unreachable when the address misaligns).
func (em *emitter) markGuarded(pc uint64) {
	if em.record {
		em.b.guardedPCs[pc] = true
	}
}

// addressing resolves a guest memory operand to (hostBase, disp) with
// disp+size-1 guaranteed to fit the 16-bit memory displacement, emitting
// effective-address computation into tmpEA when needed.
func (em *emitter) addressing(m guest.MemRef, size int) (host.Reg, int32) {
	direct := !m.HasIndex &&
		int64(m.Disp) >= -(1<<15) && int64(m.Disp)+int64(size)-1 < 1<<15
	if direct {
		return hostGPR(m.Base), m.Disp
	}
	baseH := hostGPR(m.Base)
	cur := baseH
	if m.HasIndex {
		idxH := hostGPR(m.Index)
		if m.Scale > 1 {
			sh := uint8(0)
			for 1<<sh != m.Scale {
				sh++
			}
			em.a.OprLit(host.SLL, idxH, sh, tmpEA)
		} else {
			em.a.Mov(idxH, tmpEA)
		}
		em.a.Opr(host.ADDQ, baseH, tmpEA, tmpEA)
		cur = tmpEA
	}
	if m.Disp != 0 {
		if m.Disp >= -(1<<15) && m.Disp < 1<<15 {
			em.a.Mem(host.LDA, tmpEA, m.Disp, cur)
		} else {
			em.a.MovImm(tmpImm, int64(m.Disp))
			em.a.Opr(host.ADDQ, cur, tmpImm, tmpEA)
		}
		cur = tmpEA
	}
	return cur, 0
}

// memAccess emits the data access for site idx according to policy,
// recording the trapping host PC for plain emissions.
func (em *emitter) memAccess(idx int, pc uint32, k memKind, data host.Reg, m guest.MemRef) {
	em.memAccessSub(idx, 0, pc, k, data, m)
}

func (em *emitter) memAccessSub(idx, sub int, pc uint32, k memKind, data host.Reg, m guest.MemRef) {
	base, disp := em.addressing(m, k.size())
	// Static alignment layer, per access stream: a proven-aligned stream
	// emits the plain operation with no trap-site registration (the
	// verifier accounts for it through block.alignedPCs); a proven-
	// misaligned stream inlines the MDA sequence eagerly. Stream-level
	// interception refines the instruction-level policy override in
	// sitePolicies for string copies whose two streams classified
	// differently. Verdicts are fixed at translation time, so both
	// emission passes agree (length invariance).
	if em.e.Opt.StaticAlign {
		switch em.e.alignDB.Verdict(pc, sub) {
		case align.Aligned:
			em.markAligned(emitPlain(em.a, k, data, base, disp))
			return
		case align.Misaligned:
			emitMDA(em.a, k, data, base, disp)
			return
		}
	}
	site := em.siteFor(idx, sub, pc, k)
	pol := em.policy[idx]
	if pol == polMixed && em.mvActive {
		pol = em.mvPolicy
	}
	if pol == polAdaptive && sub != 0 {
		// String copies have two dynamic access streams but one streak
		// counter slot; guard the second stream instead of adapting it.
		pol = polMixed
	}
	switch pol {
	case polSeq:
		emitMDA(em.a, k, data, base, disp)
	case polAdaptive:
		em.adaptiveAccess(idx, k, data, base, disp)
	case polMixed:
		// Multi-version code (§IV-D, Fig. 8): check the actual effective
		// address and run either the plain instruction or the MDA sequence.
		// The plain arm can never trap, so sometimes-aligned sites pay the
		// short check instead of either traps or a constant sequence.
		seq := em.label("mda")
		join := em.label("join")
		a := em.a
		a.Mem(host.LDA, tmpCond, disp, base)
		a.OprLit(host.AND, tmpCond, uint8(k.size()-1), tmpCond)
		a.Br(host.BNE, tmpCond, seq)
		em.markGuarded(emitPlain(a, k, data, base, disp))
		a.Br(host.BR, host.Zero, join)
		a.Label(seq)
		emitMDA(a, k, data, base, disp)
		a.Label(join)
	default:
		memPC := emitPlain(em.a, k, data, base, disp)
		if site != nil {
			site.hostPCs = append(site.hostPCs, memPC)
		}
	}
}

// adaptiveAccess emits the paper's truly-adaptive site (§IV-D, Fig. 8
// right): an alignment check routes misaligned executions to the MDA
// sequence (resetting the streak counter) and aligned executions through a
// counter increment; when the aligned streak passes the threshold a BRKBT
// asks the monitor to revert the site to a plain operation.
func (em *emitter) adaptiveAccess(idx int, k memKind, data host.Reg, base host.Reg, disp int32) {
	a := em.a
	ctr := em.counters[idx]
	mda := em.label("amda")
	aligned := em.label("aok")
	end := em.label("aend")
	a.Mem(host.LDA, tmpEA, disp, base)
	a.OprLit(host.AND, tmpEA, uint8(k.size()-1), tmpCond)
	a.Br(host.BNE, tmpCond, mda)
	// Aligned: bump the streak counter. The counter lives in tmpC/tmpD
	// (MDA scratch): data may be tmpImm (a CALL's pushed return address)
	// or tmpIndirect (a RET's target) and must survive until the arms.
	// The counter accesses are BT-internal data at 4-byte-aligned addresses
	// (allocCounter): proven aligned by construction.
	a.MovImm(tmpC, int64(ctr))
	em.markAligned(a.PC())
	a.Mem(host.LDL, tmpD, 0, tmpC)
	a.OprLit(host.ADDL, tmpD, 1, tmpD)
	em.markAligned(a.PC())
	a.Mem(host.STL, tmpD, 0, tmpC)
	a.OprLit(host.CMPLT, tmpD, em.e.Opt.AdaptiveStreak, tmpCond)
	a.Br(host.BNE, tmpCond, aligned)
	// Streak exhausted: ask the BT monitor to revert this site.
	if em.record {
		id := em.e.newAdaptive(em.b, idx, ctr)
		a.Brk(svcAdaptiveFlag | id)
	} else {
		a.Brk(svcAdaptiveFlag)
	}
	a.Label(aligned)
	em.markGuarded(emitPlain(a, k, data, base, disp)) // guarded: cannot trap
	a.Br(host.BR, host.Zero, end)
	a.Label(mda)
	a.MovImm(tmpC, int64(ctr))
	em.markAligned(a.PC())
	a.Mem(host.STL, host.Zero, 0, tmpC) // reset the streak
	emitMDA(a, k, data, base, disp)
	a.Label(end)
	if em.record {
		em.e.stats.AdaptiveSites++
	}
}

// stackAccess emits a 4-byte stack slot access through ESP (PUSH/POP/
// CALL/RET traffic). ESP-relative addressing is always direct.
func (em *emitter) stackAccess(idx int, pc uint32, k memKind, data host.Reg) {
	em.memAccess(idx, pc, k, data, guest.MemRef{Base: guest.ESP})
}

// exitTo emits a patchable exit stub to a static guest target.
func (em *emitter) exitTo(target uint32) {
	if em.record {
		ex := em.e.newExit(em.b, target, em.a.PC())
		em.a.Brk(svcExitBase + ex.id)
		return
	}
	em.a.Brk(svcExitBase) // placeholder: identical length
}

// condBranch materializes the pending flags for cond and emits a host
// branch to label when the condition holds.
func (em *emitter) condBranch(cond guest.Cond, label string) error {
	f := em.flags
	switch f.kind {
	case flagNone:
		return fmt.Errorf("core: conditional branch without a flag-setting instruction in block %#x", em.b.guestPC)
	case flagClobbered:
		return fmt.Errorf("core: condition sources overwritten before branch in block %#x", em.b.guestPC)
	case flagCmp:
		return em.cmpBranch(cond, f, label)
	case flagTest:
		em.a.Opr(host.AND, hostGPR(f.a), hostGPR(f.b), tmpCond)
		return em.zeroBranch(cond, tmpCond, label, true)
	case flagResult:
		return em.zeroBranch(cond, hostGPR(f.result), label, false)
	}
	return fmt.Errorf("core: unknown flag state")
}

// cmpOperands loads the CMP's second operand, returning either a literal or
// a register form emitter.
func (em *emitter) cmpWith(op host.Op, f flagState, dst host.Reg) {
	if f.useImm && f.imm >= 0 && f.imm <= 255 {
		em.a.OprLit(op, hostGPR(f.a), uint8(f.imm), dst)
		return
	}
	rb := hostGPR(f.b)
	if f.useImm {
		em.a.MovImm(tmpImm, int64(f.imm))
		rb = tmpImm
	}
	em.a.Opr(op, hostGPR(f.a), rb, dst)
}

// cmpBranch handles conditions after CMP a, b: compare host ops on the
// sign-extended 64-bit register images preserve both signed and unsigned
// 32-bit ordering.
func (em *emitter) cmpBranch(cond guest.Cond, f flagState, label string) error {
	type plan struct {
		op     host.Op
		branch host.Op
	}
	plans := map[guest.Cond]plan{
		guest.E:  {host.CMPEQ, host.BNE},
		guest.NE: {host.CMPEQ, host.BEQ},
		guest.L:  {host.CMPLT, host.BNE},
		guest.LE: {host.CMPLE, host.BNE},
		guest.G:  {host.CMPLE, host.BEQ},
		guest.GE: {host.CMPLT, host.BEQ},
		guest.B:  {host.CMPULT, host.BNE},
		guest.BE: {host.CMPULE, host.BNE},
		guest.A:  {host.CMPULE, host.BEQ},
		guest.AE: {host.CMPULT, host.BEQ},
	}
	if p, ok := plans[cond]; ok {
		em.cmpWith(p.op, f, tmpCond)
		em.a.Br(p.branch, tmpCond, label)
		return nil
	}
	// S/NS test the sign of a-b.
	em.cmpWith(host.SUBL, f, tmpCond)
	switch cond {
	case guest.S:
		em.a.Br(host.BLT, tmpCond, label)
	case guest.NS:
		em.a.Br(host.BGE, tmpCond, label)
	default:
		return fmt.Errorf("core: unsupported condition %v after cmp", cond)
	}
	return nil
}

// zeroBranch handles conditions against a result value (flags from TEST or
// an ALU result): CF/OF are zero, so the condition reduces to a comparison
// of the 32-bit result with zero. afterTest permits the relational forms.
func (em *emitter) zeroBranch(cond guest.Cond, r host.Reg, label string, afterTest bool) error {
	switch cond {
	case guest.E:
		em.a.Br(host.BEQ, r, label)
	case guest.NE:
		em.a.Br(host.BNE, r, label)
	case guest.S:
		em.a.Br(host.BLT, r, label)
	case guest.NS:
		em.a.Br(host.BGE, r, label)
	default:
		if !afterTest {
			return fmt.Errorf("core: unsupported condition %v on ALU result flags", cond)
		}
		switch cond {
		case guest.L: // OF=0 ⇒ SF
			em.a.Br(host.BLT, r, label)
		case guest.GE:
			em.a.Br(host.BGE, r, label)
		case guest.LE: // ZF || SF
			em.a.Br(host.BLE, r, label)
		case guest.G:
			em.a.Br(host.BGT, r, label)
		case guest.BE: // CF=0 ⇒ ZF
			em.a.Br(host.BEQ, r, label)
		case guest.A:
			em.a.Br(host.BNE, r, label)
		case guest.AE: // always
			em.a.Br(host.BR, host.Zero, label)
		case guest.B: // never taken: no branch
		default:
			return fmt.Errorf("core: unsupported condition %v after test", cond)
		}
	}
	return nil
}

// aluHostOp maps guest ALU ops to 32-bit host operate ops.
func aluHostOp(op guest.Op) (host.Op, bool) {
	switch op {
	case guest.ADDrr, guest.ADDri:
		return host.ADDL, true
	case guest.SUBrr, guest.SUBri:
		return host.SUBL, true
	case guest.ANDrr, guest.ANDri:
		return host.AND, true
	case guest.ORrr, guest.ORri:
		return host.BIS, true
	case guest.XORrr, guest.XORri:
		return host.XOR, true
	case guest.IMULrr, guest.IMULri:
		return host.MULL, true
	}
	return 0, false
}

// aluImm emits op dst, imm → dst, using the literal form when possible.
func (em *emitter) aluImm(op host.Op, dst host.Reg, imm int32) {
	if imm >= 0 && imm <= 255 {
		em.a.OprLit(op, dst, uint8(imm), dst)
		return
	}
	em.a.MovImm(tmpImm, int64(imm))
	em.a.Opr(op, dst, tmpImm, dst)
}

// inst translates the idx-th guest instruction of the block.
func (em *emitter) inst(idx int, pc uint32, nextPC uint32) error {
	a := em.a
	in := em.b.insts[idx]
	switch in.Op {
	case guest.NOP:
	case guest.HALT:
		a.Brk(svcHalt)

	case guest.MOVri:
		a.MovImm(hostGPR(in.R1), int64(in.Imm))
		em.flags.note(in.R1)
	case guest.MOVrr:
		a.Mov(hostGPR(in.R2), hostGPR(in.R1))
		em.flags.note(in.R1)
	case guest.LEA:
		base, disp := em.addressing(in.Mem, 1)
		a.Mem(host.LDA, hostGPR(in.R1), disp, base)
		a.Opr(host.ADDL, host.Zero, hostGPR(in.R1), hostGPR(in.R1)) // mod 2^32
		em.flags.note(in.R1)

	case guest.LD4, guest.LD2Z, guest.LD2S, guest.LD1Z, guest.LD1S:
		if in.Op == guest.LD1Z || in.Op == guest.LD1S {
			// Byte loads can never misalign; emit directly.
			base, disp := em.addressing(in.Mem, 1)
			a.Mem(host.LDBU, hostGPR(in.R1), disp, base)
			if in.Op == guest.LD1S {
				a.OprLit(host.SLL, hostGPR(in.R1), 56, hostGPR(in.R1))
				a.OprLit(host.SRA, hostGPR(in.R1), 56, hostGPR(in.R1))
			}
		} else {
			k, _ := guestKind(in.Op)
			em.memAccess(idx, pc, k, hostGPR(in.R1), in.Mem)
		}
		em.flags.note(in.R1)
	case guest.ST4, guest.ST2:
		k, _ := guestKind(in.Op)
		em.memAccess(idx, pc, k, hostGPR(in.R1), in.Mem)
	case guest.ST1:
		base, disp := em.addressing(in.Mem, 1)
		a.Mem(host.STB, hostGPR(in.R1), disp, base)
	case guest.FLD8:
		em.memAccess(idx, pc, kindFLD8, hostFR(in.FR1), in.Mem)
	case guest.FST8:
		em.memAccess(idx, pc, kindFST8, hostFR(in.FR1), in.Mem)

	case guest.ADDrr, guest.SUBrr, guest.ANDrr, guest.ORrr, guest.XORrr, guest.IMULrr:
		op, _ := aluHostOp(in.Op)
		a.Opr(op, hostGPR(in.R1), hostGPR(in.R2), hostGPR(in.R1))
		if in.Op.SetsFlags() {
			em.flags = flagState{kind: flagResult, result: in.R1}
		} else {
			em.flags.note(in.R1)
		}
	case guest.ADDri, guest.SUBri, guest.ANDri, guest.ORri, guest.XORri, guest.IMULri:
		op, _ := aluHostOp(in.Op)
		em.aluImm(op, hostGPR(in.R1), in.Imm)
		if in.Op.SetsFlags() {
			em.flags = flagState{kind: flagResult, result: in.R1}
		} else {
			em.flags.note(in.R1)
		}
	case guest.CMPrr:
		em.flags = flagState{kind: flagCmp, a: in.R1, b: in.R2}
	case guest.CMPri:
		em.flags = flagState{kind: flagCmp, a: in.R1, imm: in.Imm, useImm: true}
	case guest.TESTrr:
		em.flags = flagState{kind: flagTest, a: in.R1, b: in.R2}
	case guest.SHLri:
		r := hostGPR(in.R1)
		a.OprLit(host.SLL, r, uint8(uint32(in.Imm)&31), r)
		a.Opr(host.ADDL, host.Zero, r, r)
		em.flags.note(in.R1)
	case guest.SHRri:
		r := hostGPR(in.R1)
		sh := uint32(in.Imm) & 31
		a.OprLit(host.SLL, r, 32, r)
		a.OprLit(host.SRL, r, uint8(32+sh), r)
		a.Opr(host.ADDL, host.Zero, r, r)
		em.flags.note(in.R1)
	case guest.SARri:
		r := hostGPR(in.R1)
		a.OprLit(host.SRA, r, uint8(uint32(in.Imm)&31), r)
		em.flags.note(in.R1)
	case guest.FADDrr:
		a.Opr(host.ADDQ, hostFR(in.FR1), hostFR(in.FR2), hostFR(in.FR1))
	case guest.FMOVrr:
		a.Mov(hostFR(in.FR2), hostFR(in.FR1))

	case guest.REPMOVS4:
		// Inline copy loop: while ecx != 0 { [edi] = [esi]; esi+=4; edi+=4;
		// ecx-- }. The load and store are independent, policy-controlled
		// memory sites — exactly where libc-style memcpy misalignment lands.
		ecx, esi, edi := hostGPR(guest.ECX), hostGPR(guest.ESI), hostGPR(guest.EDI)
		top := em.label("rep")
		done := em.label("repdone")
		a.Label(top)
		a.Br(host.BEQ, ecx, done)
		em.memAccessSub(idx, 0, pc, kindLD4, tmpImm, guest.MemRef{Base: guest.ESI})
		em.memAccessSub(idx, 1, pc, kindST4, tmpImm, guest.MemRef{Base: guest.EDI})
		a.Mem(host.LDA, esi, 4, esi)
		a.Mem(host.LDA, edi, 4, edi)
		a.OprLit(host.SUBL, ecx, 1, ecx)
		a.Br(host.BR, host.Zero, top)
		a.Label(done)
		em.flags.note(guest.ECX)
		em.flags.note(guest.ESI)
		em.flags.note(guest.EDI)

	case guest.JMP:
		if edge, ok := em.edges[idx]; ok && edge.skip {
			break // trace-internal: fall through into the next trace block
		}
		em.exitTo(nextPC + uint32(in.Rel))
	case guest.JCC:
		if edge, ok := em.edges[idx]; ok {
			// Trace-internal conditional: branch to the cold side exit and
			// fall through along the hot path.
			cond := in.Cond
			if edge.invert {
				cond = cond.Inverse()
			}
			side := em.label("side")
			if err := em.condBranch(cond, side); err != nil {
				return err
			}
			em.sideExits = append(em.sideExits, sideExit{label: side, target: edge.sideTarget})
			break
		}
		taken := em.label("taken")
		if err := em.condBranch(in.Cond, taken); err != nil {
			return err
		}
		em.exitTo(nextPC) // fallthrough
		a.Label(taken)
		em.exitTo(nextPC + uint32(in.Rel))
	case guest.CALL:
		esp := hostGPR(guest.ESP)
		a.MovImm(tmpImm, int64(nextPC))
		a.Mem(host.LDA, esp, -4, esp)
		em.stackAccess(idx, pc, kindST4, tmpImm)
		em.exitTo(nextPC + uint32(in.Rel))
	case guest.RET:
		esp := hostGPR(guest.ESP)
		em.stackAccess(idx, pc, kindLD4, tmpIndirect)
		a.Mem(host.LDA, esp, 4, esp)
		if em.e.Opt.IBTC {
			// Inline indirect-branch translation cache probe: on a tag hit
			// jump straight to the cached host entry, otherwise fall back
			// to the monitor (which fills the entry).
			miss := em.label("ibtcmiss")
			a.OprLit(host.SRL, tmpIndirect, ibtcShift, tmpA)
			a.OprLit(host.AND, tmpA, ibtcEntries-1, tmpA)
			a.OprLit(host.SLL, tmpA, 4, tmpA)
			a.MovImm(tmpImm, ibtcBase)
			a.Opr(host.ADDQ, tmpImm, tmpA, tmpA)
			// IBTC entries are 16-byte table slots: aligned by construction.
			em.markAligned(a.PC())
			a.Mem(host.LDQ, tmpB, 0, tmpA) // cached guest tag
			a.Opr(host.CMPEQ, tmpB, tmpIndirect, tmpCond)
			a.Br(host.BEQ, tmpCond, miss)
			em.markAligned(a.PC())
			a.Mem(host.LDQ, tmpB, 8, tmpA) // cached host entry
			a.Jmp(host.JMP, host.Zero, tmpB)
			a.Label(miss)
		}
		a.Brk(svcIndirect)
	case guest.PUSH:
		esp := hostGPR(guest.ESP)
		a.Mem(host.LDA, esp, -4, esp)
		em.stackAccess(idx, pc, kindST4, hostGPR(in.R1))
	case guest.POP:
		esp := hostGPR(guest.ESP)
		em.stackAccess(idx, pc, kindLD4, hostGPR(in.R1))
		a.Mem(host.LDA, esp, 4, esp)
		em.flags.note(in.R1)

	default:
		return fmt.Errorf("core: translate: unhandled guest op %v", in.Op)
	}
	return nil
}

// emitRange emits the instructions in [from, to). On the recording pass it
// also records each instruction's host start address (block.bounds) for
// fault attribution — pure metadata, so both passes stay length-invariant.
func (em *emitter) emitRange(from, to int) error {
	b := em.b
	for idx := from; idx < to; idx++ {
		pc := b.instPCs[idx]
		next := pc + uint32(b.instLens[idx])
		if em.record {
			b.bounds = append(b.bounds, instBound{hostPC: em.a.PC(), idx: idx})
		}
		if err := em.inst(idx, pc, next); err != nil {
			return err
		}
	}
	return nil
}

// syntheticExit emits the fallthrough exit a unit needs when its final
// instruction does not branch (split at maxBlockInsts).
func (em *emitter) syntheticExit() {
	b := em.b
	if last := len(b.insts) - 1; last < 0 || !b.insts[last].Op.EndsBlock() {
		var cont uint32
		if last >= 0 {
			cont = b.instPCs[last] + uint32(b.instLens[last])
		} else {
			cont = b.guestPC
		}
		em.exitTo(cont)
	}
}

// body emits the unit's instructions (optionally as a block-granularity
// two-version body, §IV-D), the trace side exits, and the synthetic
// fallthrough exit when needed.
func (em *emitter) body() error {
	b := em.b
	split := -1
	if em.e.Opt.MultiVersion && em.e.Opt.MVBlockGranularity {
		for idx := range b.insts {
			if em.policy[idx] == polMixed {
				split = idx
				break
			}
		}
	}
	if split < 0 {
		if err := em.emitRange(0, len(b.insts)); err != nil {
			return err
		}
		em.syntheticExit()
	} else {
		// Shared prefix up to the first mixed site.
		if err := em.emitRange(0, split); err != nil {
			return err
		}
		// One alignment check on the first mixed site's address selects
		// the copy (paper Fig. 8: "Multi-version Code", block form).
		in := b.insts[split]
		k, _ := guestKind(in.Op)
		m := in.Mem
		if !in.Op.IsExplicitMem() {
			m = guest.MemRef{Base: guest.ESP}
		}
		base, disp := em.addressing(m, k.size())
		v2 := em.label("mv2")
		em.a.Mem(host.LDA, tmpCond, disp, base)
		em.a.OprLit(host.AND, tmpCond, uint8(k.size()-1), tmpCond)
		em.a.Br(host.BNE, tmpCond, v2)
		savedFlags := em.flags
		// Optimistic copy: mixed sites as plain operations. The guard only
		// checked the first site, so the others may still trap — the
		// exception handler covers them, preserving correctness.
		em.mvActive, em.mvPolicy = true, polPlain
		if err := em.emitRange(split, len(b.insts)); err != nil {
			return err
		}
		em.syntheticExit()
		// Pessimistic copy: mixed sites as MDA sequences.
		em.a.Label(v2)
		em.flags = savedFlags
		em.mvPolicy = polSeq
		if err := em.emitRange(split, len(b.insts)); err != nil {
			return err
		}
		em.syntheticExit()
		em.mvActive = false
	}
	// Deferred trace side exits.
	for _, se := range em.sideExits {
		em.a.Label(se.label)
		em.exitTo(se.target)
	}
	return nil
}

// fromPolicy maps the mechanism seam's site decision onto the emitter's
// internal policy enum.
func fromPolicy(p policy.SitePolicy) sitePolicy {
	switch p {
	case policy.Seq:
		return polSeq
	case policy.Mixed:
		return polMixed
	case policy.Adaptive:
		return polAdaptive
	}
	return polPlain
}

// sitePolicies computes the per-site translation policy for the unit by
// assembling a SiteCtx snapshot per memory site (trap history, train
// profile, interpretation profile, adaptive reversion, static-analysis
// verdict) and asking the mechanism strategy. The engine records the
// verdicts and mixed-site set for the emitter; everything mechanism-
// specific lives behind the policy seam.
func (e *Engine) sitePolicies(b *block) (map[int]sitePolicy, bool) {
	pol := make(map[int]sitePolicy)
	for idx, in := range b.insts {
		instPC := b.instPCs[idx]
		if _, isMem := guestKind(in.Op); !isMem {
			continue
		}
		ctx := policy.SiteCtx{
			GuestPC:      instPC,
			KnownMDA:     b.knownMDA[idx],
			StaticMarked: e.Opt.StaticSites[instPC],
		}
		if s := e.dec.profAt(instPC); s != nil {
			ctx.ProfMDA, ctx.ProfAligned = s.mda, s.aligned
		}
		if rv := e.reverted[b.guestPC]; rv != nil && rv[idx] {
			ctx.Reverted = true
		}
		if e.Opt.StaticAlign {
			// Whole-instruction verdicts feed the StaticAlign decorator;
			// the engine records them for dumps/verifier and the stats.
			// Unknown (and mixed-stream) sites keep the base mechanism's
			// decision; memAccessSub further refines per access stream.
			ctx.AlignVerdict = e.alignDB.InstVerdict(instPC, in.Op)
			b.averdict[idx] = ctx.AlignVerdict
			switch ctx.AlignVerdict {
			case align.Aligned:
				e.stats.StaticAlignedSites++
			case align.Misaligned:
				e.stats.StaticMisalignedSites++
			default:
				e.stats.StaticUnknownSites++
			}
		}
		p := fromPolicy(e.mech.SitePolicy(ctx))
		pol[idx] = p
		if p == polMixed {
			b.mixed[idx] = true
		}
	}
	return pol, len(b.mixed) > 0
}

// translate translates the unit at guest pc — a basic block, or a trace of
// blocks when superblock formation applies — consuming the interpretation
// profile. It registers the unit, writes its code into the machine, and
// charges translation cost at perInst cycles per guest instruction.
func (e *Engine) translate(pc uint32, perInst uint64) (*block, error) {
	if e.Opt.FaultPlan.Should(faultinject.Translate) {
		return nil, errInjectedTranslate
	}
	insts, lens, pcs, err := e.decodeBlock(pc)
	if err != nil {
		return nil, err
	}
	edges := map[int]traceEdge{}
	nblocks := 1
	if e.Opt.Superblocks {
		switch {
		case e.profiled:
			insts, lens, pcs, edges, nblocks, err = e.formTrace(pc, insts, lens, pcs)
		case e.Opt.AOT:
			// No interpretation profile exists ahead of time, so the AOT
			// tier folds only edges that are taken on every execution.
			insts, lens, pcs, edges, nblocks, err = e.formStaticTrace(pc, insts, lens, pcs)
		}
		if err != nil {
			return nil, err
		}
	}
	b := &block{
		guestPC:    pc,
		insts:      insts,
		instLens:   lens,
		instPCs:    pcs,
		nblocks:    nblocks,
		knownMDA:   make(map[int]bool),
		mixed:      make(map[int]bool),
		averdict:   make(map[int]align.Verdict),
		alignedPCs: make(map[uint64]bool),
		guardedPCs: make(map[uint64]bool),
	}
	for _, n := range lens {
		b.guestLen += uint32(n)
	}
	// Retranslations inherit the accumulated trap-discovered MDA sites
	// (§IV-C) so the new code inlines their sequences.
	for idx := range e.retainedMDA[pc] {
		b.knownMDA[idx] = true
	}
	policy, anyMixed := e.sitePolicies(b)
	b.sitePol = policy
	b.twoVer = anyMixed

	// Adaptive sites need streak counters at addresses known to both
	// emission passes.
	counters := make(map[int]uint64)
	for idx := range b.insts {
		if policy[idx] == polAdaptive {
			counters[idx] = e.allocCounter()
		}
	}

	emit := func(base uint64, record bool) (*host.Asm, error) {
		a := host.NewAsm(base)
		em := &emitter{e: e, a: a, b: b, policy: policy, counters: counters, edges: edges, record: record}
		if err := em.body(); err != nil {
			return nil, err
		}
		return a, nil
	}

	// Pass 1: measure. All emission paths produce length-invariant code for
	// the same inputs, so the sizing pass is exact.
	probe, err := emit(0, false)
	if err != nil {
		return nil, err
	}
	size := uint64(probe.Len()) * host.InstBytes
	addr, err := e.cc.allocBlock(size)
	if err != nil {
		return nil, err // engine flushes and retries
	}
	// Pass 2: emit for real, recording sites and exits.
	b.hostEntry = addr
	b.hostSize = size
	a, err := emit(addr, true)
	if err != nil {
		return nil, err
	}
	words, err := a.Finish()
	if err != nil {
		return nil, err
	}
	if uint64(len(words))*host.InstBytes != size {
		return nil, fmt.Errorf("core: translate %#x: size drift between passes", pc)
	}
	e.Mach.WriteCode(addr, words)
	for _, s := range b.sites {
		for _, hpc := range s.hostPCs {
			e.sites[hpc] = siteRef{b: b, site: s}
		}
	}
	e.blocks[pc] = b
	e.blockSpans = append(e.blockSpans, blockSpan{lo: addr, hi: addr + size, b: b})
	e.event(EvTranslate, pc, addr, fmt.Sprintf("%d insts, %d blocks", len(insts), nblocks))
	if e.aotPass {
		// Offline pre-translation: counted separately and free of simulated
		// cycles — the AOT tier's whole point is that this work happens
		// before the program runs (DESIGN.md §13).
		b.aot = true
		e.stats.AOTBlocks++
	} else {
		e.stats.BlocksTranslated++
		if e.Opt.AOT {
			// A dynamic translation despite pre-translation: indirect-target
			// miss, SMC invalidation, or a post-flush refill.
			e.stats.AOTFallbacks++
		}
		cost := translateFixedCycles + perInst*uint64(len(insts))
		e.Mach.AddCycles(cost)
	}
	if nblocks > 1 {
		e.stats.Superblocks++
		e.stats.TraceBlocks += uint64(nblocks)
	}
	if b.twoVer {
		e.stats.MultiVersion++
	}
	e.selfCheck("translate")
	return b, nil
}

// Trace-formation bounds.
const (
	maxTraceBlocks = 6
	maxTraceInsts  = 120
	traceMinHeat   = 4    // minimum successor samples before extending
	traceBias      = 0.75 // successor must carry this fraction of exits
)

// formTrace extends the hot block at head along its dominant successors
// (superblock formation — the "retranslate and further optimize" phase the
// paper's two-phase framework describes). The returned instruction list
// concatenates the chained blocks; edges records how each trace-internal
// terminator is emitted.
func (e *Engine) formTrace(head uint32, insts []guest.Inst, lens []int, pcs []uint32) (
	[]guest.Inst, []int, []uint32, map[int]traceEdge, int, error) {
	edges := map[int]traceEdge{}
	visited := map[uint32]bool{head: true}
	nblocks := 1
	cur := head
	for nblocks < maxTraceBlocks && len(insts) < maxTraceInsts {
		next, ok := e.dominantSuccessor(cur)
		if !ok || visited[next] {
			break
		}
		// Only JMP/JCC/fallthrough terminators can be folded into a trace.
		last := len(insts) - 1
		term := insts[last]
		termPC := pcs[last]
		termNext := termPC + uint32(lens[last])
		var edge traceEdge
		switch term.Op {
		case guest.JMP:
			if termNext+uint32(term.Rel) != next {
				return insts, lens, pcs, edges, nblocks, nil
			}
			edge = traceEdge{skip: true}
		case guest.JCC:
			taken := termNext + uint32(term.Rel)
			switch next {
			case taken:
				edge = traceEdge{invert: true, sideTarget: termNext}
			case termNext:
				edge = traceEdge{sideTarget: taken}
			default:
				return insts, lens, pcs, edges, nblocks, nil
			}
		default:
			if term.Op.EndsBlock() || termNext != next {
				// CALL/RET/HALT terminators (or a split that does not lead
				// to the profiled successor) end the trace.
				return insts, lens, pcs, edges, nblocks, nil
			}
			// Block split: the successor already follows fall-through.
		}
		nInsts, nLens, nPCs, err := e.decodeBlock(next)
		if err != nil {
			return nil, nil, nil, nil, 0, err
		}
		if len(insts)+len(nInsts) > maxTraceInsts {
			break
		}
		if term.Op == guest.JMP || term.Op == guest.JCC {
			edges[len(insts)-1] = edge
		}
		insts = append(insts, nInsts...)
		lens = append(lens, nLens...)
		pcs = append(pcs, nPCs...)
		visited[next] = true
		nblocks++
		cur = next
	}
	return insts, lens, pcs, edges, nblocks, nil
}

// formStaticTrace is formTrace for the profile-less AOT tier: it extends
// the block only along edges that are taken on every execution — direct
// jumps and block splits (a block cut short because another block starts
// at its fall-through). Conditional branches end the trace: without a
// profile there is no dominant arm to speculate on, and folding the wrong
// one would pessimize the straight-line layout AOT exists to provide.
func (e *Engine) formStaticTrace(head uint32, insts []guest.Inst, lens []int, pcs []uint32) (
	[]guest.Inst, []int, []uint32, map[int]traceEdge, int, error) {
	edges := map[int]traceEdge{}
	visited := map[uint32]bool{head: true}
	nblocks := 1
	for nblocks < maxTraceBlocks && len(insts) < maxTraceInsts {
		last := len(insts) - 1
		term := insts[last]
		termNext := pcs[last] + uint32(lens[last])
		var next uint32
		fold := false
		switch term.Op {
		case guest.JMP:
			next, fold = termNext+uint32(term.Rel), true
		default:
			if term.Op.EndsBlock() {
				return insts, lens, pcs, edges, nblocks, nil
			}
			next = termNext // block split: fall-through is unconditional
		}
		if visited[next] {
			break
		}
		nInsts, nLens, nPCs, err := e.decodeBlock(next)
		if err != nil {
			return nil, nil, nil, nil, 0, err
		}
		if len(insts)+len(nInsts) > maxTraceInsts {
			break
		}
		if fold {
			edges[last] = traceEdge{skip: true}
		}
		insts = append(insts, nInsts...)
		lens = append(lens, nLens...)
		pcs = append(pcs, nPCs...)
		visited[next] = true
		nblocks++
	}
	return insts, lens, pcs, edges, nblocks, nil
}

// dominantSuccessor consults the interpretation profile for the block's
// overwhelmingly common successor.
func (e *Engine) dominantSuccessor(pc uint32) (uint32, bool) {
	prof := e.profiles[pc]
	if prof == nil || len(prof.succ) == 0 {
		return 0, false
	}
	var total, best uint64
	var bestPC uint32
	for next, n := range prof.succ {
		total += n
		if n > best {
			best, bestPC = n, next
		}
	}
	if total < traceMinHeat || float64(best) < traceBias*float64(total) {
		return 0, false
	}
	return bestPC, true
}

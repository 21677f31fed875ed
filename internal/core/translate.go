package core

import (
	"fmt"
	"slices"

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

// decodeBlock decodes the basic block starting at pc from guest memory,
// through the engine's PC-indexed decode cache (translations and the
// interpreter share decoded instructions), and appends one record per
// instruction to units.
func (e *Engine) decodeBlock(units []unitInst, pc uint32) ([]unitInst, error) {
	start := len(units)
	cur := pc
	for len(units)-start < maxBlockInsts {
		de, err := e.decoded(cur)
		if err != nil {
			return nil, fmt.Errorf("core: decode block at %#x: %w", cur, err)
		}
		units = append(units, unitInst{inst: de.Inst, pc: cur, len: int(de.Len)})
		cur += uint32(de.Len)
		if de.Inst.Op.EndsBlock() {
			break
		}
	}
	// When splitting an over-long straight-line run, never separate a
	// flag-setting instruction from the conditional branch that consumes
	// it: push the flag setter into the next block.
	if n := len(units); n-start == maxBlockInsts && units[n-1].inst.Op.SetsFlags() {
		units = units[:n-1]
	}
	return units, nil
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

// traceEdge describes how a trace-internal terminator is emitted: a folded
// JMP to the next trace block vanishes; a folded JCC becomes a side-exit
// branch, inverted when the hot path is the taken target.
type traceEdge struct {
	folded     bool   // the terminator leads to the next trace block
	invert     bool   // JCC: branch on the inverse condition
	sideTarget uint32 // JCC: guest target of the cold side exit
}

// sideExit is a deferred cold-path exit stub emitted after the trace body.
type sideExit struct {
	label  host.Label
	target uint32
}

// emitter translates one translation unit's body into host code.
type emitter struct {
	e         *Engine
	a         *host.Asm
	b         *block
	sideExits []sideExit
	// words is the unit's per-word table as it is emitted (one hostWord per
	// host word from base, in Engine.wordBuf's storage); cur is the
	// instruction whose emission is in progress, which every new record
	// names.
	base  uint64
	words []hostWord
	cur   int16
	// mvActive/mvPolicy replace policy.Mixed while emitting one copy of a
	// block-granularity multi-version body (policy.Plain in the optimistic
	// copy, policy.Seq in the pessimistic one).
	mvActive bool
	mvPolicy policy.SitePolicy
	// adaptives stages the unit's adaptive-site refs; translate commits
	// them to Engine.adaptives once the unit's allocation succeeds.
	adaptives []adaptiveRef
	flags     flagState
}

// siteFor returns the index in block.sites of the memSite for inst index
// idx (sub-access sub: string copies have a load site 0 and a store site
// 1), creating it on first use.
func (em *emitter) siteFor(idx, sub int) int16 {
	for i, s := range em.b.sites {
		if s.instIdx == idx && s.sub == sub {
			return int16(i)
		}
	}
	em.b.sites = append(em.b.sites, &memSite{instIdx: idx, sub: sub, guestPC: em.b.insts[idx].pc})
	return int16(len(em.b.sites) - 1)
}

// through extends the table through word index i with records naming the
// current instruction.
func (em *emitter) through(i int) {
	for len(em.words) <= i {
		em.words = append(em.words, hostWord{inst: em.cur, site: noSite})
	}
}

// word returns the record of the host word at pc, extending the table
// through it. pc may be the next word to emit, so a claim can be recorded
// before its word.
func (em *emitter) word(pc uint64) *hostWord {
	i := int((pc - em.base) / host.InstBytes)
	em.through(i)
	return &em.words[i]
}

// markAligned records that the host memory op at pc was emitted under a
// proven-aligned claim (static verdict or BT-internal data at a
// constructed-aligned address).
func (em *emitter) markAligned(pc uint64) { em.word(pc).tags |= align.TagProven }

// markGuarded records a plain memory op inside an alignment-guarded arm
// (unreachable when the address misaligns).
func (em *emitter) markGuarded(pc uint64) { em.word(pc).tags |= align.TagGuarded }

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
func (em *emitter) memAccess(idx int, k memKind, data host.Reg, m guest.MemRef) {
	em.memAccessSub(idx, 0, k, data, m)
}

func (em *emitter) memAccessSub(idx, sub int, k memKind, data host.Reg, m guest.MemRef) {
	size := k.info().size
	base, disp := em.addressing(m, size)
	// Static alignment layer, per access stream: a proven-aligned stream
	// emits the plain operation with no trap-site registration (the
	// verifier accounts for it through its word's proven tag); a proven-
	// misaligned stream inlines the MDA sequence eagerly. Stream-level
	// interception refines the instruction-level policy override in
	// sitePolicies for string copies whose two streams classified
	// differently.
	if em.e.Opt.StaticAlign {
		switch em.e.alignDB.Verdict(em.b.insts[idx].pc, sub) {
		case align.Aligned:
			em.markAligned(emitPlain(em.a, k, data, base, disp))
			return
		case align.Misaligned:
			emitMDA(em.a, k, data, base, disp)
			return
		}
	}
	site := em.siteFor(idx, sub)
	pol := em.b.insts[idx].pol
	if pol == policy.Mixed && em.mvActive {
		pol = em.mvPolicy
	}
	if pol == policy.Adaptive && sub != 0 {
		// String copies have two dynamic access streams but one streak
		// counter slot; guard the second stream instead of adapting it.
		pol = policy.Mixed
	}
	switch pol {
	case policy.Seq:
		emitMDA(em.a, k, data, base, disp)
	case policy.Adaptive:
		em.adaptiveAccess(idx, k, data, base, disp)
	case policy.Mixed:
		// Multi-version code (§IV-D, Fig. 8): check the actual effective
		// address and run either the plain instruction or the MDA sequence.
		// The plain arm can never trap, so sometimes-aligned sites pay the
		// short check instead of either traps or a constant sequence.
		a := em.a
		seq, join := a.NewLabel(), a.NewLabel()
		a.Mem(host.LDA, tmpCond, disp, base)
		a.OprLit(host.AND, tmpCond, uint8(size-1), tmpCond)
		a.Br(host.BNE, tmpCond, seq)
		em.markGuarded(emitPlain(a, k, data, base, disp))
		a.Br(host.BR, host.Zero, join)
		a.Bind(seq)
		emitMDA(a, k, data, base, disp)
		a.Bind(join)
	default:
		em.word(emitPlain(em.a, k, data, base, disp)).site = site
	}
}

// adaptiveAccess emits the paper's truly-adaptive site (§IV-D, Fig. 8
// right): an alignment check routes misaligned executions to the MDA
// sequence (resetting the streak counter) and aligned executions through a
// counter increment; when the aligned streak passes the threshold a BRKBT
// asks the monitor to revert the site to a plain operation.
func (em *emitter) adaptiveAccess(idx int, k memKind, data host.Reg, base host.Reg, disp int32) {
	a := em.a
	ctr := em.b.insts[idx].counter
	mda, aligned, end := a.NewLabel(), a.NewLabel(), a.NewLabel()
	a.Mem(host.LDA, tmpEA, disp, base)
	a.OprLit(host.AND, tmpEA, uint8(k.info().size-1), tmpCond)
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
	// Streak exhausted: ask the BT monitor to revert this site. The payload
	// id is the slot the staged ref takes when the unit commits.
	id := uint32(len(em.e.adaptives) + len(em.adaptives))
	em.adaptives = append(em.adaptives, adaptiveRef{b: em.b, instIdx: idx, counter: ctr})
	a.Brk(svcAdaptiveFlag | id)
	a.Bind(aligned)
	em.markGuarded(emitPlain(a, k, data, base, disp)) // guarded: cannot trap
	a.Br(host.BR, host.Zero, end)
	a.Bind(mda)
	a.MovImm(tmpC, int64(ctr))
	em.markAligned(a.PC())
	a.Mem(host.STL, host.Zero, 0, tmpC) // reset the streak
	emitMDA(a, k, data, base, disp)
	a.Bind(end)
}

// stackAccess emits a 4-byte stack slot access through ESP (PUSH/POP/
// CALL/RET traffic). ESP-relative addressing is always direct.
func (em *emitter) stackAccess(idx int, k memKind, data host.Reg) {
	em.memAccess(idx, k, data, guest.MemRef{Base: guest.ESP})
}

// exitTo emits a patchable exit stub to a static guest target. The exit's
// id is the slot it takes in Engine.exits when the unit commits.
func (em *emitter) exitTo(target uint32) {
	id := uint32(len(em.e.exits) + len(em.b.exits))
	em.b.exits = append(em.b.exits, &exit{id: id, from: em.b, targetGuest: target, hostPC: em.a.PC()})
	em.a.Brk(svcExitBase + id)
}

// condBranch materializes the pending flags for cond and emits a host
// branch to label when the condition holds.
func (em *emitter) condBranch(cond guest.Cond, label host.Label) error {
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

// cmpPlans maps a condition after CMP a, b to the host op computing it
// and the branch on its result; S/NS test the sign of a-b.
var cmpPlans = [...]struct{ op, branch host.Op }{
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
	guest.S:  {host.SUBL, host.BLT},
	guest.NS: {host.SUBL, host.BGE},
}

// cmpBranch handles conditions after CMP a, b: compare host ops on the
// sign-extended 64-bit register images preserve both signed and unsigned
// 32-bit ordering.
func (em *emitter) cmpBranch(cond guest.Cond, f flagState, label host.Label) error {
	if int(cond) >= len(cmpPlans) {
		return fmt.Errorf("core: unsupported condition %v after cmp", cond)
	}
	p := cmpPlans[cond]
	em.cmpWith(p.op, f, tmpCond)
	em.a.Br(p.branch, tmpCond, label)
	return nil
}

// zeroBranch handles conditions against a result value (flags from TEST or
// an ALU result): CF/OF are zero, so the condition reduces to a comparison
// of the 32-bit result with zero. afterTest permits the relational forms.
func (em *emitter) zeroBranch(cond guest.Cond, r host.Reg, label host.Label, afterTest bool) error {
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
func (em *emitter) inst(idx int) error {
	a := em.a
	u := &em.b.insts[idx]
	in := u.inst
	nextPC := u.pc + uint32(u.len)
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
			em.memAccess(idx, k, hostGPR(in.R1), in.Mem)
		}
		em.flags.note(in.R1)
	case guest.ST4, guest.ST2:
		k, _ := guestKind(in.Op)
		em.memAccess(idx, k, hostGPR(in.R1), in.Mem)
	case guest.ST1:
		base, disp := em.addressing(in.Mem, 1)
		a.Mem(host.STB, hostGPR(in.R1), disp, base)
	case guest.FLD8:
		em.memAccess(idx, kindFLD8, hostFR(in.FR1), in.Mem)
	case guest.FST8:
		em.memAccess(idx, kindFST8, hostFR(in.FR1), in.Mem)

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
		top, done := a.NewLabel(), a.NewLabel()
		a.Bind(top)
		a.Br(host.BEQ, ecx, done)
		em.memAccessSub(idx, 0, kindLD4, tmpImm, guest.MemRef{Base: guest.ESI})
		em.memAccessSub(idx, 1, kindST4, tmpImm, guest.MemRef{Base: guest.EDI})
		a.Mem(host.LDA, esi, 4, esi)
		a.Mem(host.LDA, edi, 4, edi)
		a.OprLit(host.SUBL, ecx, 1, ecx)
		a.Br(host.BR, host.Zero, top)
		a.Bind(done)
		em.flags.note(guest.ECX)
		em.flags.note(guest.ESI)
		em.flags.note(guest.EDI)

	case guest.JMP:
		if u.edge.folded {
			break // trace-internal: fall through into the next trace block
		}
		em.exitTo(nextPC + uint32(in.Rel))
	case guest.JCC:
		if edge := u.edge; edge.folded {
			// Trace-internal conditional: branch to the cold side exit and
			// fall through along the hot path.
			cond := in.Cond
			if edge.invert {
				cond = cond.Inverse()
			}
			side := a.NewLabel()
			if err := em.condBranch(cond, side); err != nil {
				return err
			}
			em.sideExits = append(em.sideExits, sideExit{label: side, target: edge.sideTarget})
			break
		}
		taken := a.NewLabel()
		if err := em.condBranch(in.Cond, taken); err != nil {
			return err
		}
		em.exitTo(nextPC) // fallthrough
		a.Bind(taken)
		em.exitTo(nextPC + uint32(in.Rel))
	case guest.CALL:
		esp := hostGPR(guest.ESP)
		a.MovImm(tmpImm, int64(nextPC))
		a.Mem(host.LDA, esp, -4, esp)
		em.stackAccess(idx, kindST4, tmpImm)
		em.exitTo(nextPC + uint32(in.Rel))
	case guest.RET:
		esp := hostGPR(guest.ESP)
		em.stackAccess(idx, kindLD4, tmpIndirect)
		a.Mem(host.LDA, esp, 4, esp)
		if em.e.Opt.IBTC {
			// Inline indirect-branch translation cache probe: on a tag hit
			// jump straight to the cached host entry, otherwise fall back
			// to the monitor (which fills the entry).
			miss := a.NewLabel()
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
			a.Bind(miss)
		}
		a.Brk(svcIndirect)
	case guest.PUSH:
		esp := hostGPR(guest.ESP)
		a.Mem(host.LDA, esp, -4, esp)
		em.stackAccess(idx, kindST4, hostGPR(in.R1))
	case guest.POP:
		esp := hostGPR(guest.ESP)
		em.stackAccess(idx, kindLD4, hostGPR(in.R1))
		a.Mem(host.LDA, esp, 4, esp)
		em.flags.note(in.R1)

	default:
		return fmt.Errorf("core: translate: unhandled guest op %v", in.Op)
	}
	return nil
}

// emitRange emits the instructions in [from, to). The words emitted so far
// keep the instruction they were emitted under; later ones name idx.
func (em *emitter) emitRange(from, to int) error {
	for idx := from; idx < to; idx++ {
		em.through(em.a.Len() - 1)
		em.cur = int16(idx)
		if err := em.inst(idx); err != nil {
			return err
		}
	}
	return nil
}

// syntheticExit emits the fallthrough exit a unit needs when its final
// instruction does not branch (split at maxBlockInsts).
func (em *emitter) syntheticExit() {
	b := em.b
	if last := len(b.insts) - 1; last < 0 || !b.insts[last].inst.Op.EndsBlock() {
		cont := b.guestPC
		if last >= 0 {
			cont = b.insts[last].pc + uint32(b.insts[last].len)
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
			if b.insts[idx].pol == policy.Mixed {
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
		in := b.insts[split].inst
		k, _ := guestKind(in.Op)
		m := in.Mem
		if !in.Op.IsExplicitMem() {
			m = guest.MemRef{Base: guest.ESP}
		}
		size := k.info().size
		base, disp := em.addressing(m, size)
		v2 := em.a.NewLabel()
		em.a.Mem(host.LDA, tmpCond, disp, base)
		em.a.OprLit(host.AND, tmpCond, uint8(size-1), tmpCond)
		em.a.Br(host.BNE, tmpCond, v2)
		savedFlags := em.flags
		// Optimistic copy: mixed sites as plain operations. The guard only
		// checked the first site, so the others may still trap — the
		// exception handler covers them, preserving correctness.
		em.mvActive, em.mvPolicy = true, policy.Plain
		if err := em.emitRange(split, len(b.insts)); err != nil {
			return err
		}
		em.syntheticExit()
		// Pessimistic copy: mixed sites as MDA sequences.
		em.a.Bind(v2)
		em.flags = savedFlags
		em.mvPolicy = policy.Seq
		if err := em.emitRange(split, len(b.insts)); err != nil {
			return err
		}
		em.syntheticExit()
		em.mvActive = false
	}
	// Deferred trace side exits.
	for _, se := range em.sideExits {
		em.a.Bind(se.label)
		em.exitTo(se.target)
	}
	return nil
}

// sitePolicies decides the translation policy of every memory site in the
// unit by assembling a SiteCtx snapshot per site (trap history, train
// profile, interpretation profile, adaptive reversion, static-analysis
// verdict) and asking the engine's policy. It records each decision,
// verdict and adaptive streak counter in the site's unitInst and reports
// whether any site is mixed; everything mechanism-specific lives in the
// policy. st is the per-PC state at the unit's start.
func (e *Engine) sitePolicies(b *block, st *pcState) (anyMixed bool, err error) {
	for idx := range b.insts {
		u := &b.insts[idx]
		if _, isMem := guestKind(u.inst.Op); !isMem {
			continue
		}
		ctx := policy.SiteCtx{
			GuestPC:      u.pc,
			KnownMDA:     u.knownMDA,
			StaticMarked: e.Opt.StaticSites[u.pc],
		}
		if s := e.dec.profAt(u.pc); s != nil {
			ctx.ProfMDA, ctx.ProfAligned = s.MDA, s.Aligned
		}
		ctx.Reverted = st.reverted.has(idx)
		if e.Opt.StaticAlign {
			// Whole-instruction verdicts feed the policy's StaticAlign step;
			// the engine records them for dumps/verifier, and translate
			// counts them into the stats when the unit commits. Unknown
			// (and mixed-stream) sites keep the base mechanism's decision;
			// memAccessSub further refines per access stream.
			u.verdict = e.alignDB.InstVerdict(u.pc, u.inst.Op)
			ctx.AlignVerdict = u.verdict
		}
		u.pol = e.pol.Site(ctx)
		switch u.pol {
		case policy.Mixed:
			anyMixed = true
		case policy.Adaptive:
			if u.counter, err = e.allocCounter(); err != nil {
				return false, err
			}
		}
	}
	return anyMixed, nil
}

// translate translates the unit at guest pc — a basic block, or a trace of
// blocks when superblock formation applies — consuming the interpretation
// profile. It registers the unit, writes its code into the machine, and
// charges translation cost at perInst cycles per guest instruction.
func (e *Engine) translate(pc uint32, perInst uint64) (*block, error) {
	if e.Opt.FaultPlan.Should(faultinject.Translate) {
		return nil, errInjectedTranslate
	}
	units, err := e.decodeBlock(e.unitBuf[:0], pc)
	if err != nil {
		return nil, err
	}
	nblocks := 1
	if e.Opt.Superblocks && (e.pol.Interp || e.Opt.AOT) {
		if units, nblocks, err = e.formTrace(units); err != nil {
			return nil, err
		}
	}
	e.unitBuf = units
	b := &block{guestPC: pc, insts: slices.Clone(units), nblocks: nblocks}
	for _, u := range b.insts {
		b.guestLen += uint32(u.len)
	}
	// Retranslations inherit the accumulated trap-discovered MDA sites
	// (§IV-C) so the new code inlines their sequences.
	st := e.dec.state(pc)
	for idx := range b.insts {
		b.insts[idx].knownMDA = st.retained.has(idx)
	}
	// From here on the unit stages everything it takes — streak counters,
	// exits, adaptive refs — until its allocation succeeds, so a unit that
	// fails (counter region full, emission error, full cache, injected
	// allocation fault) registers nothing and hands its counters back.
	counterMark := e.counterNext
	fail := func(err error) (*block, error) {
		e.counterNext = counterMark
		return nil, err
	}
	if b.twoVer, err = e.sitePolicies(b, st); err != nil {
		return fail(err)
	}
	// Emit once, at the address the block zone's bump allocator hands out
	// next.
	base := e.cc.blockNext
	a := &e.asm
	a.Reset(base)
	em := &emitter{e: e, a: a, b: b, base: base, words: e.wordBuf[:0], cur: noInst}
	err = em.body()
	em.through(a.Len() - 1)
	e.wordBuf = em.words
	if err != nil {
		return fail(err)
	}
	words, err := a.Finish()
	if err != nil {
		return fail(err)
	}
	size := uint64(len(words)) * host.InstBytes
	addr, err := e.cc.allocBlock(size)
	if err != nil {
		return fail(err) // engine flushes and retries
	}
	if addr != base {
		return fail(fmt.Errorf("core: translate %#x: emitted at %#x but allocated %#x", pc, base, addr))
	}
	// Commit point: the unit is in the cache, so register it.
	b.hostEntry = addr
	b.hostSize = size
	b.words = slices.Clone(em.words)
	e.Mach.WriteCode(addr, words)
	e.exits = append(e.exits, b.exits...)
	e.adaptives = append(e.adaptives, em.adaptives...)
	e.stats.AdaptiveSites += uint64(len(em.adaptives))
	if e.Opt.StaticAlign {
		for _, u := range b.insts {
			if _, isMem := guestKind(u.inst.Op); !isMem {
				continue
			}
			switch u.verdict {
			case align.Aligned:
				e.stats.StaticAlignedSites++
			case align.Misaligned:
				e.stats.StaticMisalignedSites++
			default:
				e.stats.StaticUnknownSites++
			}
		}
	}
	st.blk = b
	e.blockSpans = append(e.blockSpans, blockSpan{lo: addr, hi: addr + size, b: b})
	if e.events != nil {
		e.event(EvTranslate, pc, addr, fmt.Sprintf("%d insts, %d blocks", len(b.insts), nblocks))
	}
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
		cost := translateFixedCycles + perInst*uint64(len(b.insts))
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

// formTrace extends the decoded block in units into a trace (superblock
// formation — the "retranslate and further optimize" phase the paper's
// two-phase framework describes): it appends each successor block's
// records and marks the folded terminator's edge. With an interpretation
// profile the trace follows each block's dominant successor. The
// profile-less AOT tier follows only edges taken on every execution —
// direct jumps and block splits (a block cut short because another block
// starts at its fall-through); a conditional branch ends its trace, since
// without a profile there is no dominant arm to speculate on, and folding
// the wrong one would pessimize the straight-line layout AOT exists to
// provide. It returns the records and the number of blocks folded.
func (e *Engine) formTrace(units []unitInst) ([]unitInst, int, error) {
	var heads [maxTraceBlocks]uint32
	heads[0] = units[0].pc
	nblocks := 1
	for nblocks < maxTraceBlocks && len(units) < maxTraceInsts {
		last := len(units) - 1
		term := units[last].inst
		termNext := units[last].pc + uint32(units[last].len)
		var next uint32
		ok := true
		switch {
		case e.pol.Interp:
			next, ok = e.dominantSuccessor(heads[nblocks-1])
		case term.Op == guest.JMP:
			next = termNext + uint32(term.Rel)
		case term.Op.EndsBlock():
			ok = false
		default:
			next = termNext // block split: fall-through is unconditional
		}
		if !ok || slices.Contains(heads[:nblocks], next) {
			break
		}
		edge, ok := foldEdge(term, termNext, next)
		if !ok {
			break
		}
		n := len(units)
		var err error
		if units, err = e.decodeBlock(units, next); err != nil {
			return nil, 0, err
		}
		if len(units) > maxTraceInsts {
			units = units[:n]
			break
		}
		units[last].edge = edge
		heads[nblocks] = next
		nblocks++
	}
	return units, nblocks, nil
}

// foldEdge returns how the terminator term, whose fall-through address is
// termNext, is emitted when the trace continues at next. ok is false when
// term cannot lead to next inside a trace.
func foldEdge(term guest.Inst, termNext, next uint32) (edge traceEdge, ok bool) {
	switch term.Op {
	case guest.JMP:
		return traceEdge{folded: true}, termNext+uint32(term.Rel) == next
	case guest.JCC:
		switch taken := termNext + uint32(term.Rel); next {
		case taken:
			return traceEdge{folded: true, invert: true, sideTarget: termNext}, true
		case termNext:
			return traceEdge{folded: true, sideTarget: taken}, true
		}
		return traceEdge{}, false
	}
	// A block split, whose successor already follows fall-through; CALL/
	// RET/HALT terminators end the trace.
	return traceEdge{}, !term.Op.EndsBlock() && termNext == next
}

// dominantSuccessor consults the interpretation profile for the block's
// overwhelmingly common successor.
func (e *Engine) dominantSuccessor(pc uint32) (uint32, bool) {
	st := e.dec.stateAt(pc)
	if st == nil || len(st.succ) == 0 {
		return 0, false
	}
	var total, best uint64
	var bestPC uint32
	for next, n := range st.succ {
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

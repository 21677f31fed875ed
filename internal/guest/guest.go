// Package guest defines the source ISA of the binary translator: a 32-bit
// x86-like CISC with no alignment restrictions on data accesses.
//
// The ISA keeps the properties of IA-32 that matter to the paper — eight
// 32-bit GPRs in the EAX..EDI order, an EFLAGS condition-code model driven
// by CMP/TEST, base+index*scale+disp addressing, variable-length
// (opcode/modrm/sib/disp/imm) instruction encoding, PUSH/POP/CALL/RET stack
// traffic, and byte/word/longword/quadword memory operands that may be
// misaligned. Quadword accesses go through a small 64-bit register file
// (F0..F3) standing in for the x87/SSE registers whose 8-byte loads and
// stores produce most of the FP benchmarks' MDAs (Table I).
//
// Two deliberate simplifications, documented here and in DESIGN.md: ALU
// operations are register/register or register/immediate (no read-modify-
// write memory operands — a front-end RISCification every real DBT performs
// anyway), and a conditional branch must be dominated by a CMP/TEST in its
// own basic block (the translator materializes the condition from that
// comparison, sidestepping lazy-flags machinery that is orthogonal to MDA
// handling).
//
// CPU holds the architectural state, and Code.Run (exec.go) is the one
// copy of the ISA's semantics: a straight-line executor over a decode
// table whose slots hold instructions lowered to a fused op × address-form
// kind. It counts instructions, data references and MDAs per run and
// tallies each site's alignment profile in its slot. Exec runs one
// instruction through it and reports its data accesses; Step decodes at
// EIP and calls Exec. On armed memory every fetch and data access is
// checked first, so a fault leaves the CPU in its pre-instruction state.
package guest

import "fmt"

// Reg is a guest general-purpose 32-bit register.
type Reg uint8

// GPRs in IA-32 numbering.
const (
	EAX Reg = iota
	ECX
	EDX
	EBX
	ESP
	EBP
	ESI
	EDI
	// NumRegs is the number of guest GPRs.
	NumRegs = 8
)

var regNames = [NumRegs]string{"eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi"}

// String returns the IA-32 register name.
func (r Reg) String() string {
	if int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("r?%d", uint8(r))
}

// FReg is a guest 64-bit register (x87/SSE stand-in).
type FReg uint8

// Quadword registers.
const (
	F0 FReg = iota
	F1
	F2
	F3
	// NumFRegs is the number of guest quadword registers.
	NumFRegs = 4
)

// String returns the register name.
func (f FReg) String() string { return fmt.Sprintf("f%d", uint8(f)) }

// Cond is an IA-32 condition code.
type Cond uint8

// Condition codes.
const (
	E  Cond = iota // equal (ZF)
	NE             // not equal
	L              // signed less (SF != OF)
	LE             // signed less-or-equal
	G              // signed greater
	GE             // signed greater-or-equal
	B              // unsigned below (CF)
	BE             // unsigned below-or-equal
	A              // unsigned above
	AE             // unsigned above-or-equal
	S              // sign (SF)
	NS             // not sign
	numConds
)

var condNames = [numConds]string{"e", "ne", "l", "le", "g", "ge", "b", "be", "a", "ae", "s", "ns"}

// Inverse returns the negated condition (E↔NE, L↔GE, …), used by the
// translator's trace formation to fall through along the hot path.
func (c Cond) Inverse() Cond {
	switch c {
	case E:
		return NE
	case NE:
		return E
	case L:
		return GE
	case GE:
		return L
	case LE:
		return G
	case G:
		return LE
	case B:
		return AE
	case AE:
		return B
	case BE:
		return A
	case A:
		return BE
	case S:
		return NS
	case NS:
		return S
	}
	return c
}

// String returns the condition suffix ("e", "ne", ...).
func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("cc?%d", uint8(c))
}

// Op is a guest semantic opcode.
type Op uint8

// Guest opcodes.
const (
	NOP Op = iota
	HALT

	MOVri // r1 = imm
	MOVrr // r1 = r2
	LEA   // r1 = &mem

	LD4  // r1 = *(int32*)mem
	LD2Z // r1 = zext *(uint16*)mem
	LD2S // r1 = sext *(int16*)mem
	LD1Z // r1 = zext *(uint8*)mem
	LD1S // r1 = sext *(int8*)mem
	ST4  // *(int32*)mem = r1
	ST2  // *(int16*)mem = r1 (low 16 bits)
	ST1  // *(int8*)mem = r1 (low 8 bits)
	FLD8 // f1 = *(uint64*)mem
	FST8 // *(uint64*)mem = f1

	ADDrr // r1 += r2 (sets ZF/SF/CF/OF)
	SUBrr
	ANDrr // sets ZF/SF, clears CF/OF
	ORrr
	XORrr
	IMULrr // flags unchanged (defined-as-preserved; see package doc)
	CMPrr  // flags from r1 - r2
	TESTrr // flags from r1 & r2
	ADDri
	SUBri
	ANDri
	ORri
	XORri
	IMULri
	CMPri
	SHLri // r1 <<= imm&31; flags unchanged
	SHRri
	SARri
	FADDrr // f1 += f2 (64-bit two's-complement; flags unchanged)
	FMOVrr // f1 = f2

	JMP  // relative
	JCC  // conditional relative
	CALL // push return address, jump relative
	RET  // pop target
	PUSH // push r1
	POP  // pop into r1

	// REPMOVS4 copies ECX dwords from [ESI] to [EDI] (x86 `rep movsd`,
	// the memcpy idiom behind much of §II's shared-library MDA traffic).
	// Architecturally it iterates: each step copies one dword, advances
	// ESI/EDI by 4, decrements ECX, and leaves EIP in place until ECX
	// reaches zero — so it is interruptible, exactly like the real
	// instruction. Flags are unaffected.
	REPMOVS4

	numOps
)

var opNames = [numOps]string{
	"nop", "halt",
	"mov", "mov", "lea",
	"mov", "movzx", "movsx", "movzx", "movsx",
	"mov", "mov", "mov", "fld", "fst",
	"add", "sub", "and", "or", "xor", "imul", "cmp", "test",
	"add", "sub", "and", "or", "xor", "imul", "cmp", "shl", "shr", "sar",
	"fadd", "fmov",
	"jmp", "j", "call", "ret", "push", "pop",
	"rep movsd",
}

// String returns the IA-32-flavored mnemonic.
func (op Op) String() string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	return fmt.Sprintf("op?%d", uint8(op))
}

// MemRef is a guest memory operand: base + index*scale + disp.
type MemRef struct {
	Base     Reg
	Index    Reg
	HasIndex bool
	Scale    uint8 // 1, 2, 4, or 8
	Disp     int32
}

func (m MemRef) String() string {
	s := "["
	s += m.Base.String()
	if m.HasIndex {
		s += fmt.Sprintf("+%s*%d", m.Index, m.Scale)
	}
	if m.Disp != 0 {
		s += fmt.Sprintf("%+d", m.Disp)
	}
	return s + "]"
}

// Inst is one decoded guest instruction.
type Inst struct {
	Op   Op
	R1   Reg  // first GPR operand (dst for loads/ALU, src for stores)
	R2   Reg  // second GPR operand
	FR1  FReg // first quadword operand
	FR2  FReg // second quadword operand
	kind kind // lowered form for the executor (exec.go); zero until lowered
	Mem  MemRef
	Imm  int32 // immediate
	Cond Cond  // JCC condition
	Rel  int32 // branch displacement relative to the next instruction
}

// Operand layout classes.
type layout uint8

const (
	layNone layout = iota
	layR           // one GPR
	layRR          // two GPRs
	layRI          // GPR + imm32
	layRM          // GPR + mem
	layMR          // mem + GPR
	layFM          // FReg + mem
	layMF          // mem + FReg
	layFF          // two FRegs
	layRel         // rel32
	layCondRel
)

// memKind says how an op forms the address of its data access.
type memKind uint8

const (
	memNone     memKind = iota // no data access
	memExplicit                // the MemRef operand
	memPush                    // ESP-4 (PUSH, CALL)
	memPop                     // ESP (POP, RET)
	memCopy                    // ESI, then EDI (REPMOVS4)
)

// opFacts holds one op's static facts: its operand layout and, for the ops
// that touch data memory, how the address is formed, the access size and
// its direction. Exec, the encoder, the decoder and the Op predicates all
// read them from opTable.
type opFacts struct {
	lay         layout
	mem         memKind
	size        uint8 // bytes per data access; 0 for non-memory ops
	load, store bool  // reads / writes data memory (REPMOVS4 does both: load first)
	branch      bool  // transfers control (ends a basic block)
	setsFlags   bool  // defines the EFLAGS condition codes the translator consumes
	kind        kind  // lowered kind; a MemRef op's base form
}

// opTable has one row per Op value, so indexing it by an Op needs no
// bounds check; rows past the last op are zero (no layout, no access).
var opTable = [256]opFacts{
	NOP:   {lay: layNone, kind: kNOP},
	HALT:  {lay: layNone, branch: true, kind: kHALT},
	MOVri: {lay: layRI, kind: kMOVri},
	MOVrr: {lay: layRR, kind: kMOVrr},
	LEA:   {lay: layRM, kind: kLEA},

	LD4:  {lay: layRM, mem: memExplicit, size: 4, load: true, kind: kLD4},
	LD2Z: {lay: layRM, mem: memExplicit, size: 2, load: true, kind: kLD2Z},
	LD2S: {lay: layRM, mem: memExplicit, size: 2, load: true, kind: kLD2S},
	LD1Z: {lay: layRM, mem: memExplicit, size: 1, load: true, kind: kLD1Z},
	LD1S: {lay: layRM, mem: memExplicit, size: 1, load: true, kind: kLD1S},
	ST4:  {lay: layMR, mem: memExplicit, size: 4, store: true, kind: kST4},
	ST2:  {lay: layMR, mem: memExplicit, size: 2, store: true, kind: kST2},
	ST1:  {lay: layMR, mem: memExplicit, size: 1, store: true, kind: kST1},
	FLD8: {lay: layFM, mem: memExplicit, size: 8, load: true, kind: kFLD8},
	FST8: {lay: layMF, mem: memExplicit, size: 8, store: true, kind: kFST8},

	ADDrr:  {lay: layRR, setsFlags: true, kind: kADDrr},
	SUBrr:  {lay: layRR, setsFlags: true, kind: kSUBrr},
	ANDrr:  {lay: layRR, setsFlags: true, kind: kANDrr},
	ORrr:   {lay: layRR, setsFlags: true, kind: kORrr},
	XORrr:  {lay: layRR, setsFlags: true, kind: kXORrr},
	IMULrr: {lay: layRR, kind: kIMULrr},
	CMPrr:  {lay: layRR, setsFlags: true, kind: kCMPrr},
	TESTrr: {lay: layRR, setsFlags: true, kind: kTESTrr},
	ADDri:  {lay: layRI, setsFlags: true, kind: kADDri},
	SUBri:  {lay: layRI, setsFlags: true, kind: kSUBri},
	ANDri:  {lay: layRI, setsFlags: true, kind: kANDri},
	ORri:   {lay: layRI, setsFlags: true, kind: kORri},
	XORri:  {lay: layRI, setsFlags: true, kind: kXORri},
	IMULri: {lay: layRI, kind: kIMULri},
	CMPri:  {lay: layRI, setsFlags: true, kind: kCMPri},
	SHLri:  {lay: layRI, kind: kSHLri},
	SHRri:  {lay: layRI, kind: kSHRri},
	SARri:  {lay: layRI, kind: kSARri},
	FADDrr: {lay: layFF, kind: kFADDrr},
	FMOVrr: {lay: layFF, kind: kFMOVrr},

	JMP:  {lay: layRel, branch: true, kind: kJMP},
	JCC:  {lay: layCondRel, branch: true, kind: kJCC},
	CALL: {lay: layRel, mem: memPush, size: 4, store: true, branch: true, kind: kCALL},
	RET:  {lay: layNone, mem: memPop, size: 4, load: true, branch: true, kind: kRET},
	PUSH: {lay: layR, mem: memPush, size: 4, store: true, kind: kPUSH},
	POP:  {lay: layR, mem: memPop, size: 4, load: true, kind: kPOP},

	REPMOVS4: {lay: layNone, mem: memCopy, size: 4, load: true, store: true, kind: kREPMOVS4},
}

// MemSize returns the memory access size in bytes of op, or 0 for
// non-memory ops. PUSH/POP/CALL/RET access the stack with 4-byte operands.
func (op Op) MemSize() int { return int(opTable[op].size) }

// IsLoad reports whether op reads data memory.
func (op Op) IsLoad() bool { return opTable[op].load }

// IsStore reports whether op writes data memory.
func (op Op) IsStore() bool { return opTable[op].store }

// IsExplicitMem reports whether op carries a MemRef operand (loads/stores
// other than the implicit stack accesses).
func (op Op) IsExplicitMem() bool { return opTable[op].mem == memExplicit }

// IsBranch reports whether op transfers control.
func (op Op) IsBranch() bool { return opTable[op].branch }

// EndsBlock reports whether op terminates a basic block.
func (op Op) EndsBlock() bool { return op.IsBranch() }

// SetsFlags reports whether op defines the EFLAGS condition codes the
// translator consumes.
func (op Op) SetsFlags() bool { return opTable[op].setsFlags }

// Layout returns the operand layout class (used by the encoder/decoder and
// the assembler's operand validation).
func (op Op) Layout() int { return int(opTable[op].lay) }

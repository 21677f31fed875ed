package host

import "fmt"

// Binary encoding follows the Alpha AXP instruction formats:
//
//	PAL:     opcode<31:26> payload<25:0>
//	Memory:  opcode<31:26> ra<25:21> rb<20:16> disp<15:0>
//	Operate: opcode<31:26> ra<25:21> rb<20:16> sbz<15:13> 0<12> func<11:5> rc<4:0>
//	         opcode<31:26> ra<25:21> lit<20:13>           1<12> func<11:5> rc<4:0>
//	Branch:  opcode<31:26> ra<25:21> disp<20:0>  (longword-scaled)
//	Jump:    opcode<31:26> ra<25:21> rb<20:16> type<15:14> hint<13:0>
//
// Primary opcode and function code assignments use the real Alpha values so
// that disassemblies read like Alpha code.

type encoding struct {
	opcode uint32 // primary opcode <31:26>
	fn     uint32 // operate function <11:5>, or jump type <15:14>
}

// encodings is the one opcode assignment list, indexed by Op: Encode reads
// it directly, and init derives Decode's tables from it.
var encodings = [numOps]encoding{
	BRKBT: {0x00, 0},
	LDA:   {0x08, 0}, LDAH: {0x09, 0},
	LDBU: {0x0A, 0}, LDQU: {0x0B, 0}, LDWU: {0x0C, 0},
	STW: {0x0D, 0}, STB: {0x0E, 0}, STQU: {0x0F, 0},
	LDL: {0x28, 0}, LDQ: {0x29, 0}, STL: {0x2C, 0}, STQ: {0x2D, 0},

	ADDL: {0x10, 0x00}, SUBL: {0x10, 0x09}, ADDQ: {0x10, 0x20}, SUBQ: {0x10, 0x29},
	CMPULT: {0x10, 0x1D}, CMPEQ: {0x10, 0x2D}, CMPULE: {0x10, 0x3D},
	CMPLT: {0x10, 0x4D}, CMPLE: {0x10, 0x6D},

	AND: {0x11, 0x00}, BIC: {0x11, 0x08}, BIS: {0x11, 0x20},
	ORNOT: {0x11, 0x28}, XOR: {0x11, 0x40}, EQV: {0x11, 0x48},

	MSKBL: {0x12, 0x02}, EXTBL: {0x12, 0x06}, INSBL: {0x12, 0x0B},
	MSKWL: {0x12, 0x12}, EXTWL: {0x12, 0x16}, INSWL: {0x12, 0x1B},
	MSKLL: {0x12, 0x22}, EXTLL: {0x12, 0x26}, INSLL: {0x12, 0x2B},
	MSKQL: {0x12, 0x32}, EXTQL: {0x12, 0x36}, INSQL: {0x12, 0x3B},
	SRL: {0x12, 0x34}, SLL: {0x12, 0x39}, SRA: {0x12, 0x3C},
	MSKWH: {0x12, 0x52}, INSWH: {0x12, 0x57}, EXTWH: {0x12, 0x5A},
	MSKLH: {0x12, 0x62}, INSLH: {0x12, 0x67}, EXTLH: {0x12, 0x6A},
	MSKQH: {0x12, 0x72}, INSQH: {0x12, 0x77}, EXTQH: {0x12, 0x7A},

	MULL: {0x13, 0x00}, MULQ: {0x13, 0x20},

	JMP: {0x1A, 0}, JSR: {0x1A, 1}, RET: {0x1A, 2},

	BR: {0x30, 0}, BSR: {0x34, 0},
	BLBC: {0x38, 0}, BEQ: {0x39, 0}, BLT: {0x3A, 0}, BLE: {0x3B, 0},
	BLBS: {0x3C, 0}, BNE: {0x3D, 0}, BGE: {0x3E, 0}, BGT: {0x3F, 0},
}

// The decode tables map an instruction's fields back to its Op, so Decode
// makes array reads only: primaryOp by primary opcode (the PAL, memory and
// branch formats), oprOp by operate opcode (0x10-0x13) and function, jmpOp
// by jump type. An unassigned encoding holds noOp.
const (
	oprBase = 0x10 // the first operate-format primary opcode
	jmpOpc  = 0x1A // the jump-format primary opcode
	noOp    = numOps
)

var (
	primaryOp [64]Op
	oprOp     [4][128]Op
	jmpOp     [4]Op
)

func init() {
	for i := range primaryOp {
		primaryOp[i] = noOp
	}
	for i := range oprOp {
		for j := range oprOp[i] {
			oprOp[i][j] = noOp
		}
	}
	for i := range jmpOp {
		jmpOp[i] = noOp
	}
	for op := Op(0); op < numOps; op++ {
		e := encodings[op]
		if e.opcode == 0 && op != BRKBT {
			panic(fmt.Sprintf("host: %v has no encoding", op))
		}
		slot := &primaryOp[e.opcode]
		switch FormatOf(op) {
		case FormatOpr:
			slot = &oprOp[e.opcode-oprBase][e.fn]
		case FormatJmp:
			slot = &jmpOp[e.fn]
		}
		if *slot != noOp {
			panic(fmt.Sprintf("host: %v and %v share an encoding", op, *slot))
		}
		*slot = op
	}
}

// Encode encodes one instruction into a 32-bit word. It returns an error for
// out-of-range fields so callers (the translator, the assembler) can surface
// emission bugs instead of silently corrupting code.
func Encode(i Inst) (uint32, error) {
	if i.Op >= numOps {
		return 0, fmt.Errorf("host: encode: unknown op %v", i.Op)
	}
	e := encodings[i.Op]
	if i.Ra >= NumRegs || i.Rb >= NumRegs || i.Rc >= NumRegs {
		return 0, fmt.Errorf("host: encode %v: register out of range", i.Op)
	}
	w := e.opcode << 26
	switch FormatOf(i.Op) {
	case FormatPAL:
		if i.Payload >= 1<<26 {
			return 0, fmt.Errorf("host: encode brkbt: payload %#x exceeds 26 bits", i.Payload)
		}
		return w | i.Payload, nil
	case FormatMem:
		if i.Disp < -(1<<15) || i.Disp >= 1<<15 {
			return 0, fmt.Errorf("host: encode %v: displacement %d exceeds 16 bits", i.Op, i.Disp)
		}
		return w | uint32(i.Ra)<<21 | uint32(i.Rb)<<16 | uint32(uint16(int16(i.Disp))), nil
	case FormatOpr:
		w |= uint32(i.Ra)<<21 | e.fn<<5 | uint32(i.Rc)
		if i.IsLit {
			return w | uint32(i.Lit)<<13 | 1<<12, nil
		}
		return w | uint32(i.Rb)<<16, nil
	case FormatBra:
		if i.Disp < -(1<<20) || i.Disp >= 1<<20 {
			return 0, fmt.Errorf("host: encode %v: displacement %d exceeds 21 bits", i.Op, i.Disp)
		}
		return w | uint32(i.Ra)<<21 | uint32(i.Disp)&0x1FFFFF, nil
	case FormatJmp:
		return w | uint32(i.Ra)<<21 | uint32(i.Rb)<<16 | e.fn<<14, nil
	}
	return 0, fmt.Errorf("host: encode: unhandled format for %v", i.Op)
}

// MustEncode encodes i and panics on error. For use with
// compile-time-constant instruction shapes.
func MustEncode(i Inst) uint32 {
	w, err := Encode(i)
	if err != nil {
		panic(err)
	}
	return w
}

// Decode decodes one 32-bit instruction word.
func Decode(w uint32) (Inst, error) {
	opcode := w >> 26
	switch opcode {
	case oprBase, oprBase + 1, oprBase + 2, oprBase + 3:
		fn := w >> 5 & 0x7F
		op := oprOp[opcode-oprBase][fn]
		if op == noOp {
			return Inst{}, fmt.Errorf("host: decode %#08x: unknown operate function %#x", w, fn)
		}
		i := Inst{Op: op, Ra: Reg(w >> 21 & 31), Rc: Reg(w & 31)}
		if w>>12&1 == 1 {
			i.IsLit = true
			i.Lit = uint8(w >> 13)
		} else {
			i.Rb = Reg(w >> 16 & 31)
		}
		return i, nil
	case jmpOpc:
		op := jmpOp[w>>14&3]
		if op == noOp {
			return Inst{}, fmt.Errorf("host: decode %#08x: unknown jump type", w)
		}
		return Inst{Op: op, Ra: Reg(w >> 21 & 31), Rb: Reg(w >> 16 & 31)}, nil
	}
	op := primaryOp[opcode]
	switch {
	case op == noOp:
		return Inst{}, fmt.Errorf("host: decode %#08x: unknown opcode %#x", w, opcode)
	case op == BRKBT:
		return Inst{Op: BRKBT, Payload: w & 0x03FFFFFF}, nil
	case FormatOf(op) == FormatMem:
		return Inst{
			Op: op, Ra: Reg(w >> 21 & 31), Rb: Reg(w >> 16 & 31),
			Disp: int32(int16(w)),
		}, nil
	}
	d := int32(w & 0x1FFFFF)
	if d&(1<<20) != 0 {
		d -= 1 << 21 // sign-extend 21-bit field
	}
	return Inst{Op: op, Ra: Reg(w >> 21 & 31), Disp: d}, nil
}

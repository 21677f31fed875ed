package guest

import (
	"encoding/binary"
	"fmt"
)

// The guest encoding is x86-flavored variable-length:
//
//	opcode | [modrm] | [sib] | [disp8/disp32] | [imm32] | [cond] | [rel32]
//
// modrm: mode<7:6> reg<5:3> rm<2:0>. mode 11 means rm is a register
// operand; otherwise rm is the base register (rm=4 escapes to a SIB byte,
// as on IA-32, used when the base is ESP or an index is present), and mode
// selects no displacement (00), disp8 (01), or disp32 (10).
// sib: scale<7:6> (log2) index<5:3> base<2:0>; index=4 encodes "no index".

const (
	modeNoDisp = 0
	modeDisp8  = 1
	modeDisp32 = 2
	modeReg    = 3
	rmSIB      = 4
	sibNoIndex = 4
)

// MaxInstLen is the longest possible guest instruction encoding.
const MaxInstLen = 11

func modrm(mode, reg, rm uint8) byte { return mode<<6 | reg<<3 | rm }

// memNeedsSIB reports whether the memory operand requires a SIB byte.
func memNeedsSIB(m MemRef) bool { return m.HasIndex || m.Base == ESP }

func dispMode(m MemRef) uint8 {
	switch {
	case m.Disp == 0:
		return modeNoDisp
	case m.Disp >= -128 && m.Disp <= 127:
		return modeDisp8
	default:
		return modeDisp32
	}
}

func scaleBits(s uint8) (uint8, error) {
	switch s {
	case 1:
		return 0, nil
	case 2:
		return 1, nil
	case 4:
		return 2, nil
	case 8:
		return 3, nil
	}
	return 0, fmt.Errorf("guest: invalid scale %d", s)
}

// appendMem encodes a memory operand (modrm with the given reg field, plus
// sib/disp) into dst.
func appendMem(dst []byte, reg uint8, m MemRef) ([]byte, error) {
	if m.Base >= NumRegs || (m.HasIndex && m.Index >= NumRegs) {
		return nil, fmt.Errorf("guest: encode: memory operand register out of range")
	}
	if m.HasIndex && m.Index == ESP {
		return nil, fmt.Errorf("guest: encode: esp cannot be an index register")
	}
	mode := dispMode(m)
	if memNeedsSIB(m) {
		sc := uint8(0)
		idx := uint8(sibNoIndex)
		if m.HasIndex {
			var err error
			sc, err = scaleBits(m.Scale)
			if err != nil {
				return nil, err
			}
			idx = uint8(m.Index)
		}
		dst = append(dst, modrm(mode, reg, rmSIB), sc<<6|idx<<3|uint8(m.Base))
	} else {
		dst = append(dst, modrm(mode, reg, uint8(m.Base)))
	}
	switch mode {
	case modeDisp8:
		dst = append(dst, byte(int8(m.Disp)))
	case modeDisp32:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(m.Disp))
	}
	return dst, nil
}

// Encode appends the encoding of inst to dst and returns the extended slice.
func Encode(dst []byte, inst Inst) ([]byte, error) {
	if inst.Op >= numOps {
		return nil, fmt.Errorf("guest: encode: unknown op %d", uint8(inst.Op))
	}
	if inst.R1 >= NumRegs || inst.R2 >= NumRegs {
		return nil, fmt.Errorf("guest: encode %v: register out of range", inst.Op)
	}
	if inst.FR1 >= NumFRegs || inst.FR2 >= NumFRegs {
		return nil, fmt.Errorf("guest: encode %v: f-register out of range", inst.Op)
	}
	dst = append(dst, byte(inst.Op))
	var err error
	switch opTable[inst.Op].lay {
	case layNone:
	case layR:
		dst = append(dst, modrm(modeReg, uint8(inst.R1), 0))
	case layRR:
		dst = append(dst, modrm(modeReg, uint8(inst.R1), uint8(inst.R2)))
	case layRI:
		dst = append(dst, modrm(modeReg, uint8(inst.R1), 0))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(inst.Imm))
	case layRM:
		dst, err = appendMem(dst, uint8(inst.R1), inst.Mem)
	case layMR:
		dst, err = appendMem(dst, uint8(inst.R1), inst.Mem)
	case layFM:
		dst, err = appendMem(dst, uint8(inst.FR1), inst.Mem)
	case layMF:
		dst, err = appendMem(dst, uint8(inst.FR1), inst.Mem)
	case layFF:
		dst = append(dst, modrm(modeReg, uint8(inst.FR1), uint8(inst.FR2)))
	case layRel:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(inst.Rel))
	case layCondRel:
		if inst.Cond >= numConds {
			return nil, fmt.Errorf("guest: encode jcc: bad condition %d", uint8(inst.Cond))
		}
		dst = append(dst, byte(inst.Cond))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(inst.Rel))
	}
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// EncodedLen returns the encoding length of inst in bytes.
func EncodedLen(inst Inst) (int, error) {
	// Encoding into a scratch buffer keeps one source of truth for lengths.
	buf, err := Encode(make([]byte, 0, MaxInstLen), inst)
	if err != nil {
		return 0, err
	}
	return len(buf), nil
}

// Decode decodes one instruction from buf. It returns the instruction and
// its encoded length.
func Decode(buf []byte) (Inst, int, error) {
	if len(buf) == 0 {
		return Inst{}, 0, fmt.Errorf("guest: decode: empty buffer")
	}
	op := Op(buf[0])
	if op >= numOps {
		return Inst{}, 0, fmt.Errorf("guest: decode: unknown opcode %#x", buf[0])
	}
	inst := Inst{Op: op}
	pos := 1
	need := func(n int) error {
		if len(buf) < pos+n {
			return fmt.Errorf("guest: decode %v: truncated instruction", op)
		}
		return nil
	}
	readMem := func() (uint8, error) {
		if err := need(1); err != nil {
			return 0, err
		}
		mb := buf[pos]
		pos++
		mode, reg, rm := mb>>6, mb>>3&7, mb&7
		if mode == modeReg {
			return 0, fmt.Errorf("guest: decode %v: register mode in memory operand", op)
		}
		m := MemRef{}
		if rm == rmSIB {
			if err := need(1); err != nil {
				return 0, err
			}
			sib := buf[pos]
			pos++
			m.Base = Reg(sib & 7)
			idx := sib >> 3 & 7
			if idx != sibNoIndex {
				m.HasIndex = true
				m.Index = Reg(idx)
				m.Scale = 1 << (sib >> 6)
			}
		} else {
			m.Base = Reg(rm)
		}
		switch mode {
		case modeDisp8:
			if err := need(1); err != nil {
				return 0, err
			}
			m.Disp = int32(int8(buf[pos]))
			pos++
		case modeDisp32:
			if err := need(4); err != nil {
				return 0, err
			}
			m.Disp = int32(binary.LittleEndian.Uint32(buf[pos:]))
			pos += 4
		}
		inst.Mem = m
		return reg, nil
	}
	readImm := func() (int32, error) {
		if err := need(4); err != nil {
			return 0, err
		}
		v := int32(binary.LittleEndian.Uint32(buf[pos:]))
		pos += 4
		return v, nil
	}

	readRegModRM := func() (byte, error) {
		if err := need(1); err != nil {
			return 0, err
		}
		mb := buf[pos]
		pos++
		if mb>>6 != modeReg {
			return 0, fmt.Errorf("guest: decode %v: register operand requires mode 11", op)
		}
		return mb, nil
	}
	var err error
	switch opTable[op].lay {
	case layNone:
	case layR:
		var mb byte
		if mb, err = readRegModRM(); err == nil {
			if mb&7 != 0 {
				err = fmt.Errorf("guest: decode %v: rm field must be zero", op)
				break
			}
			inst.R1 = Reg(mb >> 3 & 7)
		}
	case layRR:
		var mb byte
		if mb, err = readRegModRM(); err == nil {
			inst.R1, inst.R2 = Reg(mb>>3&7), Reg(mb&7)
		}
	case layRI:
		var mb byte
		if mb, err = readRegModRM(); err == nil {
			if mb&7 != 0 {
				err = fmt.Errorf("guest: decode %v: rm field must be zero", op)
				break
			}
			inst.R1 = Reg(mb >> 3 & 7)
			inst.Imm, err = readImm()
		}
	case layRM, layMR:
		var reg uint8
		if reg, err = readMem(); err == nil {
			inst.R1 = Reg(reg)
		}
	case layFM, layMF:
		var reg uint8
		if reg, err = readMem(); err == nil {
			if reg >= NumFRegs {
				err = fmt.Errorf("guest: decode %v: f-register %d out of range", op, reg)
			}
			inst.FR1 = FReg(reg)
		}
	case layFF:
		var mb byte
		if mb, err = readRegModRM(); err == nil {
			f1, f2 := mb>>3&7, mb&7
			if f1 >= NumFRegs || f2 >= NumFRegs {
				err = fmt.Errorf("guest: decode %v: f-register out of range", op)
			}
			inst.FR1, inst.FR2 = FReg(f1), FReg(f2)
		}
	case layRel:
		inst.Rel, err = readImm()
	case layCondRel:
		if err = need(1); err == nil {
			if buf[pos] >= uint8(numConds) {
				err = fmt.Errorf("guest: decode jcc: bad condition %d", buf[pos])
			}
			inst.Cond = Cond(buf[pos])
			pos++
			if err == nil {
				inst.Rel, err = readImm()
			}
		}
	}
	if err != nil {
		return Inst{}, 0, err
	}
	return inst, pos, nil
}

package host

import "fmt"

// Pure operate-format semantics, shared by the machine simulator and the
// tests. All functions take and return 64-bit register values.

func sext32(v uint64) uint64 { return uint64(int64(int32(v))) }

// sizeMask returns the low-byte mask for an access size in bytes.
func sizeMask(size int) uint64 {
	if size >= 8 {
		return ^uint64(0)
	}
	return 1<<(8*size) - 1
}

// ExtLow implements EXT{B,W,L,Q}L: extract the low part of an unaligned
// datum. av is the quadword loaded by LDQ_U at the effective address; bv is
// the effective address (only bits <2:0> participate).
func ExtLow(av, bv uint64, size int) uint64 {
	return av >> (8 * (bv & 7)) & sizeMask(size)
}

// ExtHigh implements EXT{W,L,Q}H: extract the high part of an unaligned
// datum from the quadword covering its end. When the address is
// quadword-aligned the result is zero, so ORing low and high parts is
// correct for every alignment.
func ExtHigh(av, bv uint64, size int) uint64 {
	sh := 8 * (bv & 7)
	if sh == 0 {
		return 0
	}
	return av << (64 - sh) & sizeMask(size)
}

// InsLow implements INS{B,W,L,Q}L: position the low part of a value for an
// unaligned store into the quadword at the effective address.
func InsLow(av, bv uint64, size int) uint64 {
	return (av & sizeMask(size)) << (8 * (bv & 7))
}

// InsHigh implements INS{W,L,Q}H: position the high spill-over part of a
// value for an unaligned store into the following quadword.
func InsHigh(av, bv uint64, size int) uint64 {
	sh := 8 * (bv & 7)
	if sh == 0 {
		return 0
	}
	return (av & sizeMask(size)) >> (64 - sh)
}

// MskLow implements MSK{B,W,L,Q}L: clear the bytes of the low quadword that
// the unaligned store will overwrite.
func MskLow(av, bv uint64, size int) uint64 {
	return av &^ (sizeMask(size) << (8 * (bv & 7)))
}

// MskHigh implements MSK{W,L,Q}H: clear the bytes of the high quadword that
// the unaligned store will overwrite. When the address is quadword-aligned
// nothing spills, so the quadword is returned unchanged.
func MskHigh(av, bv uint64, size int) uint64 {
	sh := 8 * (bv & 7)
	if sh == 0 {
		return av
	}
	return av &^ (sizeMask(size) >> (64 - sh))
}

// MDAFamily is the byte-manipulation family of one access size: the
// extract pair the misalignment-safe (MDA) load sequence merges its two
// quadwords with (paper Fig. 2), and the insert and mask pairs of the
// store sequence's read-merge-write.
type MDAFamily struct {
	Size                               int
	ExtL, ExtH, InsL, InsH, MskL, MskH Op
}

// MDAFamilies lists the families of the 2-, 4- and 8-byte accesses, the
// sizes that can misalign. The translator emits MDA sequences from them,
// and the machine's trace tier recognizes those sequences by them.
var MDAFamilies = [...]MDAFamily{
	{2, EXTWL, EXTWH, INSWL, INSWH, MSKWL, MSKWH},
	{4, EXTLL, EXTLH, INSLL, INSLH, MSKLL, MSKLH},
	{8, EXTQL, EXTQH, INSQL, INSQH, MSKQL, MSKQH},
}

// MDAFamilyOf returns the family of an access size; it panics on a size
// with none.
func MDAFamilyOf(size int) *MDAFamily {
	for i := range MDAFamilies {
		if MDAFamilies[i].Size == size {
			return &MDAFamilies[i]
		}
	}
	panic(fmt.Sprintf("host: no MDA family for size %d", size))
}

// EvalOp evaluates an operate-format opcode on two source values. It panics
// on non-operate opcodes; the machine's decoder guarantees it is only called
// with operate instructions.
func EvalOp(op Op, av, bv uint64) uint64 {
	switch op {
	case ADDL:
		return sext32(av + bv)
	case SUBL:
		return sext32(av - bv)
	case ADDQ:
		return av + bv
	case SUBQ:
		return av - bv
	case MULL:
		return sext32(av * bv)
	case MULQ:
		return av * bv
	case CMPEQ:
		return b2i(av == bv)
	case CMPLT:
		return b2i(int64(av) < int64(bv))
	case CMPLE:
		return b2i(int64(av) <= int64(bv))
	case CMPULT:
		return b2i(av < bv)
	case CMPULE:
		return b2i(av <= bv)
	case AND:
		return av & bv
	case BIC:
		return av &^ bv
	case BIS:
		return av | bv
	case ORNOT:
		return av | ^bv
	case XOR:
		return av ^ bv
	case EQV:
		return av ^ ^bv
	case SLL:
		return av << (bv & 63)
	case SRL:
		return av >> (bv & 63)
	case SRA:
		return uint64(int64(av) >> (bv & 63))
	case EXTBL:
		return ExtLow(av, bv, 1)
	case EXTWL:
		return ExtLow(av, bv, 2)
	case EXTLL:
		return ExtLow(av, bv, 4)
	case EXTQL:
		return ExtLow(av, bv, 8)
	case EXTWH:
		return ExtHigh(av, bv, 2)
	case EXTLH:
		return ExtHigh(av, bv, 4)
	case EXTQH:
		return ExtHigh(av, bv, 8)
	case INSBL:
		return InsLow(av, bv, 1)
	case INSWL:
		return InsLow(av, bv, 2)
	case INSLL:
		return InsLow(av, bv, 4)
	case INSQL:
		return InsLow(av, bv, 8)
	case INSWH:
		return InsHigh(av, bv, 2)
	case INSLH:
		return InsHigh(av, bv, 4)
	case INSQH:
		return InsHigh(av, bv, 8)
	case MSKBL:
		return MskLow(av, bv, 1)
	case MSKWL:
		return MskLow(av, bv, 2)
	case MSKLL:
		return MskLow(av, bv, 4)
	case MSKQL:
		return MskLow(av, bv, 8)
	case MSKWH:
		return MskHigh(av, bv, 2)
	case MSKLH:
		return MskHigh(av, bv, 4)
	case MSKQH:
		return MskHigh(av, bv, 8)
	}
	panic("host: EvalOp: " + op.String() + " is not an operate opcode")
}

func b2i(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// BranchTaken evaluates a conditional branch predicate on Ra's value. BR and
// BSR are unconditionally taken. It panics on non-branch opcodes.
func BranchTaken(op Op, av uint64) bool {
	switch op {
	case BR, BSR:
		return true
	case BEQ:
		return av == 0
	case BNE:
		return av != 0
	case BLT:
		return int64(av) < 0
	case BLE:
		return int64(av) <= 0
	case BGT:
		return int64(av) > 0
	case BGE:
		return int64(av) >= 0
	case BLBC:
		return av&1 == 0
	case BLBS:
		return av&1 == 1
	}
	panic("host: BranchTaken: " + op.String() + " is not a branch opcode")
}

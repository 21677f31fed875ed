package guest

import (
	"fmt"

	"mdabt/internal/mem"
)

// Standard guest address-space layout. The stack grows down from StackTop;
// code and data bases mirror a conventional 32-bit ELF process image.
const (
	CodeBase  = 0x00400000
	DataBase  = 0x10000000
	StackTop  = 0x7FF00000
	SharedLib = 0x40000000 // "shared library" code region (paper §II)
)

// CPU is the architectural state of the guest processor plus a reference
// interpreter for it. It is the semantic ground truth: the binary
// translator's output is validated against it by co-simulation tests.
type CPU struct {
	R   [NumRegs]uint32
	F   [NumFRegs]uint64
	EIP uint32
	// EFLAGS subset.
	ZF, SF, CF, OF bool
	Halted         bool
}

// Reset clears the CPU and sets EIP/ESP for a fresh run.
func (c *CPU) Reset(entry uint32) {
	*c = CPU{EIP: entry}
	c.R[ESP] = StackTop
}

// Access is Exec's record of the data memory one instruction touched,
// written through a pointer the caller owns. N is the number of accesses,
// each of Size bytes: 0, 1, or 2 for a REPMOVS4 step, which loads at EA
// and then stores at EA2. Store gives the direction of the access at EA.
// Exec rewrites the whole record, so it is zero when N is 0.
type Access struct {
	N     uint8
	Size  uint8
	Store bool
	EA    uint32
	EA2   uint32 // REPMOVS4's store
}

// MDA reports whether the access at EA was misaligned (would trap on the
// host ISA).
func (a *Access) MDA() bool { return IsMDA(a.EA, int(a.Size)) }

// MDA2 reports whether REPMOVS4's store at EA2 was misaligned.
func (a *Access) MDA2() bool { return IsMDA(a.EA2, int(a.Size)) }

// EA computes the effective address of a memory operand.
func (c *CPU) EA(m MemRef) uint32 {
	ea := c.R[m.Base] + uint32(m.Disp)
	if m.HasIndex {
		ea += c.R[m.Index] * uint32(m.Scale)
	}
	return ea
}

// IsMDA reports whether an access of the given size at ea is misaligned
// (size > 1 and ea not a multiple of size) — the condition that traps on
// the alignment-restricted host.
func IsMDA(ea uint32, size int) bool {
	return size > 1 && ea&uint32(size-1) != 0
}

func (c *CPU) setZFSF(v uint32) {
	c.ZF = v == 0
	c.SF = int32(v) < 0
}

func (c *CPU) setLogicFlags(v uint32) {
	c.setZFSF(v)
	c.CF, c.OF = false, false
}

func (c *CPU) setSubFlags(a, b uint32) uint32 {
	r := a - b
	c.setZFSF(r)
	c.CF = a < b
	c.OF = (a^b)&(a^r)&0x80000000 != 0
	return r
}

func (c *CPU) setAddFlags(a, b uint32) uint32 {
	r := a + b
	c.setZFSF(r)
	c.CF = r < a
	c.OF = (a^r)&(b^r)&0x80000000 != 0
	return r
}

// CondTaken evaluates cond against the current flags.
func (c *CPU) CondTaken(cond Cond) bool {
	switch cond {
	case E:
		return c.ZF
	case NE:
		return !c.ZF
	case L:
		return c.SF != c.OF
	case LE:
		return c.ZF || c.SF != c.OF
	case G:
		return !c.ZF && c.SF == c.OF
	case GE:
		return c.SF == c.OF
	case B:
		return c.CF
	case BE:
		return c.CF || c.ZF
	case A:
		return !c.CF && !c.ZF
	case AE:
		return !c.CF
	case S:
		return c.SF
	case NS:
		return !c.SF
	}
	panic(fmt.Sprintf("guest: CondTaken: bad condition %d", uint8(cond)))
}

// Step decodes and executes one instruction from m at EIP, recording its
// data accesses in acc.
func (c *CPU) Step(m *mem.Memory, acc *Access) error {
	if c.Halted {
		return fmt.Errorf("guest: step: CPU halted")
	}
	var buf [MaxInstLen]byte
	m.ReadBytes(uint64(c.EIP), buf[:])
	inst, n, err := Decode(buf[:])
	if err != nil {
		return fmt.Errorf("guest: step at %#x: %w", c.EIP, err)
	}
	if m.Armed() {
		if mf := m.CheckFetch(uint64(c.EIP), n); mf != nil {
			return &Fault{PC: c.EIP, Mem: *mf}
		}
	}
	return c.Exec(m, c.EIP, &inst, n, acc)
}

// Exec executes one already-decoded instruction located at pc with encoded
// length n and records its data accesses in acc. EIP is advanced (or
// redirected for branches). The instruction is taken by pointer so cached
// decodes are executed without copying; Exec never mutates it. The
// address, size and direction of an op's access come from opTable.
//
// Exec is fault-precise: when the memory has protections armed, every data
// access is checked before any architectural state is mutated, and a
// violation returns a *Fault with the CPU exactly in its pre-instruction
// state — EIP on the faulting instruction, ESP, ESI, EDI and ECX
// undisturbed, zero store bytes committed.
func (c *CPU) Exec(m *mem.Memory, pc uint32, inst *Inst, n int, acc *Access) error {
	next := pc + uint32(n)
	f := &opTable[inst.Op]
	*acc = Access{}
	var ea uint32
	if f.mem != memNone {
		switch f.mem {
		case memExplicit:
			ea = c.EA(inst.Mem)
		case memPush:
			ea = c.R[ESP] - 4
		case memPop:
			ea = c.R[ESP]
		case memCopy:
			// One architectural step: copy a single dword, or fall
			// through when the count is exhausted.
			if c.R[ECX] == 0 {
				c.EIP = next
				return nil
			}
			ea = c.R[ESI]
		}
		if m.Armed() {
			// Check both halves of a copy before either commits: a
			// faulting step leaves ESI/EDI/ECX at the values that name
			// the faulting dword, which is exactly the resumable-REP
			// architecture.
			mf := m.CheckRange(uint64(ea), int(f.size), !f.load)
			if mf == nil && f.mem == memCopy {
				mf = m.CheckRange(uint64(c.R[EDI]), 4, true)
			}
			if mf != nil {
				c.EIP = pc
				return &Fault{PC: pc, Mem: *mf}
			}
		}
		*acc = Access{N: 1, Size: f.size, Store: !f.load, EA: ea}
	}
	c.EIP = next
	a := uint64(ea)
	switch inst.Op {
	case NOP:
	case HALT:
		c.Halted = true
	case MOVri:
		c.R[inst.R1] = uint32(inst.Imm)
	case MOVrr:
		c.R[inst.R1] = c.R[inst.R2]
	case LEA:
		c.R[inst.R1] = c.EA(inst.Mem)

	case LD4:
		c.R[inst.R1] = m.Read32(a)
	case LD2Z:
		c.R[inst.R1] = uint32(m.Read16(a))
	case LD2S:
		c.R[inst.R1] = uint32(int32(int16(m.Read16(a))))
	case LD1Z:
		c.R[inst.R1] = uint32(m.Read8(a))
	case LD1S:
		c.R[inst.R1] = uint32(int32(int8(m.Read8(a))))
	case ST4:
		m.Write32(a, c.R[inst.R1])
	case ST2:
		m.Write16(a, uint16(c.R[inst.R1]))
	case ST1:
		m.Write8(a, uint8(c.R[inst.R1]))
	case FLD8:
		c.F[inst.FR1] = m.Read64(a)
	case FST8:
		m.Write64(a, c.F[inst.FR1])
	case PUSH:
		// PUSH ESP stores ESP's value before the push.
		m.Write32(a, c.R[inst.R1])
		c.R[ESP] = ea
	case POP:
		// POP ESP leaves the popped value, not the incremented pointer.
		v := m.Read32(a)
		c.R[ESP] = ea + 4
		c.R[inst.R1] = v
	case CALL:
		m.Write32(a, next)
		c.R[ESP] = ea
		c.EIP = next + uint32(inst.Rel)
	case RET:
		c.EIP = m.Read32(a)
		c.R[ESP] = ea + 4
	case REPMOVS4:
		dst := c.R[EDI]
		acc.N, acc.EA2 = 2, dst
		m.Write32(uint64(dst), m.Read32(a))
		c.R[ESI] += 4
		c.R[EDI] += 4
		c.R[ECX]--
		if c.R[ECX] != 0 {
			// EIP stays on the instruction while work remains, so it
			// re-executes (interruptible REP).
			c.EIP = pc
		}

	case ADDrr:
		c.R[inst.R1] = c.setAddFlags(c.R[inst.R1], c.R[inst.R2])
	case ADDri:
		c.R[inst.R1] = c.setAddFlags(c.R[inst.R1], uint32(inst.Imm))
	case SUBrr:
		c.R[inst.R1] = c.setSubFlags(c.R[inst.R1], c.R[inst.R2])
	case SUBri:
		c.R[inst.R1] = c.setSubFlags(c.R[inst.R1], uint32(inst.Imm))
	case ANDrr:
		c.R[inst.R1] &= c.R[inst.R2]
		c.setLogicFlags(c.R[inst.R1])
	case ANDri:
		c.R[inst.R1] &= uint32(inst.Imm)
		c.setLogicFlags(c.R[inst.R1])
	case ORrr:
		c.R[inst.R1] |= c.R[inst.R2]
		c.setLogicFlags(c.R[inst.R1])
	case ORri:
		c.R[inst.R1] |= uint32(inst.Imm)
		c.setLogicFlags(c.R[inst.R1])
	case XORrr:
		c.R[inst.R1] ^= c.R[inst.R2]
		c.setLogicFlags(c.R[inst.R1])
	case XORri:
		c.R[inst.R1] ^= uint32(inst.Imm)
		c.setLogicFlags(c.R[inst.R1])
	case IMULrr:
		c.R[inst.R1] *= c.R[inst.R2]
	case IMULri:
		c.R[inst.R1] *= uint32(inst.Imm)
	case CMPrr:
		c.setSubFlags(c.R[inst.R1], c.R[inst.R2])
	case CMPri:
		c.setSubFlags(c.R[inst.R1], uint32(inst.Imm))
	case TESTrr:
		c.setLogicFlags(c.R[inst.R1] & c.R[inst.R2])
	case SHLri:
		c.R[inst.R1] <<= uint32(inst.Imm) & 31
	case SHRri:
		c.R[inst.R1] >>= uint32(inst.Imm) & 31
	case SARri:
		c.R[inst.R1] = uint32(int32(c.R[inst.R1]) >> (uint32(inst.Imm) & 31))
	case FADDrr:
		c.F[inst.FR1] += c.F[inst.FR2]
	case FMOVrr:
		c.F[inst.FR1] = c.F[inst.FR2]
	case JMP:
		c.EIP = next + uint32(inst.Rel)
	case JCC:
		if c.CondTaken(inst.Cond) {
			c.EIP = next + uint32(inst.Rel)
		}
	default:
		return fmt.Errorf("guest: exec: unhandled op %v", inst.Op)
	}
	return nil
}

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

// CPU is the architectural state of the guest processor; Step, Exec and
// Code.Run interpret it. It is the semantic ground truth: the binary
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
// data accesses in acc. On armed memory the fetch of the first byte is
// checked before decoding, so a PC on a page the guest cannot execute
// faults precisely (*Fault) whatever bytes the page holds; the fetch of the
// whole instruction is checked by Exec.
func (c *CPU) Step(m *mem.Memory, acc *Access) error {
	if c.Halted {
		return fmt.Errorf("guest: step: CPU halted")
	}
	if m.Armed() {
		if mf := m.CheckFetch(uint64(c.EIP), 1); mf != nil {
			return &Fault{PC: c.EIP, Mem: *mf}
		}
	}
	var buf [MaxInstLen]byte
	m.ReadBytes(uint64(c.EIP), buf[:])
	inst, n, err := Decode(buf[:])
	if err != nil {
		return fmt.Errorf("guest: step at %#x: %w", c.EIP, err)
	}
	return c.Exec(m, c.EIP, &inst, n, acc)
}

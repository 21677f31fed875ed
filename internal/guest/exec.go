package guest

import (
	"fmt"

	"mdabt/internal/mem"
)

// kind is an instruction's lowered form: its op fused with the way it forms
// the address of its data access, so the executor reaches an op's
// semantics, with the address already formed, through one switch. Kinds are
// set when a decode enters a table (Slot.Fill) or is executed on its own
// (Exec); Decode leaves the field zero, so decoded and hand-built
// instructions compare equal.
type kind uint8

// Kinds with no data access, or (LEA) none through its MemRef, have one
// form. Each op with a MemRef operand has three consecutive kinds: base,
// base+disp (suffix d) and base+index×scale+disp (suffix x), in that order,
// so lowering adds the form to the op's base kind. PUSH/CALL, POP/RET and
// REPMOVS4 form their addresses from ESP-4, ESP and ESI/EDI.
const (
	kNone kind = iota // not lowered
	kNOP
	kHALT
	kMOVri
	kMOVrr
	kLEA
	kADDrr
	kSUBrr
	kANDrr
	kORrr
	kXORrr
	kIMULrr
	kCMPrr
	kTESTrr
	kADDri
	kSUBri
	kANDri
	kORri
	kXORri
	kIMULri
	kCMPri
	kSHLri
	kSHRri
	kSARri
	kFADDrr
	kFMOVrr
	kJMP
	kJCC
	kCALL
	kRET
	kPUSH
	kPOP
	kREPMOVS4
	kLD4
	kLD4d
	kLD4x
	kLD2Z
	kLD2Zd
	kLD2Zx
	kLD2S
	kLD2Sd
	kLD2Sx
	kLD1Z
	kLD1Zd
	kLD1Zx
	kLD1S
	kLD1Sd
	kLD1Sx
	kST4
	kST4d
	kST4x
	kST2
	kST2d
	kST2x
	kST1
	kST1d
	kST1x
	kFLD8
	kFLD8d
	kFLD8x
	kFST8
	kFST8d
	kFST8x
)

// lowered returns in's kind, from its op and memory operand.
func (in *Inst) lowered() kind {
	f := &opTable[in.Op]
	k := f.kind
	if f.mem == memExplicit {
		switch {
		case in.Mem.HasIndex:
			k += 2
		case in.Mem.Disp != 0:
			k++
		}
	}
	return k
}

// SiteCount is one static instruction's alignment profile: its data
// accesses of two bytes or more, split into misaligned and aligned. Byte
// accesses are never misaligned and are not counted.
type SiteCount struct {
	MDA     uint64 // misaligned accesses
	Aligned uint64 // aligned accesses
}

// Slot is one decode-table entry: the lowered decode of the instruction at
// its PC, its encoded length (0: not decoded), its alignment profile
// (created on the first counted access) and the table owner's state for the
// PC. S is the owner's per-PC state type. St is a pointer the executor never
// touches, so the slot's layout, and the loop's field offsets, do not depend
// on S.
type Slot[S any] struct {
	Inst Inst
	Len  uint8
	Prof *SiteCount
	St   *S
}

// Fill stores the decode of inst, n bytes long, lowering it for the
// executor. The profile and the owner's state are left as they are.
func (s *Slot[S]) Fill(inst Inst, n int) {
	s.Inst, s.Len = inst, uint8(n)
	s.Inst.kind = inst.lowered()
}

// Count adds the accesses in a (both halves of a REPMOVS4 step) to the
// slot's profile and returns how many were misaligned. Byte accesses are
// not counted.
func (s *Slot[S]) Count(a *Access) uint64 {
	if a.Size < 2 {
		return 0
	}
	mdas := tally(&s.Prof, a.EA, uint32(a.Size))
	if a.N == 2 {
		mdas += tally(&s.Prof, a.EA2, uint32(a.Size))
	}
	return mdas
}

// tally adds one access of size bytes at ea to the profile *p, creating it
// on first use, and returns 1 when the access is misaligned.
func tally(p **SiteCount, ea, size uint32) uint64 {
	if *p == nil {
		*p = &SiteCount{}
	}
	sc := *p
	if ea&(size-1) != 0 {
		sc.MDA++
		return 1
	}
	sc.Aligned++
	return 0
}

// Code is a decode table as the executor walks it. Dense[i] is the slot of
// the instruction at CodeBase+i; the owner may keep further slots outside
// Dense, and [FarLo, FarEnd) bounds the bytes of their instructions (empty
// when FarEnd is 0). The zero value is an empty table.
type Code[S any] struct {
	Dense         []Slot[S]
	FarLo, FarEnd uint64
}

// MayContain reports whether a store to [addr, addr+size) can overlap the
// bytes of a decoded instruction: a bounds test against the dense window
// (its last slot's instruction may run MaxInstLen-1 bytes past it) and the
// far span. It keeps ordinary data and stack stores off the owner's
// invalidation path.
func (t *Code[S]) MayContain(addr uint64, size int) bool {
	end := addr + uint64(size)
	if end > CodeBase && addr < CodeBase+uint64(len(t.Dense))+MaxInstLen {
		return true
	}
	return end > t.FarLo && addr < t.FarEnd
}

// Stretch is what one Run retired.
type Stretch[S any] struct {
	Insts, Refs, MDAs uint64
	// Last is the slot of the last instruction run; it is nil when Run
	// returns an error.
	Last *Slot[S]
	// Held reports that the run ended after a store that may have
	// overwritten decoded code (MayContain, or a watched page of armed
	// memory). Acc records that instruction's accesses. They are in Refs
	// but not yet in MDAs or Last's profile: the owner first drops the
	// decodes the store overwrote, then adds them with Last.Count(&Acc).
	Held bool
	Acc  Access
}

// Run executes the straight line at c.EIP, whose slot is s: a slot of
// t.Dense, or one the owner keeps elsewhere. After each instruction it
// takes the fall-through's slot from Dense by index. It stops after a
// branch or HALT, after budget instructions (budget ≥ 1), at a fall-through
// outside Dense or not decoded, on a fault, and after a store it holds for
// the owner (Stretch.Held). It is the only copy of each op's semantics:
// Exec and Step run one instruction through it.
//
// On armed memory every instruction's fetch, and then each of its data
// accesses (both halves of a REPMOVS4 step), is checked before any state
// changes. A violation returns a *Fault with the CPU exactly in its
// pre-instruction state (EIP on the faulting instruction, zero store bytes
// committed), and the Stretch counts the instructions before it.
//
// The counts live in locals and each profiled access is added to its
// slot's SiteCount in place: the owner pays one call per straight line,
// not one per instruction.
func (t *Code[S]) Run(c *CPU, m *mem.Memory, s *Slot[S], budget uint64) (Stretch[S], error) {
	dense := t.Dense
	armed := m.Armed()
	pc := c.EIP
	var n, refs, mdas uint64
	var held Access
	for {
		in := &s.Inst
		next := pc + uint32(s.Len)
		if armed {
			if f := c.check(m, pc, in, s.Len); f != nil {
				c.EIP = pc
				return Stretch[S]{Insts: n, Refs: refs, MDAs: mdas}, f
			}
		}
		var ea uint32
		var size uint8
		// Each MemRef op's x kind adds the index term and falls through to
		// its d kind, which adds the displacement and falls through to the
		// base kind: one body per op.
		switch in.kind {
		case kNOP:
		case kHALT:
			c.Halted = true
			goto stop
		case kMOVri:
			c.R[in.R1] = uint32(in.Imm)
		case kMOVrr:
			c.R[in.R1] = c.R[in.R2]
		case kLEA:
			c.R[in.R1] = c.EA(in.Mem)

		case kADDrr:
			c.R[in.R1] = c.setAddFlags(c.R[in.R1], c.R[in.R2])
		case kADDri:
			c.R[in.R1] = c.setAddFlags(c.R[in.R1], uint32(in.Imm))
		case kSUBrr:
			c.R[in.R1] = c.setSubFlags(c.R[in.R1], c.R[in.R2])
		case kSUBri:
			c.R[in.R1] = c.setSubFlags(c.R[in.R1], uint32(in.Imm))
		case kANDrr:
			c.R[in.R1] &= c.R[in.R2]
			c.setLogicFlags(c.R[in.R1])
		case kANDri:
			c.R[in.R1] &= uint32(in.Imm)
			c.setLogicFlags(c.R[in.R1])
		case kORrr:
			c.R[in.R1] |= c.R[in.R2]
			c.setLogicFlags(c.R[in.R1])
		case kORri:
			c.R[in.R1] |= uint32(in.Imm)
			c.setLogicFlags(c.R[in.R1])
		case kXORrr:
			c.R[in.R1] ^= c.R[in.R2]
			c.setLogicFlags(c.R[in.R1])
		case kXORri:
			c.R[in.R1] ^= uint32(in.Imm)
			c.setLogicFlags(c.R[in.R1])
		case kIMULrr:
			c.R[in.R1] *= c.R[in.R2]
		case kIMULri:
			c.R[in.R1] *= uint32(in.Imm)
		case kCMPrr:
			c.setSubFlags(c.R[in.R1], c.R[in.R2])
		case kCMPri:
			c.setSubFlags(c.R[in.R1], uint32(in.Imm))
		case kTESTrr:
			c.setLogicFlags(c.R[in.R1] & c.R[in.R2])
		case kSHLri:
			c.R[in.R1] <<= uint32(in.Imm) & 31
		case kSHRri:
			c.R[in.R1] >>= uint32(in.Imm) & 31
		case kSARri:
			c.R[in.R1] = uint32(int32(c.R[in.R1]) >> (uint32(in.Imm) & 31))
		case kFADDrr:
			c.F[in.FR1] += c.F[in.FR2]
		case kFMOVrr:
			c.F[in.FR1] = c.F[in.FR2]

		case kJMP:
			next += uint32(in.Rel)
			goto stop
		case kJCC:
			if c.CondTaken(in.Cond) {
				next += uint32(in.Rel)
			}
			goto stop
		case kCALL:
			ea = c.R[ESP] - 4
			m.Write32(uint64(ea), next)
			c.R[ESP] = ea
			if t.holds(m, armed, ea, 4) {
				held = Access{N: 1, Size: 4, Store: true, EA: ea}
			} else {
				mdas += tally(&s.Prof, ea, 4)
			}
			refs++
			next += uint32(in.Rel)
			goto stop
		case kRET:
			ea = c.R[ESP]
			next = m.Read32(uint64(ea))
			c.R[ESP] = ea + 4
			refs++
			mdas += tally(&s.Prof, ea, 4)
			goto stop
		case kPUSH:
			// PUSH ESP stores ESP's value before the push.
			ea = c.R[ESP] - 4
			m.Write32(uint64(ea), c.R[in.R1])
			c.R[ESP] = ea
			size = 4
			goto store
		case kPOP:
			// POP ESP leaves the popped value, not the incremented pointer.
			ea = c.R[ESP]
			v := m.Read32(uint64(ea))
			c.R[ESP] = ea + 4
			c.R[in.R1] = v
			size = 4
			goto load
		case kREPMOVS4:
			// One architectural step: copy a single dword, or fall through
			// when the count is exhausted. EIP stays on the instruction
			// while work remains, so it re-executes (interruptible REP).
			if c.R[ECX] == 0 {
				break
			}
			ea = c.R[ESI]
			dst := c.R[EDI]
			m.Write32(uint64(dst), m.Read32(uint64(ea)))
			c.R[ESI] += 4
			c.R[EDI] += 4
			c.R[ECX]--
			if c.R[ECX] != 0 {
				next = pc
			}
			refs += 2
			if t.holds(m, armed, dst, 4) {
				held = Access{N: 2, Size: 4, EA: ea, EA2: dst}
				goto stop
			}
			mdas += tally(&s.Prof, ea, 4) + tally(&s.Prof, dst, 4)

		case kLD4x:
			ea = c.R[in.Mem.Index] * uint32(in.Mem.Scale)
			fallthrough
		case kLD4d:
			ea += uint32(in.Mem.Disp)
			fallthrough
		case kLD4:
			ea += c.R[in.Mem.Base]
			c.R[in.R1] = m.Read32(uint64(ea))
			size = 4
			goto load
		case kLD2Zx:
			ea = c.R[in.Mem.Index] * uint32(in.Mem.Scale)
			fallthrough
		case kLD2Zd:
			ea += uint32(in.Mem.Disp)
			fallthrough
		case kLD2Z:
			ea += c.R[in.Mem.Base]
			c.R[in.R1] = uint32(m.Read16(uint64(ea)))
			size = 2
			goto load
		case kLD2Sx:
			ea = c.R[in.Mem.Index] * uint32(in.Mem.Scale)
			fallthrough
		case kLD2Sd:
			ea += uint32(in.Mem.Disp)
			fallthrough
		case kLD2S:
			ea += c.R[in.Mem.Base]
			c.R[in.R1] = uint32(int32(int16(m.Read16(uint64(ea)))))
			size = 2
			goto load
		case kLD1Zx:
			ea = c.R[in.Mem.Index] * uint32(in.Mem.Scale)
			fallthrough
		case kLD1Zd:
			ea += uint32(in.Mem.Disp)
			fallthrough
		case kLD1Z:
			ea += c.R[in.Mem.Base]
			c.R[in.R1] = uint32(m.Read8(uint64(ea)))
			refs++
		case kLD1Sx:
			ea = c.R[in.Mem.Index] * uint32(in.Mem.Scale)
			fallthrough
		case kLD1Sd:
			ea += uint32(in.Mem.Disp)
			fallthrough
		case kLD1S:
			ea += c.R[in.Mem.Base]
			c.R[in.R1] = uint32(int32(int8(m.Read8(uint64(ea)))))
			refs++
		case kFLD8x:
			ea = c.R[in.Mem.Index] * uint32(in.Mem.Scale)
			fallthrough
		case kFLD8d:
			ea += uint32(in.Mem.Disp)
			fallthrough
		case kFLD8:
			ea += c.R[in.Mem.Base]
			c.F[in.FR1] = m.Read64(uint64(ea))
			size = 8
			goto load
		case kST4x:
			ea = c.R[in.Mem.Index] * uint32(in.Mem.Scale)
			fallthrough
		case kST4d:
			ea += uint32(in.Mem.Disp)
			fallthrough
		case kST4:
			ea += c.R[in.Mem.Base]
			m.Write32(uint64(ea), c.R[in.R1])
			size = 4
			goto store
		case kST2x:
			ea = c.R[in.Mem.Index] * uint32(in.Mem.Scale)
			fallthrough
		case kST2d:
			ea += uint32(in.Mem.Disp)
			fallthrough
		case kST2:
			ea += c.R[in.Mem.Base]
			m.Write16(uint64(ea), uint16(c.R[in.R1]))
			size = 2
			goto store
		case kST1x:
			ea = c.R[in.Mem.Index] * uint32(in.Mem.Scale)
			fallthrough
		case kST1d:
			ea += uint32(in.Mem.Disp)
			fallthrough
		case kST1:
			ea += c.R[in.Mem.Base]
			m.Write8(uint64(ea), uint8(c.R[in.R1]))
			size = 1
			goto store
		case kFST8x:
			ea = c.R[in.Mem.Index] * uint32(in.Mem.Scale)
			fallthrough
		case kFST8d:
			ea += uint32(in.Mem.Disp)
			fallthrough
		case kFST8:
			ea += c.R[in.Mem.Base]
			m.Write64(uint64(ea), c.F[in.FR1])
			size = 8
			goto store

		default:
			c.EIP = pc
			return Stretch[S]{Insts: n, Refs: refs, MDAs: mdas}, fmt.Errorf("guest: exec: unhandled op %v", in.Op)
		}

	advance:
		// Straight-line kinds land here: take the fall-through's slot.
		n++
		pc = next
		if n >= budget {
			break
		}
		if off := pc - CodeBase; off < uint32(len(dense)) && dense[off].Len != 0 {
			s = &dense[off]
			continue
		}
		break

	load:
		refs++
		mdas += tally(&s.Prof, ea, uint32(size))
		goto advance

	store:
		refs++
		if t.holds(m, armed, ea, size) {
			held = Access{N: 1, Size: size, Store: true, EA: ea}
			goto stop
		}
		if size > 1 {
			mdas += tally(&s.Prof, ea, uint32(size))
		}
		goto advance

	stop:
		// Branches, HALT and held stores end the run.
		n++
		pc = next
		break
	}
	c.EIP = pc
	return Stretch[S]{Insts: n, Refs: refs, MDAs: mdas, Last: s, Held: held.N != 0, Acc: held}, nil
}

// holds reports whether a store of size bytes at ea may have overwritten
// decoded code, so the run must end and hand it to the owner.
func (t *Code[S]) holds(m *mem.Memory, armed bool, ea uint32, size uint8) bool {
	return t.MayContain(uint64(ea), int(size)) || armed && m.WatchedRange(uint64(ea), int(size))
}

// access writes to a the data accesses in would make from the current
// state.
func (c *CPU) access(in *Inst, a *Access) {
	f := &opTable[in.Op]
	var ea uint32
	switch f.mem {
	case memNone:
		*a = Access{}
		return
	case memExplicit:
		ea = c.EA(in.Mem)
	case memPush:
		ea = c.R[ESP] - 4
	case memPop:
		ea = c.R[ESP]
	case memCopy:
		if c.R[ECX] == 0 {
			*a = Access{}
			return
		}
		*a = Access{N: 2, Size: 4, EA: c.R[ESI], EA2: c.R[EDI]}
		return
	}
	*a = Access{N: 1, Size: f.size, Store: f.store, EA: ea}
}

// check is the armed executor's guard for the n-byte instruction in at pc:
// its fetch, then each data access it is about to make. Checking both
// halves of a REPMOVS4 step before either commits leaves ESI/EDI/ECX naming
// the faulting dword on a fault, which is the resumable-REP architecture.
func (c *CPU) check(m *mem.Memory, pc uint32, in *Inst, n uint8) *Fault {
	if mf := m.CheckFetch(uint64(pc), int(n)); mf != nil {
		return &Fault{PC: pc, Mem: *mf}
	}
	var a Access
	c.access(in, &a)
	if a.N == 0 {
		return nil
	}
	mf := m.CheckRange(uint64(a.EA), int(a.Size), a.Store)
	if mf == nil && a.N == 2 {
		mf = m.CheckRange(uint64(a.EA2), int(a.Size), true)
	}
	if mf != nil {
		return &Fault{PC: pc, Mem: *mf}
	}
	return nil
}

// noCode is the empty table Exec runs its one slot in.
var noCode Code[struct{}]

// Exec executes one already-decoded instruction located at pc with encoded
// length n and records its data accesses in acc. It copies the instruction,
// lowered, into a slot of its own and runs that slot alone in an empty
// table: a one-instruction Run. EIP is advanced (or redirected for
// branches). Exec never mutates *inst, which need not be lowered, and keeps
// no profile.
//
// Exec is fault-precise: with armed memory, the fetch and every data access
// are checked before any architectural state is mutated, and a violation
// returns a *Fault with the CPU exactly in its pre-instruction state and a
// zero acc.
func (c *CPU) Exec(m *mem.Memory, pc uint32, inst *Inst, n int, acc *Access) error {
	var sc SiteCount
	var s Slot[struct{}]
	s.Inst = *inst
	s.Inst.kind = inst.lowered()
	s.Len, s.Prof = uint8(n), &sc
	c.access(inst, acc)
	c.EIP = pc
	if _, err := noCode.Run(c, m, &s, 1); err != nil {
		*acc = Access{}
		return err
	}
	return nil
}

package guest

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"mdabt/internal/mem"
)

// execAccess is one data access as the access record reports it.
type execAccess struct {
	ea    uint32
	size  int
	store bool
	mda   bool
}

// execRecord runs one Exec and returns the accesses it recorded, in order.
// The record starts out holding a previous instruction's accesses, as it
// does in the interpreter loops: Exec must leave none of it behind.
func execRecord(t *testing.T, c *CPU, m *mem.Memory, pc uint32, inst *Inst, n int) ([]execAccess, error) {
	t.Helper()
	acc := Access{N: 2, Size: 8, Store: true, EA: 0xDEAD, EA2: 0xBEEF}
	err := c.Exec(m, pc, inst, n, &acc)
	if (acc.N == 0 && acc != Access{}) || (acc.N == 1 && acc.EA2 != 0) {
		t.Errorf("%v: stale access record %+v", inst.Op, acc)
	}
	var out []execAccess
	if acc.N > 0 {
		out = append(out, execAccess{acc.EA, int(acc.Size), acc.Store, acc.MDA()})
	}
	if acc.N > 1 {
		out = append(out, execAccess{acc.EA2, int(acc.Size), true, acc.MDA2()})
	}
	return out, err
}

// The access-record fixture: data pointers on data page 0, a copy
// destination on data page 1, and an aligned stack pointer on its own page.
const (
	xPC   = CodeBase + 0x10
	xLen  = 6
	xNext = xPC + xLen
	xESP  = StackTop - 0x100
	xEBX  = DataBase + 2    // misaligned for every size > 1
	xEBP  = DataBase + 0x40 // aligned for every size
	xESI  = DataBase + 0x81
	xEDI  = DataBase + mem.PageSize + 0x200
)

func execFixture() (*CPU, *mem.Memory) {
	c := &CPU{EIP: xPC}
	c.R = [NumRegs]uint32{EAX: 0x11, ECX: 2, EDX: 0x33, EBX: xEBX, ESP: xESP, EBP: xEBP, ESI: xESI, EDI: xEDI}
	c.F = [NumFRegs]uint64{0x0102030405060708, 0x1111, 0x2222, 0x3333}
	m := mem.New()
	for i := uint64(0); i < 2*mem.PageSize; i += 4 {
		m.Write32(DataBase+i, uint32(i)*0x9E3779B1)
	}
	m.Write32(xESP, 0x00400123) // return address / popped value
	return c, m
}

// execSnapshot captures the memory the fixture's accesses can reach.
func execSnapshot(m *mem.Memory) []byte {
	buf := make([]byte, 3*mem.PageSize)
	m.ReadBytes(DataBase, buf[:2*mem.PageSize])
	m.ReadBytes(xESP&^(mem.PageSize-1), buf[2*mem.PageSize:])
	return buf
}

type execCase struct {
	name  string
	inst  Inst
	setup func(c *CPU)
	acc   []execAccess
	eip   uint32                             // expected EIP afterwards; 0 means xNext
	check func(c *CPU, m *mem.Memory) string // extra post-state check; "" when fine
}

func execCases() []execCase {
	ld := func(ea uint32, size int) []execAccess { return []execAccess{{ea, size, false, IsMDA(ea, size)}} }
	st := func(ea uint32, size int) []execAccess { return []execAccess{{ea, size, true, IsMDA(ea, size)}} }
	ecx := func(v uint32) func(c *CPU) { return func(c *CPU) { c.R[ECX] = v } }
	misStack := func(c *CPU) { c.R[ESP] = xESP - 2 }
	return []execCase{
		{name: "NOP", inst: Inst{Op: NOP}},
		{name: "HALT", inst: Inst{Op: HALT}, check: func(c *CPU, _ *mem.Memory) string {
			if !c.Halted {
				return "not halted"
			}
			return ""
		}},
		{name: "MOVri", inst: Inst{Op: MOVri, R1: EAX, Imm: -5}},
		{name: "MOVrr", inst: Inst{Op: MOVrr, R1: EAX, R2: EBX}},
		{name: "LEA", inst: Inst{Op: LEA, R1: EAX, Mem: MemRef{Base: EBX, Disp: 6}}},
		{name: "LD4 misaligned", inst: Inst{Op: LD4, R1: EAX, Mem: MemRef{Base: EBX}}, acc: ld(xEBX, 4)},
		{name: "LD4 aligned", inst: Inst{Op: LD4, R1: EAX, Mem: MemRef{Base: EBP}}, acc: ld(xEBP, 4)},
		{name: "LD4 indexed", inst: Inst{Op: LD4, R1: EAX, Mem: MemRef{Base: EBP, Index: ECX, HasIndex: true, Scale: 8, Disp: -3}}, acc: ld(xEBP+16-3, 4)},
		{name: "LD2Z misaligned", inst: Inst{Op: LD2Z, R1: EAX, Mem: MemRef{Base: EBX, Disp: 1}}, acc: ld(xEBX+1, 2)},
		{name: "LD2Z aligned", inst: Inst{Op: LD2Z, R1: EAX, Mem: MemRef{Base: EBX}}, acc: ld(xEBX, 2)},
		{name: "LD2S", inst: Inst{Op: LD2S, R1: EAX, Mem: MemRef{Base: EBX, Disp: 1}}, acc: ld(xEBX+1, 2)},
		{name: "LD1Z", inst: Inst{Op: LD1Z, R1: EAX, Mem: MemRef{Base: EBX, Disp: 1}}, acc: ld(xEBX+1, 1)},
		{name: "LD1S", inst: Inst{Op: LD1S, R1: EAX, Mem: MemRef{Base: EBX, Disp: 1}}, acc: ld(xEBX+1, 1)},
		{name: "ST4 misaligned", inst: Inst{Op: ST4, R1: EDX, Mem: MemRef{Base: EBX}}, acc: st(xEBX, 4)},
		{name: "ST4 aligned", inst: Inst{Op: ST4, R1: EDX, Mem: MemRef{Base: EBP}}, acc: st(xEBP, 4)},
		{name: "ST2", inst: Inst{Op: ST2, R1: EDX, Mem: MemRef{Base: EBX, Disp: 1}}, acc: st(xEBX+1, 2)},
		{name: "ST1", inst: Inst{Op: ST1, R1: EDX, Mem: MemRef{Base: EBX, Disp: 1}}, acc: st(xEBX+1, 1)},
		{name: "FLD8 misaligned", inst: Inst{Op: FLD8, FR1: F1, Mem: MemRef{Base: EBP, Disp: 4}}, acc: ld(xEBP+4, 8)},
		{name: "FLD8 aligned", inst: Inst{Op: FLD8, FR1: F1, Mem: MemRef{Base: EBP}}, acc: ld(xEBP, 8)},
		{name: "FST8", inst: Inst{Op: FST8, FR1: F0, Mem: MemRef{Base: EBP, Disp: 4}}, acc: st(xEBP+4, 8)},
		{name: "ADDrr", inst: Inst{Op: ADDrr, R1: EAX, R2: EDX}},
		{name: "SUBrr", inst: Inst{Op: SUBrr, R1: EAX, R2: EDX}},
		{name: "ANDrr", inst: Inst{Op: ANDrr, R1: EAX, R2: EDX}},
		{name: "ORrr", inst: Inst{Op: ORrr, R1: EAX, R2: EDX}},
		{name: "XORrr", inst: Inst{Op: XORrr, R1: EAX, R2: EDX}},
		{name: "IMULrr", inst: Inst{Op: IMULrr, R1: EAX, R2: EDX}},
		{name: "CMPrr", inst: Inst{Op: CMPrr, R1: EAX, R2: EDX}},
		{name: "TESTrr", inst: Inst{Op: TESTrr, R1: EAX, R2: EDX}},
		{name: "ADDri", inst: Inst{Op: ADDri, R1: EAX, Imm: 7}},
		{name: "SUBri", inst: Inst{Op: SUBri, R1: EAX, Imm: 7}},
		{name: "ANDri", inst: Inst{Op: ANDri, R1: EAX, Imm: 7}},
		{name: "ORri", inst: Inst{Op: ORri, R1: EAX, Imm: 7}},
		{name: "XORri", inst: Inst{Op: XORri, R1: EAX, Imm: 7}},
		{name: "IMULri", inst: Inst{Op: IMULri, R1: EAX, Imm: 7}},
		{name: "CMPri", inst: Inst{Op: CMPri, R1: EAX, Imm: 7}},
		{name: "SHLri", inst: Inst{Op: SHLri, R1: EAX, Imm: 3}},
		{name: "SHRri", inst: Inst{Op: SHRri, R1: EAX, Imm: 3}},
		{name: "SARri", inst: Inst{Op: SARri, R1: EAX, Imm: 3}},
		{name: "FADDrr", inst: Inst{Op: FADDrr, FR1: F0, FR2: F1}},
		{name: "FMOVrr", inst: Inst{Op: FMOVrr, FR1: F0, FR2: F1}},
		{name: "JMP", inst: Inst{Op: JMP, Rel: -0x20}, eip: xNext - 0x20},
		{name: "JCC taken", inst: Inst{Op: JCC, Cond: NE, Rel: 0x40}, eip: xNext + 0x40},
		{name: "JCC not taken", inst: Inst{Op: JCC, Cond: E, Rel: 0x40}},
		{name: "CALL", inst: Inst{Op: CALL, Rel: 0x100}, acc: st(xESP-4, 4), eip: xNext + 0x100,
			check: func(c *CPU, m *mem.Memory) string {
				if c.R[ESP] != xESP-4 || m.Read32(xESP-4) != xNext {
					return fmt.Sprintf("esp=%#x [esp]=%#x, want %#x and the return address", c.R[ESP], m.Read32(uint64(c.R[ESP])), xESP-4)
				}
				return ""
			}},
		{name: "CALL misaligned stack", inst: Inst{Op: CALL, Rel: 0x100}, setup: misStack, acc: st(xESP-6, 4), eip: xNext + 0x100},
		{name: "RET", inst: Inst{Op: RET}, acc: ld(xESP, 4), eip: 0x00400123, check: func(c *CPU, _ *mem.Memory) string {
			if c.R[ESP] != xESP+4 {
				return fmt.Sprintf("esp=%#x, want %#x", c.R[ESP], xESP+4)
			}
			return ""
		}},
		{name: "PUSH", inst: Inst{Op: PUSH, R1: EDX}, acc: st(xESP-4, 4), check: func(c *CPU, m *mem.Memory) string {
			if c.R[ESP] != xESP-4 || m.Read32(xESP-4) != 0x33 {
				return fmt.Sprintf("esp=%#x [esp-4]=%#x", c.R[ESP], m.Read32(xESP-4))
			}
			return ""
		}},
		{name: "PUSH misaligned stack", inst: Inst{Op: PUSH, R1: EDX}, setup: misStack, acc: st(xESP-6, 4)},
		{name: "PUSH ESP", inst: Inst{Op: PUSH, R1: ESP}, acc: st(xESP-4, 4), check: func(c *CPU, m *mem.Memory) string {
			// The value pushed is ESP before the push.
			if c.R[ESP] != xESP-4 || m.Read32(xESP-4) != xESP {
				return fmt.Sprintf("esp=%#x [esp-4]=%#x, want %#x and the old esp", c.R[ESP], m.Read32(xESP-4), xESP-4)
			}
			return ""
		}},
		{name: "POP", inst: Inst{Op: POP, R1: EDX}, acc: ld(xESP, 4), check: func(c *CPU, _ *mem.Memory) string {
			if c.R[ESP] != xESP+4 || c.R[EDX] != 0x00400123 {
				return fmt.Sprintf("esp=%#x edx=%#x", c.R[ESP], c.R[EDX])
			}
			return ""
		}},
		{name: "POP misaligned stack", inst: Inst{Op: POP, R1: EDX}, setup: misStack, acc: ld(xESP-2, 4)},
		{name: "POP ESP", inst: Inst{Op: POP, R1: ESP}, acc: ld(xESP, 4), check: func(c *CPU, _ *mem.Memory) string {
			// The popped value wins over the increment.
			if c.R[ESP] != 0x00400123 {
				return fmt.Sprintf("esp=%#x, want the popped value", c.R[ESP])
			}
			return ""
		}},
		{name: "REPMOVS4 ECX=0", inst: Inst{Op: REPMOVS4}, setup: ecx(0), check: func(c *CPU, _ *mem.Memory) string {
			if c.R[ESI] != xESI || c.R[EDI] != xEDI || c.R[ECX] != 0 {
				return fmt.Sprintf("esi=%#x edi=%#x ecx=%d moved", c.R[ESI], c.R[EDI], c.R[ECX])
			}
			return ""
		}},
		{name: "REPMOVS4 ECX=1", inst: Inst{Op: REPMOVS4}, setup: ecx(1),
			acc: []execAccess{{xESI, 4, false, true}, {xEDI, 4, true, false}},
			check: func(c *CPU, m *mem.Memory) string {
				if c.R[ESI] != xESI+4 || c.R[EDI] != xEDI+4 || c.R[ECX] != 0 || m.Read32(xEDI) != m.Read32(xESI) {
					return fmt.Sprintf("esi=%#x edi=%#x ecx=%d", c.R[ESI], c.R[EDI], c.R[ECX])
				}
				return ""
			}},
		{name: "REPMOVS4 ECX=2", inst: Inst{Op: REPMOVS4}, setup: ecx(2), eip: xPC,
			acc: []execAccess{{xESI, 4, false, true}, {xEDI, 4, true, false}},
			check: func(c *CPU, _ *mem.Memory) string {
				if c.R[ECX] != 1 {
					return fmt.Sprintf("ecx=%d, want 1", c.R[ECX])
				}
				return ""
			}},
	}
}

// TestExecAccessRecord pins Exec's contract for every guest op: the access
// record (EA, size, load or store, MDA, REPMOVS4's second access), EIP
// afterwards, and fault precision on armed memory. For each access of each
// memory op, the page it touches is made inaccessible to it; Exec must
// raise a *Fault naming the PC, the address and the direction, and leave
// the CPU and memory exactly as they were.
func TestExecAccessRecord(t *testing.T) {
	cases := execCases()
	seen := map[Op]bool{}
	for _, tc := range cases {
		seen[tc.inst.Op] = true
		c, m := execFixture()
		if tc.setup != nil {
			tc.setup(c)
		}
		acc, err := execRecord(t, c, m, xPC, &tc.inst, xLen)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if fmt.Sprint(acc) != fmt.Sprint(tc.acc) {
			t.Errorf("%s: accesses %+v, want %+v", tc.name, acc, tc.acc)
		}
		want := tc.eip
		if want == 0 {
			want = xNext
		}
		if c.EIP != want {
			t.Errorf("%s: eip %#x, want %#x", tc.name, c.EIP, want)
		}
		if tc.check != nil {
			if msg := tc.check(c, m); msg != "" {
				t.Errorf("%s: %s", tc.name, msg)
			}
		}

		// Fault precision: fault each access in turn.
		for j, a := range tc.acc {
			c, m := execFixture()
			if tc.setup != nil {
				tc.setup(c)
			}
			page := uint64(a.ea) &^ (mem.PageSize - 1)
			if a.store {
				m.Protect(page, mem.PageSize, mem.ProtRead)
			} else {
				m.Unmap(page, mem.PageSize)
			}
			before, snap := *c, execSnapshot(m)
			_, err := execRecord(t, c, m, xPC, &tc.inst, xLen)
			var f *Fault
			if !errors.As(err, &f) {
				t.Errorf("%s: access %d armed: err %v, want a guest fault", tc.name, j, err)
				continue
			}
			if f.PC != xPC || f.Mem.Addr != uint64(a.ea) || f.Mem.Write != a.store {
				t.Errorf("%s: access %d: fault pc=%#x addr=%#x write=%v, want %#x %#x %v",
					tc.name, j, f.PC, f.Mem.Addr, f.Mem.Write, xPC, a.ea, a.store)
			}
			if *c != before {
				t.Errorf("%s: access %d: faulting exec changed the CPU:\n got %+v\nwant %+v", tc.name, j, *c, before)
			}
			if !bytes.Equal(execSnapshot(m), snap) {
				t.Errorf("%s: access %d: faulting exec changed memory", tc.name, j)
			}
		}
	}
	for op := Op(0); op < numOps; op++ {
		if !seen[op] {
			t.Errorf("no case for %v (op %d)", op, op)
		}
	}

	// An access straddling into a forbidden page faults at the page
	// boundary with nothing committed.
	c, m := execFixture()
	c.R[EBX] = DataBase + mem.PageSize - 2
	m.Protect(DataBase+mem.PageSize, mem.PageSize, mem.ProtRead)
	before, snap := *c, execSnapshot(m)
	_, err := execRecord(t, c, m, xPC, &Inst{Op: ST4, R1: EDX, Mem: MemRef{Base: EBX}}, xLen)
	var f *Fault
	if !errors.As(err, &f) || f.Mem.Addr != DataBase+mem.PageSize || !f.Mem.Write || f.Mem.Completed != 2 {
		t.Fatalf("straddling store: err %v, want a write fault at the page boundary with 2 bytes completable", err)
	}
	if *c != before || !bytes.Equal(execSnapshot(m), snap) {
		t.Fatal("straddling store fault changed the CPU or memory")
	}
}

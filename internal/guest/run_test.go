package guest

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"mdabt/internal/mem"
)

// TestInstSize pins the decoded instruction at 28 bytes: the lowered kind
// lives in padding, so decode tables do not grow.
func TestInstSize(t *testing.T) {
	if got := unsafe.Sizeof(Inst{}); got != 28 {
		t.Fatalf("Inst is %d bytes, want 28", got)
	}
}

// runSpan is the code span the differential harness keeps in its table.
const runSpan = 4096

// runProg is a differential test program: its code at CodeBase and its
// data image at DataBase.
type runProg struct {
	name string
	code []byte
	data []byte
}

// load returns a fresh memory holding the program, with prot applied.
func (p *runProg) load(prot func(m *mem.Memory)) *mem.Memory {
	m := mem.New()
	m.WriteBytes(CodeBase, p.code)
	m.WriteBytes(DataBase, p.data)
	if prot != nil {
		prot(m)
	}
	return m
}

// genRunProg builds a seeded program that runs every kind at least once:
// each op with a MemRef operand in all three address forms, at data
// addresses spread over two pages (some straddling the boundary), the
// stack ops at an aligned and a misaligned ESP, REPMOVS4 with counts of 1
// to 3, and the branches around skipped filler. A subroutine reached by
// CALL holds a second random stream and ends in RET.
func genRunProg(seed int64) *runProg {
	rnd := rand.New(rand.NewSource(seed))
	b := NewBuilder()
	alu := [3]Reg{EAX, ECX, EDX}
	labels := 0
	mref := func(form int) MemRef {
		b.MovImm(EBX, int32(DataBase+mem.PageSize-64+rnd.Intn(128)))
		m := MemRef{Base: EBX}
		if form > 0 {
			m.Disp = int32(rnd.Intn(33)) - 16
			if m.Disp == 0 {
				m.Disp = 3
			}
		}
		if form > 1 {
			b.MovImm(EBP, int32(rnd.Intn(8)))
			m.HasIndex, m.Index, m.Scale = true, EBP, uint8(1)<<rnd.Intn(4)
		}
		return m
	}
	emit := func(k kind) {
		r1, r2 := alu[rnd.Intn(3)], alu[rnd.Intn(3)]
		imm := int32(rnd.Uint32())
		switch k {
		case kNOP:
			b.Nop()
		case kHALT, kRET, kCALL:
			// HALT ends main, CALL enters the subroutine, RET ends it.
		case kMOVri:
			b.MovImm(r1, imm)
		case kMOVrr:
			b.Mov(r1, r2)
		case kLEA:
			b.Lea(r1, mref(rnd.Intn(3)))
		case kJMP:
			labels++
			l := fmt.Sprint("j", labels)
			b.Jmp(l)
			b.MovImm(r1, imm) // skipped
			b.Label(l)
		case kJCC:
			labels++
			l := fmt.Sprint("j", labels)
			b.CmpImm(r1, imm)
			b.Jcc(Cond(rnd.Intn(int(numConds))), l)
			b.MovImm(r1, imm^1) // skipped when taken
			b.Label(l)
		case kPUSH, kPOP:
			if rnd.Intn(2) == 0 {
				b.ALUImm(SUBri, ESP, 2)
				defer b.ALUImm(ADDri, ESP, 2)
			}
			if k == kPUSH {
				b.Push(r1)
				defer b.ALUImm(ADDri, ESP, 4)
			} else {
				b.ALUImm(SUBri, ESP, 4)
				b.Pop(r1)
			}
		case kREPMOVS4:
			b.MovImm(ESI, int32(DataBase+rnd.Intn(2*mem.PageSize-64)))
			b.MovImm(EDI, int32(DataBase+rnd.Intn(2*mem.PageSize-64)))
			b.MovImm(ECX, int32(rnd.Intn(4)))
			b.Emit(Inst{Op: REPMOVS4})
		case kFADDrr:
			b.FAdd(FReg(rnd.Intn(NumFRegs)), FReg(rnd.Intn(NumFRegs)))
		case kFMOVrr:
			b.FMov(FReg(rnd.Intn(NumFRegs)), FReg(rnd.Intn(NumFRegs)))
		default:
			if k >= kLD4 {
				base := kLD4 + (k-kLD4)/3*3
				in := Inst{Op: kindOp(base), R1: r1, FR1: FReg(rnd.Intn(NumFRegs)), Mem: mref(int(k - base))}
				b.Emit(in)
				return
			}
			op := kindOp(k)
			if opTable[op].lay == layRI {
				b.ALUImm(op, r1, imm)
			} else {
				b.ALU(op, r1, r2)
			}
		}
	}
	stream := func() {
		for _, k := range rnd.Perm(int(kFST8x)) {
			emit(kind(k + 1))
		}
	}
	stream()
	b.Call("sub")
	b.Halt()
	b.Label("sub")
	stream()
	b.Ret()
	code, err := b.Build(CodeBase)
	if err != nil {
		panic(err)
	}
	data := make([]byte, 2*mem.PageSize)
	rnd.Read(data)
	return &runProg{name: fmt.Sprint("seed ", seed), code: code, data: data}
}

// kindOp returns the op a one-form kind, or a MemRef op's base kind,
// lowers from.
func kindOp(k kind) Op {
	for op := Op(0); op < numOps; op++ {
		if opTable[op].kind == k {
			return op
		}
	}
	panic(fmt.Sprintf("no op for kind %d", k))
}

// smcProg builds a loop whose straight line rewrites the immediate of its
// next instruction with a store, and a later one with a REPMOVS4 step. The
// first pass writes the bytes already there, so both instructions are
// decoded before the second pass changes them: the new bytes must run.
func smcProg() *runProg {
	build := func(t1, t3 uint32) *Builder {
		b := NewBuilder()
		b.MovImm(EAX, 7)
		b.MovImm(EDX, 2)
		b.Label("loop")
		b.MovImm(EBX, int32(t1)+2) // the imm32 of the MOVri at t1
		b.Store(ST4, MemRef{Base: EBX}, EAX)
		b.Label("t1")
		b.MovImm(ECX, 7)
		b.MovImm(EBX, DataBase)
		b.Store(ST4, MemRef{Base: EBX}, ECX)
		b.MovImm(ESI, DataBase)
		b.MovImm(EDI, int32(t3)+2)
		b.MovImm(ECX, 1)
		b.Emit(Inst{Op: REPMOVS4})
		b.Label("t3")
		b.MovImm(EBP, 7)
		b.MovImm(EAX, 0x55)
		b.ALUImm(SUBri, EDX, 1)
		b.Jcc(NE, "loop")
		b.Halt()
		return b
	}
	b := build(0, 0)
	t1, _ := b.LabelAddr("t1")
	t3, _ := b.LabelAddr("t3")
	code, err := build(CodeBase+t1, CodeBase+t3).Build(CodeBase)
	if err != nil {
		panic(err)
	}
	return &runProg{name: "smc", code: code, data: make([]byte, 4)}
}

// runState is what a run of either harness leaves behind.
type runState struct {
	cpu               CPU
	insts, refs, mdas uint64
	sites             map[uint32]SiteCount
	fault             string
	mem               []byte
}

func (s *runState) diff(o *runState) string {
	switch {
	case s.cpu != o.cpu:
		return fmt.Sprintf("cpu\n got %+v\nwant %+v", s.cpu, o.cpu)
	case s.insts != o.insts || s.refs != o.refs || s.mdas != o.mdas:
		return fmt.Sprintf("counts %d/%d/%d, want %d/%d/%d", s.insts, s.refs, s.mdas, o.insts, o.refs, o.mdas)
	case s.fault != o.fault:
		return fmt.Sprintf("fault %q, want %q", s.fault, o.fault)
	case fmt.Sprint(s.sites) != fmt.Sprint(o.sites):
		return fmt.Sprintf("sites\n got %v\nwant %v", s.sites, o.sites)
	case !bytes.Equal(s.mem, o.mem):
		return "memory differs"
	}
	return ""
}

// finish records the fault and the memory the programs can reach.
func (s *runState) finish(m *mem.Memory, err error) error {
	if err != nil {
		var f *Fault
		if !errors.As(err, &f) {
			return err
		}
		s.fault = fmt.Sprintf("pc=%#x addr=%#x write=%v exec=%v", f.PC, f.Mem.Addr, f.Mem.Write, f.Mem.Exec)
	}
	s.mem = make([]byte, 4*mem.PageSize+runSpan)
	m.ReadBytes(DataBase-mem.PageSize, s.mem[:3*mem.PageSize])
	m.ReadBytes(StackTop-mem.PageSize, s.mem[3*mem.PageSize:4*mem.PageSize])
	m.ReadBytes(CodeBase, s.mem[4*mem.PageSize:])
	return nil
}

// dropDecodes forgets every decode starting in [addr-(MaxInstLen-1),
// addr+size), as a decode table's owner does after a store into code.
func dropDecodes(drop func(pc uint32), addr uint32, size uint8) {
	for a := addr - (MaxInstLen - 1); a != addr+uint32(size); a++ {
		drop(a)
	}
}

// stepRun is the reference: CPU.Step one instruction at a time, keeping
// per-site counts the way a decode table does (a store drops the counts
// of the decodes it may have overwritten before its own are added).
func stepRun(m *mem.Memory, maxInsts uint64) (*runState, error) {
	s := &runState{sites: map[uint32]SiteCount{}}
	s.cpu.Reset(CodeBase)
	live := map[uint32]bool{}
	prof := map[uint32]*SiteCount{}
	drop := func(pc uint32) {
		if live[pc] {
			delete(live, pc)
			delete(prof, pc)
		}
	}
	var err error
	for s.insts < maxInsts && !s.cpu.Halted {
		pc := s.cpu.EIP
		var a Access
		if err = s.cpu.Step(m, &a); err != nil {
			break
		}
		live[pc] = true
		s.insts++
		s.refs += uint64(a.N)
		if a.Store {
			dropDecodes(drop, a.EA, a.Size)
		}
		if a.N == 2 {
			dropDecodes(drop, a.EA2, a.Size)
		}
		if a.Size > 1 {
			p := prof[pc]
			if p == nil {
				p = &SiteCount{}
				prof[pc] = p
			}
			eas := [2]uint32{a.EA, a.EA2}
			for _, ea := range eas[:a.N] {
				if IsMDA(ea, int(a.Size)) {
					p.MDA++
					s.mdas++
				} else {
					p.Aligned++
				}
			}
		}
	}
	for pc, p := range prof {
		s.sites[pc] = *p
	}
	return s, s.finish(m, err)
}

// newTable returns an empty table over the harness's code span.
func newTable() *Code[struct{}] {
	return &Code[struct{}]{Dense: make([]Slot[struct{}], runSpan)}
}

// tableRun drives Code.Run over t as a decode table's owner does: decode
// at EIP when the slot is empty (fetch checked first), run with at most
// budget instructions per call, and handle held stores.
func tableRun(m *mem.Memory, t *Code[struct{}], maxInsts, budget uint64) (*runState, error) {
	s := &runState{sites: map[uint32]SiteCount{}}
	s.cpu.Reset(CodeBase)
	drop := func(pc uint32) {
		if off := pc - CodeBase; off < runSpan && t.Dense[off].Len != 0 {
			t.Dense[off].Len, t.Dense[off].Prof = 0, nil
		}
	}
	err := func() error {
		for s.insts < maxInsts && !s.cpu.Halted {
			pc := s.cpu.EIP
			sl := &t.Dense[pc-CodeBase]
			if sl.Len == 0 {
				if m.Armed() {
					if f := m.CheckFetch(uint64(pc), 1); f != nil {
						return &Fault{PC: pc, Mem: *f}
					}
				}
				var buf [MaxInstLen]byte
				m.ReadBytes(uint64(pc), buf[:])
				inst, n, err := Decode(buf[:])
				if err != nil {
					return err
				}
				sl.Fill(inst, n)
			}
			r, err := t.Run(&s.cpu, m, sl, min(budget, maxInsts-s.insts))
			s.insts += r.Insts
			s.refs += r.Refs
			s.mdas += r.MDAs
			if err != nil {
				return err
			}
			if r.Insts == 0 || r.Insts > budget {
				return fmt.Errorf("run retired %d instructions on a budget of %d", r.Insts, budget)
			}
			if a := &r.Acc; r.Held {
				if a.Store {
					dropDecodes(drop, a.EA, a.Size)
				}
				if a.N == 2 {
					dropDecodes(drop, a.EA2, a.Size)
				}
				s.mdas += r.Last.Count(a)
			}
		}
		return nil
	}()
	for i := range t.Dense {
		if p := t.Dense[i].Prof; p != nil {
			s.sites[CodeBase+uint32(i)] = *p
		}
	}
	return s, s.finish(m, err)
}

// TestRunMatchesStep checks the straight-line executor against CPU.Step,
// one instruction at a time, on seeded programs that use every kind: the
// CPU, memory, instruction, reference and MDA counts, and the per-site
// tallies must agree
//   - with every per-call budget from 1 to the program's length, and when
//     the run is cut after every instruction count (REPMOVS4 mid-count
//     included);
//   - on armed memory, with each page the program's data accesses touch
//     made read-only and then unmapped in turn, and with its code page not
//     executable;
//   - on a table decoded before the code page lost execute permission;
//   - for a store that rewrites the next instruction of the same straight
//     line.
func TestRunMatchesStep(t *testing.T) {
	progs := []*runProg{smcProg()}
	for seed := int64(1); seed <= 8; seed++ {
		progs = append(progs, genRunProg(seed))
	}
	check := func(p *runProg, what string, got, want *runState, gerr, werr error) {
		t.Helper()
		if gerr != nil || werr != nil {
			t.Fatalf("%s %s: executor error %v, reference error %v", p.name, what, gerr, werr)
		}
		if d := got.diff(want); d != "" {
			t.Fatalf("%s %s: %s", p.name, what, d)
		}
	}
	for _, p := range progs {
		full, err := stepRun(p.load(nil), 1<<20)
		if err != nil || !full.cpu.Halted {
			t.Fatalf("%s: reference run: halted=%v err=%v", p.name, full.cpu.Halted, err)
		}
		if p.name == "smc" && full.cpu.R[EBP] != 0x55 {
			t.Fatalf("smc: ebp=%#x, want 0x55 from the rewritten immediates", full.cpu.R[EBP])
		}
		n := full.insts
		for b := uint64(1); b <= n; b++ {
			got, gerr := tableRun(p.load(nil), newTable(), 1<<20, b)
			check(p, fmt.Sprintf("budget %d", b), got, full, gerr, nil)
		}
		for k := uint64(1); k <= n; k++ {
			want, werr := stepRun(p.load(nil), k)
			got, gerr := tableRun(p.load(nil), newTable(), k, k)
			check(p, fmt.Sprintf("cut at %d", k), got, want, gerr, werr)
		}

		// Armed: every page a data access touched, then the code page.
		pages := map[uint64]bool{}
		m := p.load(nil)
		var c CPU
		c.Reset(CodeBase)
		for !c.Halted {
			var a Access
			if err := c.Step(m, &a); err != nil {
				t.Fatal(err)
			}
			eas := [2]uint32{a.EA, a.EA2}
			for _, ea := range eas[:a.N] {
				pages[uint64(ea)&^(mem.PageSize-1)] = true
				pages[(uint64(ea)+uint64(a.Size)-1)&^(mem.PageSize-1)] = true
			}
		}
		noExec := func(m *mem.Memory) { m.Protect(CodeBase, mem.PageSize, mem.ProtRead) }
		prots := []func(m *mem.Memory){noExec}
		for pg := range pages {
			prots = append(prots,
				func(m *mem.Memory) { m.Protect(pg, mem.PageSize, mem.ProtRead) },
				func(m *mem.Memory) { m.Unmap(pg, mem.PageSize) })
		}
		for i, prot := range prots {
			want, werr := stepRun(p.load(prot), 1<<20)
			for _, b := range []uint64{1, 2, 3, 7, n} {
				got, gerr := tableRun(p.load(prot), newTable(), 1<<20, b)
				check(p, fmt.Sprintf("armed %d budget %d", i, b), got, want, gerr, werr)
			}
		}

		// A table decoded before the code page lost execute permission:
		// the executor's own fetch check must fault, not the owner's.
		if p.name != "smc" { // its run leaves decodes of rewritten bytes
			warm := newTable()
			if _, err := tableRun(p.load(nil), warm, 1<<20, n); err != nil {
				t.Fatal(err)
			}
			for i := range warm.Dense {
				warm.Dense[i].Prof = nil
			}
			want, werr := stepRun(p.load(noExec), 1<<20)
			got, gerr := tableRun(p.load(noExec), warm, 1<<20, n)
			check(p, "decoded, then not executable", got, want, gerr, werr)
		}
	}
}

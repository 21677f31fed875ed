package machine

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"mdabt/internal/cache"
	"mdabt/internal/faultinject"
	"mdabt/internal/host"
	"mdabt/internal/mem"
)

// The executor runs lowered trace steps (see lower) and skips the
// data-cache probe for an access to the previous access's L1D line. These
// tests pin both to refMachine, a reference written from the architectural
// definitions — host.Decode, host.EvalOp, host.BranchTaken, the MemSize/
// Aligns/IsStore predicates — that decodes every instruction afresh and
// probes its own cache.Hierarchy on every line crossing and every access.

// refMachine is a single-stepping reference for the machine's semantics
// and cost model. Misaligned accesses take the default fixup (no handler)
// or call onMisalign, and accesses the trap-bit table flags take the
// default raw access or call onAccessFault; the hooks stand in for
// registered handlers and resume at the next instruction. With faults set
// it draws the machine's injection points in instruction order: a
// spurious misalignment trap for an aligned access of an aligning op, then
// a spurious access fault unless the access really traps, then duplicate
// delivery after each serviced misalignment trap.
type refMachine struct {
	p             Params
	mem           *mem.Memory
	caches        *cache.Hierarchy
	regs          [host.NumRegs]uint64
	pc            uint64
	c             Counters
	slotOpen      bool
	lineID        uint64
	haveLine      bool
	faults        *faultinject.Plan
	onMisalign    func(r *refMachine, inst host.Inst, ea uint64)
	onAccessFault func(r *refMachine, inst host.Inst, ea uint64)
}

func newRef(p Params, m *mem.Memory) *refMachine {
	r := &refMachine{p: p, mem: m}
	if p.UseCaches {
		r.caches = cache.NewES40()
	}
	return r
}

func (r *refMachine) reg(x host.Reg) uint64 {
	if x == host.Zero {
		return 0
	}
	return r.regs[x]
}

func (r *refMachine) set(x host.Reg, v uint64) {
	if x != host.Zero {
		r.regs[x] = v
	}
}

// pair applies the dual-issue rule to an ALU-class instruction.
func (r *refMachine) pair() {
	switch {
	case !r.p.DualIssueALU:
	case r.slotOpen:
		r.c.Cycles--
		r.slotOpen = false
	default:
		r.slotOpen = true
	}
}

// emulate performs inst's access at ea ignoring alignment, as the default
// fixup does (no load/store count, no cache probe).
func (r *refMachine) emulate(inst host.Inst, ea uint64) {
	size := inst.Op.MemSize()
	if inst.Op.IsStore() {
		r.mem.Write(ea, r.reg(inst.Ra), size)
		return
	}
	v := r.mem.Read(ea, size)
	if inst.Op == host.LDL {
		v = uint64(int64(int32(v)))
	}
	r.set(inst.Ra, v)
}

// perform does inst's access at ea as Machine.PerformAccess does (LDQ_U/
// STQ_U masking, load/store count, no cycles).
func (r *refMachine) perform(inst host.Inst, ea uint64) {
	if inst.Op == host.LDQU || inst.Op == host.STQU {
		ea &^= 7
	}
	if inst.Op.IsStore() {
		r.c.Stores++
	} else {
		r.c.Loads++
	}
	r.emulate(inst, ea)
}

// patch writes one code word, as Machine.Patch does: a patch of the line
// being executed makes the next fetch charge the I-cache again.
func (r *refMachine) patch(addr uint64, word uint32) {
	r.mem.Write32(addr, word)
	if addr>>ilineShift == r.lineID {
		r.haveLine = false
	}
}

// step executes one instruction; done reports a BRKBT.
func (r *refMachine) step() (stop StopReason, payload uint32, done bool, err error) {
	pc := r.pc
	if line := pc >> ilineShift; !r.haveLine || line != r.lineID {
		r.lineID, r.haveLine = line, true
		if r.caches != nil {
			r.c.Cycles += uint64(r.caches.Fetch(pc))
		}
	}
	inst, err := host.Decode(r.mem.Read32(pc))
	if err != nil {
		return StopLimit, 0, true, err
	}
	r.c.Insts++
	r.c.Cycles++
	next := pc + host.InstBytes
	r.pc = next
	switch host.FormatOf(inst.Op) {
	case host.FormatPAL:
		r.c.Brks++
		r.c.Cycles += r.p.BrkCycles
		r.slotOpen = false
		if inst.Payload == HaltService {
			return StopHalt, inst.Payload, true, nil
		}
		return StopBrk, inst.Payload, true, nil
	case host.FormatMem:
		ea := r.reg(inst.Rb) + uint64(int64(inst.Disp))
		switch inst.Op {
		case host.LDA:
			r.set(inst.Ra, ea)
			r.pair()
		case host.LDAH:
			r.set(inst.Ra, r.reg(inst.Rb)+uint64(int64(inst.Disp))<<16)
			r.pair()
		default:
			r.slotOpen = true
			size := inst.Op.MemSize()
			if inst.Op.Aligns() && (ea%uint64(size) != 0 || r.faults.Should(faultinject.SpuriousTrap)) {
				for {
					r.c.MisalignTraps++
					r.c.Cycles += r.p.MisalignTrapCycles
					r.c.TrapCycles += r.p.MisalignTrapCycles
					if r.onMisalign != nil {
						r.onMisalign(r, inst, ea)
					} else {
						r.emulate(inst, ea)
					}
					if !r.faults.Should(faultinject.DuplicateTrap) {
						return
					}
				}
			}
			access := ea
			if inst.Op == host.LDQU || inst.Op == host.STQU {
				access = ea &^ 7
			}
			if r.mem.AccessTrap(access, size, inst.Op.IsStore()) || r.faults.Should(faultinject.SpuriousAccessFault) {
				r.c.AccessFaults++
				r.c.Cycles += r.p.AccessFaultCycles
				r.c.TrapCycles += r.p.AccessFaultCycles
				if r.onAccessFault != nil {
					r.onAccessFault(r, inst, ea)
				} else {
					r.perform(inst, ea)
				}
				return
			}
			if inst.Op.IsStore() {
				r.c.Stores++
				r.mem.Write(access, r.reg(inst.Ra), size)
			} else {
				r.c.Loads++
				r.c.Cycles += r.p.LoadExtraCycles
				v := r.mem.Read(access, size)
				if inst.Op == host.LDL {
					v = uint64(int64(int32(v)))
				}
				r.set(inst.Ra, v)
			}
			if r.caches != nil {
				r.c.Cycles += uint64(r.caches.Data(access))
			}
		}
	case host.FormatOpr:
		bv := r.reg(inst.Rb)
		if inst.IsLit {
			bv = uint64(inst.Lit)
		}
		r.set(inst.Rc, host.EvalOp(inst.Op, r.reg(inst.Ra), bv))
		if inst.Op == host.MULL || inst.Op == host.MULQ {
			r.c.Cycles += r.p.MulExtraCycles
			r.slotOpen = false
		} else {
			r.pair()
		}
	case host.FormatBra:
		uncond := inst.Op == host.BR && inst.Ra == host.Zero
		if uncond && r.p.DualIssueALU {
			r.pair()
		} else {
			r.slotOpen = false
		}
		if host.BranchTaken(inst.Op, r.reg(inst.Ra)) {
			if inst.Op == host.BR || inst.Op == host.BSR {
				r.set(inst.Ra, next)
			}
			r.pc = inst.BranchTarget(pc)
			if !uncond {
				r.c.Cycles += r.p.TakenBranchCycles
			}
		}
	case host.FormatJmp:
		r.slotOpen = false
		target := r.reg(inst.Rb) &^ 3
		r.set(inst.Ra, next)
		r.pc = target
		r.c.Cycles += r.p.TakenBranchCycles
	}
	return StopLimit, 0, false, nil
}

// run steps until a BRKBT, an error, or budget instructions.
func (r *refMachine) run(budget uint64) (StopReason, uint32, error) {
	for n := uint64(0); n < budget; n++ {
		if stop, payload, done, err := r.step(); done {
			return stop, payload, err
		}
	}
	return StopLimit, 0, nil
}

// lowerSnap is the state compared between the machine and the reference.
type lowerSnap struct {
	Stop     StopReason
	Payload  uint32
	Err      bool
	PC       uint64
	Regs     [host.NumRegs]uint64
	C        Counters
	SlotOpen bool
}

func machineSnap(m *Machine, stop StopReason, payload uint32, err error) lowerSnap {
	s := lowerSnap{Stop: stop, Payload: payload, Err: err != nil, PC: m.PC(), C: m.Counters(), SlotOpen: m.slotOpen}
	for r := range s.Regs {
		s.Regs[r] = m.Reg(host.Reg(r))
	}
	return s
}

func refSnap(r *refMachine, stop StopReason, payload uint32, err error) lowerSnap {
	return lowerSnap{Stop: stop, Payload: payload, Err: err != nil, PC: r.pc, Regs: r.regs, C: r.c, SlotOpen: r.slotOpen}
}

// lowerDataBase is where single-step memory cases point Rb.
const lowerDataBase = 0x100000

// lowerSeed fills the bytes single-step memory cases can touch — around the
// data base, at the bottom of memory (Rb = R31), and at the top (negative
// displacements off R31) — with bytes that have the sign bit set often, so
// LDL's sign extension shows.
func lowerSeed(m *mem.Memory) {
	for _, base := range []uint64{lowerDataBase - 16, 0, ^uint64(0) - 15} {
		for i := uint64(0); i < 160; i++ {
			m.Write8(base+i, byte(0x80|i*37))
		}
	}
}

// lowerSame reports whether two memories agree on every seeded byte.
func lowerSame(a, b *mem.Memory) error {
	for _, base := range []uint64{lowerDataBase - 16, 0, ^uint64(0) - 15} {
		for i := uint64(0); i < 160; i++ {
			if x, y := a.Read8(base+i), b.Read8(base+i); x != y {
				return fmt.Errorf("byte %#x: machine %#x, reference %#x", base+i, x, y)
			}
		}
	}
	return nil
}

// lowerCases returns single-instruction cases for op: every format's R31
// source/destination forms, literal and register operands, aligned and
// misaligned EAs, linking into R31, and JMP with Ra == Rb.
func lowerCases(op host.Op) []host.Inst {
	var out []host.Inst
	regA := []host.Reg{host.R1, host.R31}
	switch host.FormatOf(op) {
	case host.FormatPAL:
		for _, p := range []uint32{HaltService, 1, 1<<26 - 1} {
			out = append(out, host.Inst{Op: op, Payload: p})
		}
	case host.FormatMem:
		for _, ra := range append(regA, host.R2) {
			for _, rb := range []host.Reg{host.R2, host.R31} {
				for _, d := range []int32{0, 1, 2, 3, 4, 6, 7, 8, 100, -3, -8, 0x7fff, -0x8000} {
					if rb == host.R31 && d > 0x100 {
						continue // keep R31-based stores off the code
					}
					out = append(out, host.Inst{Op: op, Ra: ra, Rb: rb, Disp: d})
				}
			}
		}
	case host.FormatOpr:
		for _, ra := range regA {
			for _, rc := range []host.Reg{host.R3, host.R31, host.R1} {
				for _, rb := range []host.Reg{host.R2, host.R31, host.R1} {
					out = append(out, host.Inst{Op: op, Ra: ra, Rb: rb, Rc: rc})
				}
				for _, lit := range []uint8{0, 5, 63, 255} {
					out = append(out, host.Inst{Op: op, Ra: ra, Rc: rc, IsLit: true, Lit: lit})
				}
			}
		}
	case host.FormatBra:
		for _, ra := range regA {
			for _, d := range []int32{-4, 0, 3} {
				out = append(out, host.Inst{Op: op, Ra: ra, Disp: d})
			}
		}
	case host.FormatJmp:
		for _, ra := range []host.Reg{host.R1, host.R3, host.R31} {
			for _, rb := range []host.Reg{host.R3, host.R31} {
				out = append(out, host.Inst{Op: op, Ra: ra, Rb: rb})
			}
		}
	}
	return out
}

// allOps lists every host opcode (Encode knows exactly the defined ones).
func allOps() []host.Op {
	var ops []host.Op
	for op := host.Op(0); ; op++ {
		if _, err := host.Encode(host.Inst{Op: op}); err != nil {
			return ops
		}
		ops = append(ops, op)
	}
}

// TestLoweringSingleStepParity runs every host opcode in every operand form
// for one instruction, from several register files, with and without the
// cache hierarchy, and requires registers, PC, stop, counters, cycles and
// memory to match the reference — and R31 to read zero afterwards.
func TestLoweringSingleStepParity(t *testing.T) {
	const base = 0x1000
	files := [][4]uint64{
		// R1 (data / A operand / condition), R2 (base / B operand), R3 (jump target), R4
		{0x8899AABBCCDDEEFF, lowerDataBase, 0x2007, 0},
		{0, lowerDataBase + 1, 0x1000, 1},
		{^uint64(0), 0x1B, 0x3, 2},
		{1, 0xFFFFFFFFFFFFFFC0, 0x10000002, 3},
		{0x0000000080000001, 63, 0x2000, 4},
	}
	ops := allOps()
	if len(ops) < 60 {
		t.Fatalf("allOps found %d opcodes", len(ops))
	}
	cases := 0
	for _, op := range ops {
		for _, inst := range lowerCases(op) {
			word, err := host.Encode(inst)
			if err != nil {
				t.Fatalf("encode %+v: %v", inst, err)
			}
			for fi, f := range files {
				for _, caches := range []bool{false, true} {
					if caches && fi > 0 {
						continue // one register file covers the cache charges
					}
					p := DefaultParams()
					p.UseCaches = caches
					m := New(mem.New(), p)
					ref := newRef(p, mem.New())
					for _, mm := range []*mem.Memory{m.Mem, ref.mem} {
						lowerSeed(mm)
					}
					for i, v := range f {
						m.SetReg(host.Reg(i+1), v)
						ref.regs[i+1] = v
					}
					m.WriteCode(base, []uint32{word})
					ref.mem.Write32(base, word)
					m.SetPC(base)
					ref.pc = base

					stop, payload, err := m.Run(1)
					got := machineSnap(m, stop, payload, err)
					rstop, rpayload, rerr := ref.run(1)
					want := refSnap(ref, rstop, rpayload, rerr)
					name := host.Disasm(base, inst)
					if got != want {
						t.Fatalf("%s (regs %#x, caches %v):\n got %+v\nwant %+v", name, f, caches, got, want)
					}
					if err := lowerSame(m.Mem, ref.mem); err != nil {
						t.Fatalf("%s (regs %#x, caches %v): %v", name, f, caches, err)
					}
					if m.Reg(host.R31) != 0 || m.regs[host.Zero] != 0 {
						t.Fatalf("%s: R31 reads %#x after the step", name, m.Reg(host.R31))
					}
					cases++
				}
			}
		}
	}
	t.Logf("%d single-step cases over %d opcodes", cases, len(ops))
}

// TestLoweringReraisesTrapInst: the trap handlers receive the instruction
// re-raised from the lowered slot, which must equal the decoded word —
// including a load into R31, whose destination the slot holds as the sink.
func TestLoweringReraisesTrapInst(t *testing.T) {
	for _, op := range allOps() {
		if host.FormatOf(op) != host.FormatMem || op == host.LDA || op == host.LDAH {
			continue
		}
		for _, inst := range lowerCases(op) {
			s := lower(0x1000, inst)
			if got := s.inst(); got != inst {
				t.Fatalf("%v: re-raised %+v, want %+v", op, got, inst)
			}
		}
	}
}

// lowerRandomProgram builds a looping program dense in data accesses:
// same-line runs, line crossings, aligned and misaligned (trapping) loads
// and stores, LDQU/STQU, operate ops on the accessed values, and R31 used
// as source and destination throughout. With megas set it also splices in
// the MDA load and store sequences the executor fuses into mega-steps.
func lowerRandomProgram(t *testing.T, rng *rand.Rand, base uint64, megas bool) []uint32 {
	aluOps := []host.Op{
		host.ADDL, host.ADDQ, host.SUBL, host.SUBQ, host.MULL, host.CMPLT,
		host.CMPULT, host.AND, host.BIS, host.XOR, host.SLL, host.SRA,
		host.EXTQL, host.EXTQH, host.EXTLL, host.INSWL, host.MSKQH,
	}
	memOps := []host.Op{
		host.LDBU, host.LDWU, host.LDL, host.LDQ, host.LDQU,
		host.STB, host.STW, host.STL, host.STQ, host.STQU,
	}
	regW := []host.Reg{host.R1, host.R2, host.R3, host.R4, host.R5, host.R31}
	regR := []host.Reg{host.R1, host.R2, host.R3, host.R4, host.R5, host.R31}
	n := 30 + rng.Intn(60)
	return trProgram(t, base, func(a *host.Asm) {
		a.MovImm(host.R9, lowerDataBase)
		a.MovImm(host.R10, 40) // loop counter
		top := a.NewLabel()
		a.Bind(top)
		for i := 0; i < n; i++ {
			switch rng.Intn(8) {
			case 0, 1:
				op := aluOps[rng.Intn(len(aluOps))]
				if rng.Intn(2) == 0 {
					a.OprLit(op, regR[rng.Intn(len(regR))], uint8(rng.Intn(256)), regW[rng.Intn(len(regW))])
				} else {
					a.Opr(op, regR[rng.Intn(len(regR))], regR[rng.Intn(len(regR))], regW[rng.Intn(len(regW))])
				}
			case 2:
				// Walk the base across lines (and, rarely, pages).
				a.Mem(host.LDA, host.R9, int32(rng.Intn(256)-96), host.R9)
			case 3:
				if megas && rng.Intn(2) == 0 {
					sz := []int{2, 4, 8}[rng.Intn(3)]
					if rng.Intn(2) == 0 {
						trMegaLd(a, sz, int32(rng.Intn(32)), sz == 4 && rng.Intn(2) == 0)
					} else {
						trMegaSt(a, sz, int32(rng.Intn(32)))
					}
					break
				}
				fallthrough
			default:
				// Mostly small displacements: runs on one L1D line.
				d := int32(rng.Intn(24))
				if rng.Intn(4) == 0 {
					d = int32(rng.Intn(600) - 200)
				}
				a.Mem(memOps[rng.Intn(len(memOps))], regW[rng.Intn(len(regW))], d, host.R9)
			}
		}
		a.OprLit(host.SUBQ, host.R10, 1, host.R10)
		a.Br(host.BNE, host.R10, top)
		a.Brk(HaltService)
	})
}

// TestDataMemoCycleParity runs random data-heavy programs on the cache
// hierarchy and requires every counter and cycle to match the reference,
// which probes its own fresh hierarchy on every access. One variant
// installs a misalignment handler that evicts lines from the data cache,
// so a memo that survived a trap would show.
func TestDataMemoCycleParity(t *testing.T) {
	const base = 0x1000
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		words := lowerRandomProgram(t, rng, base, false)
		probeInHandler := seed%2 == 1
		// The handler touches two other lines of the faulting access's L1D
		// set (the L1D is 2-way with 32 KiB between lines of one set), which
		// evicts that line — usually the line the memo holds.
		evict := func(ea uint64) [2]uint64 {
			return [2]uint64{ea&^63 + 32<<10, ea&^63 + 64<<10}
		}
		for _, budget := range []uint64{7, 500, 1 << 20} {
			m, ref := lowerPair(base, words)
			if probeInHandler {
				m.SetMisalignHandler(func(m *Machine, pc uint64, inst host.Inst, ea uint64) uint64 {
					for _, a := range evict(ea) {
						m.AddTrapCycles(uint64(m.Caches().Data(a)))
					}
					m.EmulateAccess(inst, ea)
					return pc + host.InstBytes
				})
				ref.onMisalign = func(r *refMachine, inst host.Inst, ea uint64) {
					for _, a := range evict(ea) {
						n := uint64(r.caches.Data(a))
						r.c.Cycles += n
						r.c.TrapCycles += n
					}
					r.emulate(inst, ea)
				}
			}
			stop, payload, err := m.Run(budget)
			got := machineSnap(m, stop, payload, err)
			rstop, rpayload, rerr := ref.run(budget)
			want := refSnap(ref, rstop, rpayload, rerr)
			if got != want {
				t.Fatalf("seed %d budget %d handler-probes %v:\n got %+v\nwant %+v", seed, budget, probeInHandler, got, want)
			}
			if budget == 1<<20 && (got.C.MisalignTraps == 0 || got.Stop != StopHalt) {
				t.Fatalf("seed %d: program did not exercise traps to a halt (%+v)", seed, got)
			}
		}
	}
}

// lowerDataSame reports whether two memories agree on [lo, hi).
func lowerDataSame(a, b *mem.Memory, lo, hi uint64) error {
	for x := lo; x < hi; x++ {
		if v, w := a.Read8(x), b.Read8(x); v != w {
			return fmt.Errorf("byte %#x: machine %#x, reference %#x", x, v, w)
		}
	}
	return nil
}

// lowerPair returns a machine and a reference with words loaded at base,
// the same data seeded at lowerDataBase, and both PCs at base.
func lowerPair(base uint64, words []uint32) (*Machine, *refMachine) {
	p := DefaultParams()
	m := New(mem.New(), p)
	ref := newRef(p, mem.New())
	for i := uint64(0); i < 4096; i++ {
		v := byte((i * 2654435761) >> 3)
		m.Mem.Write8(lowerDataBase+i, v)
		ref.mem.Write8(lowerDataBase+i, v)
	}
	m.WriteCode(base, words)
	for i, w := range words {
		ref.mem.Write32(base+uint64(i)*host.InstBytes, w)
	}
	m.SetPC(base)
	ref.pc = base
	return m, ref
}

// traceSpan returns the span of the live trace with a step at pc.
func traceSpan(m *Machine, pc uint64) (start, end uint64, ok bool) {
	ent := m.traces.get(pc)
	if ent.tr == nil {
		return 0, 0, false
	}
	return ent.tr.start, ent.tr.end, true
}

// TestRunParityEveryBudget: Run retires every instruction in the traces
// it forms. Random straight-line-heavy programs run in Run calls of every
// budget from 1 to the program length, so across the loop's iterations
// (whose traces are formed on the first) the calls stop at every offset
// inside a trace and enter one mid-body. After each call registers, PC,
// counters, issue-slot state and the memory around the data pointer must
// match the reference, and the whole data area must match at the halt,
// with every instruction retired in a trace.
func TestRunParityEveryBudget(t *testing.T) {
	const base = 0x1000
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		words := lowerRandomProgram(t, rng, base, false)
		for budget := uint64(1); budget <= uint64(len(words)); budget++ {
			m, ref := lowerPair(base, words)
			for calls := 0; ; calls++ {
				stop, payload, err := m.Run(budget)
				got := machineSnap(m, stop, payload, err)
				rstop, rpayload, rerr := ref.run(budget)
				want := refSnap(ref, rstop, rpayload, rerr)
				if got != want {
					t.Fatalf("seed %d budget %d call %d:\n got %+v\nwant %+v", seed, budget, calls, got, want)
				}
				if r9 := m.Reg(host.R9); r9 >= 256 {
					if err := lowerDataSame(m.Mem, ref.mem, r9-256, r9+512); err != nil {
						t.Fatalf("seed %d budget %d call %d: %v", seed, budget, calls, err)
					}
				}
				if stop != StopLimit || err != nil {
					break
				}
			}
			if ref.pc == base || ref.c.Insts < 40*uint64(len(words)-6) {
				t.Fatalf("seed %d budget %d: program stopped after %d instructions", seed, budget, ref.c.Insts)
			}
			if err := lowerDataSame(m.Mem, ref.mem, lowerDataBase-1024, lowerDataBase+16384); err != nil {
				t.Fatalf("seed %d budget %d: %v", seed, budget, err)
			}
			if ts := m.TraceStats(); ts.TracedInsts != ref.c.Insts {
				t.Fatalf("seed %d budget %d: %d of %d instructions retired in traces", seed, budget, ts.TracedInsts, ref.c.Insts)
			}
		}
	}
}

// trapRunProgram builds a loop around one I-line of sixteen straight-line
// slots (one trace with the loop's tail), whose slot pos is the access at trap: a
// misaligned load or store off R9, a load from the unmapped page at R7, or
// a store to the read-only page at R8. The other slots are aligned loads
// and stores off R9 and operate ops on what they load. The loop runs
// iters times; hot is the line's address.
func trapRunProgram(t *testing.T, base uint64, pos int, trap host.Inst, iters int64) (words []uint32, hot uint64) {
	words = trProgram(t, base, func(a *host.Asm) {
		a.MovImm(host.R9, lowerDataBase)
		a.MovImm(host.R8, trapROPage)
		a.MovImm(host.R7, trapUnmappedPage)
		a.MovImm(host.R10, iters)
		for a.PC()%(1<<ilineShift) != 0 {
			a.OprLit(host.BIS, host.R31, 0, host.R31)
		}
		hot = a.PC()
		top := a.NewLabel()
		a.Bind(top)
		for i := 0; i < ilineInsts; i++ {
			d := int32(8 * i)
			switch {
			case i == pos:
				a.Emit(trap)
			case i%4 == 0:
				a.Mem(host.LDQ, host.R2, d, host.R9)
			case i%4 == 1:
				a.Opr(host.ADDQ, host.R1, host.R2, host.R1)
			case i%4 == 2:
				a.Mem(host.STL, host.R1, d, host.R9)
			default:
				a.OprLit(host.XOR, host.R1, uint8(i), host.R3)
			}
		}
		a.OprLit(host.SUBQ, host.R10, 1, host.R10)
		a.Br(host.BNE, host.R10, top)
		a.Brk(HaltService)
	})
	return words, hot
}

// Pages TestTrapMidRun arms on both memories: stores to trapROPage and any
// access to trapUnmappedPage raise access faults.
const (
	trapROPage       = 0x200000
	trapUnmappedPage = 0x300000
)

// TestTrapMidRun: a misaligned or access-faulting access at each position
// of a trace traps mid-trace, and execution must stop at exactly the
// trapping slot and resume after it. Two handler pairs service the traps:
// one emulates (or performs) the access, the other also patches a later
// slot of the same trace into a branch to the next slot, once, which
// rewrites that slot's step in place: the trace stays live and unsplit.
// Everything runs against the reference in Run calls of 5 and of the
// whole budget, with and without a fault plan (spurious and duplicate
// misalignment traps and spurious access faults on every access), whose
// injection stream must equal the reference's.
func TestTrapMidRun(t *testing.T) {
	const base = 0x1000
	br := host.MustEncode(host.Inst{Op: host.BR, Ra: host.R31}) // to the next slot
	traps := []struct {
		name string
		inst host.Inst
	}{
		{"misaligned load", host.Inst{Op: host.LDQ, Ra: host.R4, Rb: host.R9, Disp: 3}},
		{"misaligned store", host.Inst{Op: host.STL, Ra: host.R1, Rb: host.R9, Disp: 2}},
		{"unmapped load", host.Inst{Op: host.LDL, Ra: host.R4, Rb: host.R7, Disp: 8}},
		{"read-only store", host.Inst{Op: host.STQU, Ra: host.R1, Rb: host.R8, Disp: 5}},
	}
	for _, tc := range traps {
		for pos := 0; pos < ilineInsts; pos++ {
			for _, patching := range []bool{false, true} {
				later := pos + 2
				if later >= ilineInsts {
					later = pos + 1
				}
				if patching && later >= ilineInsts {
					continue
				}
				for _, planned := range []bool{false, true} {
					for _, budget := range []uint64{5, 1 << 20} {
						name := fmt.Sprintf("%s at %d patching %v plan %v budget %d", tc.name, pos, patching, planned, budget)
						trapMidRunCase(t, name, base, pos, tc.inst, patching, later, planned, budget, br)
					}
				}
			}
		}
	}
}

func trapMidRunCase(t *testing.T, name string, base uint64, pos int, trap host.Inst, patching bool, later int, planned bool, budget uint64, br uint32) {
	t.Helper()
	words, hot := trapRunProgram(t, base, pos, trap, 6)
	m, ref := lowerPair(base, words)
	for _, mm := range []*mem.Memory{m.Mem, ref.mem} {
		mm.Protect(trapROPage, mem.PageSize, mem.ProtRead)
		mm.Unmap(trapUnmappedPage, mem.PageSize)
	}
	target := hot + uint64(later)*host.InstBytes
	if patching {
		patch := func(m *Machine) {
			if m.Mem.Read32(target) != br {
				m.Patch(target, br)
			}
		}
		m.SetMisalignHandler(func(m *Machine, pc uint64, inst host.Inst, ea uint64) uint64 {
			m.EmulateAccess(inst, ea)
			patch(m)
			return pc + host.InstBytes
		})
		m.SetAccessFaultHandler(func(m *Machine, pc uint64, inst host.Inst, ea uint64) uint64 {
			m.PerformAccess(inst, ea)
			patch(m)
			return pc + host.InstBytes
		})
		refPatch := func(r *refMachine) {
			if r.mem.Read32(target) != br {
				r.patch(target, br)
			}
		}
		ref.onMisalign = func(r *refMachine, inst host.Inst, ea uint64) {
			r.emulate(inst, ea)
			refPatch(r)
		}
		ref.onAccessFault = func(r *refMachine, inst host.Inst, ea uint64) {
			r.perform(inst, ea)
			refPatch(r)
		}
	}
	type fire struct {
		pt faultinject.Point
		n  uint64
	}
	var got, want []fire
	var plan, refPlan *faultinject.Plan
	if planned {
		arm := func(log *[]fire) *faultinject.Plan {
			p := faultinject.New(int64(pos)).Rate(faultinject.SpuriousTrap, 0.1).
				Rate(faultinject.DuplicateTrap, 0.3).Rate(faultinject.SpuriousAccessFault, 0.1)
			p.Observe(func(pt faultinject.Point) { *log = append(*log, fire{pt, p.Checks(pt)}) })
			return p
		}
		plan, refPlan = arm(&got), arm(&want)
		m.SetFaultPlan(plan)
		ref.faults = refPlan
	}
	for {
		stop, payload, err := m.Run(budget)
		g := machineSnap(m, stop, payload, err)
		rstop, rpayload, rerr := ref.run(budget)
		if w := refSnap(ref, rstop, rpayload, rerr); g != w {
			t.Fatalf("%s:\n got %+v\nwant %+v", name, g, w)
		}
		if stop != StopLimit || err != nil {
			break
		}
	}
	c := m.Counters()
	if c.MisalignTraps+c.AccessFaults < 6 || m.PC() == base {
		t.Fatalf("%s: %d traps, pc %#x: the program did not trap to a halt", name, c.MisalignTraps+c.AccessFaults, m.PC())
	}
	for _, lo := range []uint64{lowerDataBase, trapROPage, trapUnmappedPage} {
		if err := lowerDataSame(m.Mem, ref.mem, lo, lo+256); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if planned {
		if plan.Total() == 0 {
			t.Fatalf("%s: the plan injected nothing", name)
		}
		for _, pt := range []faultinject.Point{faultinject.SpuriousTrap, faultinject.DuplicateTrap, faultinject.SpuriousAccessFault} {
			if plan.Checks(pt) != refPlan.Checks(pt) {
				t.Fatalf("%s: %s checked %d times, reference %d", name, pt, plan.Checks(pt), refPlan.Checks(pt))
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: injection stream\n got %v\nwant %v", name, got, want)
		}
	}
	if patching {
		// The patch rewrote the step of the trace over the hot line in
		// place: one trace still holds the line, the patched slot and the
		// slot after it, and the patched step holds the branch.
		ent := m.traces.get(target)
		start, end, ok := traceSpan(m, hot)
		if !ok || ent.tr != m.traces.get(hot).tr || m.traces.get(target+host.InstBytes).tr != ent.tr || end < hot+ilineInsts*host.InstBytes {
			t.Fatalf("%s: trace over the hot line spans [%#x,%#x) (live %v), want one trace through slot %d at %#x and past the line", name, start, end, ok, later+1, target+host.InstBytes)
		}
		if st := &ent.tr.steps[ent.idx]; st.slot != lower(target, host.Inst{Op: host.BR, Ra: host.R31}) {
			t.Fatalf("%s: patched step holds %+v, want the branch", name, st.slot)
		}
		if ts := m.TraceStats(); ts.Relowered != 1 || ts.Invalidations != 0 {
			t.Fatalf("%s: trace stats %+v, want 1 step relowered and no trace dropped", name, ts)
		}
		if err := m.CheckTraceCoherence(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestRelowerAfterCodeChange: Patch, WriteCode and IMB each replace a slot
// that was already lowered, and the next execution runs the new word.
// Patch rewrites the step in place, so the trace over the line keeps its
// span; the traces over a line changed by WriteCode, IMB or Reset are
// re-formed to end at its new control transfers.
func TestRelowerAfterCodeChange(t *testing.T) {
	const base = 0x1000
	word := func(i host.Inst) uint32 { return host.MustEncode(i) }
	step := func(m *Machine) {
		t.Helper()
		m.SetPC(base)
		if _, _, err := m.Run(1); err != nil {
			t.Fatal(err)
		}
	}
	m := newMachine(true)
	m.WriteCode(base, []uint32{word(host.Inst{Op: host.ADDQ, Ra: host.R1, Rc: host.R1, IsLit: true, Lit: 1})})
	step(m)
	if m.Reg(host.R1) != 1 {
		t.Fatalf("addq: r1 = %d, want 1", m.Reg(host.R1))
	}

	tr := m.traces.get(base).tr
	m.Patch(base, word(host.Inst{Op: host.SUBQ, Ra: host.R1, Rc: host.R1, IsLit: true, Lit: 5}))
	if m.traces.get(base).tr != tr || m.TraceStats().Relowered != 1 {
		t.Fatalf("Patch did not rewrite the live step in place (stats %+v)", m.TraceStats())
	}
	step(m)
	if want := ^uint64(3); m.Reg(host.R1) != want { // 1 - 5
		t.Fatalf("after Patch: r1 = %#x, want %#x", m.Reg(host.R1), want)
	}

	// A different kind in the same slot: an operate slot becomes a load.
	m.Mem.Write64(lowerDataBase, 0xABCD)
	m.SetReg(host.R2, lowerDataBase)
	m.WriteCode(base, []uint32{word(host.Inst{Op: host.LDQ, Ra: host.R1, Rb: host.R2})})
	step(m)
	if m.Reg(host.R1) != 0xABCD {
		t.Fatalf("after WriteCode: r1 = %#x, want 0xabcd", m.Reg(host.R1))
	}

	// A raw memory write leaves the lowered slot in place until IMB.
	m.Mem.Write32(base, word(host.Inst{Op: host.LDA, Ra: host.R1, Rb: host.R31, Disp: 77}))
	m.SetReg(host.R1, 0)
	step(m)
	if m.Reg(host.R1) != 0xABCD {
		t.Fatalf("before IMB: r1 = %#x, want the stale load's 0xabcd", m.Reg(host.R1))
	}
	m.IMB()
	step(m)
	if m.Reg(host.R1) != 77 {
		t.Fatalf("after IMB: r1 = %d, want 77", m.Reg(host.R1))
	}

	// A line of straight-line slots ending in BRKBT, whose slots the
	// changes below turn into branches to the next slot and back.
	const lb = 0x2000
	addq := word(host.Inst{Op: host.ADDQ, Ra: host.R2, Rc: host.R2, IsLit: true, Lit: 1})
	br := word(host.Inst{Op: host.BR, Ra: host.R31})
	code := make([]uint32, ilineInsts)
	for i := range code {
		code[i] = addq
	}
	code[ilineInsts-1] = word(host.Inst{Op: host.BRKBT, Payload: 1})
	// check runs the line once and requires it to run in traces that
	// end after each of cuts, the slots that transfer control, and after
	// the BRKBT.
	check := func(what string, cuts ...int) {
		t.Helper()
		m.SetPC(lb)
		if stop, _, err := m.Run(1 << 10); stop != StopBrk || err != nil {
			t.Fatalf("%s: stop %v, err %v", what, stop, err)
		}
		pc := uint64(lb)
		for _, c := range append(cuts, ilineInsts-1) {
			end := lb + uint64(c+1)*host.InstBytes
			if gs, ge, ok := traceSpan(m, pc); !ok || gs != pc || ge != end {
				t.Fatalf("%s: trace at %#x spans [%#x,%#x) (live %v), want [%#x,%#x)", what, pc, gs, ge, ok, pc, end)
			}
			pc = end
		}
	}
	m.WriteCode(lb, code)
	check("fresh line")
	ts := m.TraceStats()
	m.Patch(lb+5*host.InstBytes, br)
	if got := m.TraceStats(); got.Relowered != ts.Relowered+1 || got.Invalidations != ts.Invalidations {
		t.Fatalf("Patch: trace stats %+v from %+v, want one step relowered and no trace dropped", got, ts)
	}
	if ent := m.traces.get(lb + 5*host.InstBytes); ent.tr == nil || ent.tr.steps[ent.idx].slot != lower(lb+5*host.InstBytes, host.Inst{Op: host.BR, Ra: host.R31}) {
		t.Fatal("Patch: the step at slot 5 does not hold the branch")
	}
	if err := m.CheckTraceCoherence(); err != nil {
		t.Fatal(err)
	}
	check("after Patch")
	if m.TraceStats().Formed != ts.Formed {
		t.Fatal("Patch: running the patched line formed a trace")
	}
	m.WriteCode(lb+9*host.InstBytes, []uint32{br, br})
	check("after WriteCode", 5, 9, 10)
	m.Mem.Write32(lb+5*host.InstBytes, addq)
	check("before IMB", 5, 9, 10)
	m.IMB()
	check("after IMB", 9, 10)
	m.Mem.Write32(lb+9*host.InstBytes, addq)
	m.Reset()
	if _, _, ok := traceSpan(m, lb); ok {
		t.Fatal("a trace survived Reset")
	}
	check("after Reset", 10)
}

// TestTraceStepSize pins the trace step: it embeds the 16-byte slot and
// adds only threading, chain-link, mega-step operands and stretch totals,
// so it must not regrow unnoticed (a step with operand pointers took 192
// bytes).
func TestTraceStepSize(t *testing.T) {
	if n := unsafe.Sizeof(slot{}); n != 16 {
		t.Fatalf("slot is %d bytes, want 16", n)
	}
	if n := unsafe.Sizeof(stretch{}); n != 7 {
		t.Fatalf("stretch is %d bytes, want 7", n)
	}
	if n := unsafe.Sizeof(traceStep{}); n != 96 {
		t.Fatalf("traceStep is %d bytes, want 96", n)
	}
}

package guest

import (
	"math/rand"
	"testing"

	"mdabt/internal/mem"
)

// randInst generates a random valid instruction for round-trip testing.
func randInst(rnd *rand.Rand) Inst {
	for {
		op := Op(rnd.Intn(int(numOps)))
		inst := Inst{Op: op}
		randMem := func() MemRef {
			m := MemRef{Base: Reg(rnd.Intn(NumRegs))}
			switch rnd.Intn(3) {
			case 1:
				m.Disp = int32(int8(rnd.Uint32()))
			case 2:
				m.Disp = int32(rnd.Uint32())
			}
			if m.Disp == 0 && rnd.Intn(2) == 0 {
				// keep zero-disp variants in the mix
			}
			if rnd.Intn(2) == 0 {
				idx := Reg(rnd.Intn(NumRegs))
				if idx != ESP {
					m.HasIndex = true
					m.Index = idx
					m.Scale = 1 << rnd.Intn(4)
				}
			}
			return m
		}
		switch opTable[op].lay {
		case layNone:
		case layR:
			inst.R1 = Reg(rnd.Intn(NumRegs))
		case layRR:
			inst.R1, inst.R2 = Reg(rnd.Intn(NumRegs)), Reg(rnd.Intn(NumRegs))
		case layRI:
			inst.R1 = Reg(rnd.Intn(NumRegs))
			inst.Imm = int32(rnd.Uint32())
		case layRM, layMR:
			inst.R1 = Reg(rnd.Intn(NumRegs))
			inst.Mem = randMem()
		case layFM, layMF:
			inst.FR1 = FReg(rnd.Intn(NumFRegs))
			inst.Mem = randMem()
		case layFF:
			inst.FR1, inst.FR2 = FReg(rnd.Intn(NumFRegs)), FReg(rnd.Intn(NumFRegs))
		case layRel:
			inst.Rel = int32(rnd.Uint32())
		case layCondRel:
			inst.Cond = Cond(rnd.Intn(int(numConds)))
			inst.Rel = int32(rnd.Uint32())
		}
		return inst
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	for i := 0; i < 20000; i++ {
		in := randInst(rnd)
		buf, err := Encode(nil, in)
		if err != nil {
			t.Fatalf("Encode(%+v): %v", in, err)
		}
		if len(buf) > MaxInstLen {
			t.Fatalf("encoding of %+v is %d bytes > MaxInstLen", in, len(buf))
		}
		out, n, err := Decode(buf)
		if err != nil {
			t.Fatalf("Decode(%+v): %v", in, err)
		}
		if n != len(buf) {
			t.Fatalf("decode length %d != encode length %d for %+v", n, len(buf), in)
		}
		// Normalize: encodings don't preserve Scale/Index for HasIndex=false.
		want := in
		if !want.Mem.HasIndex {
			want.Mem.Index, want.Mem.Scale = 0, 0
		}
		if out != want {
			t.Fatalf("round trip: got %+v, want %+v", out, want)
		}
	}
}

func TestEncodedLenMatchesEncode(t *testing.T) {
	rnd := rand.New(rand.NewSource(12))
	for i := 0; i < 2000; i++ {
		in := randInst(rnd)
		n, err := EncodedLen(in)
		if err != nil {
			t.Fatal(err)
		}
		buf, _ := Encode(nil, in)
		if n != len(buf) {
			t.Fatalf("EncodedLen(%+v) = %d, Encode produced %d", in, n, len(buf))
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{byte(numOps)},                // unknown opcode
		{byte(MOVri), 0},              // truncated imm
		{byte(LD4)},                   // missing modrm
		{byte(LD4), 0xC0},             // register mode in memory operand
		{byte(LD4), 0x04},             // SIB promised but missing
		{byte(JCC), 0xFF, 0, 0, 0, 0}, // bad condition
		{byte(FLD8), 0x38},            // f-register 7 out of range
		{byte(FADDrr), 0xC0 | 7<<3},   // f-register out of range
		{byte(LD4), 0x42},             // disp8 missing
		{byte(LD4), 0x82, 1, 2},       // disp32 truncated
	}
	for _, buf := range cases {
		if _, _, err := Decode(buf); err == nil {
			t.Errorf("Decode(% x): want error", buf)
		}
	}
}

func TestEncodeErrors(t *testing.T) {
	cases := []Inst{
		{Op: numOps},
		{Op: MOVrr, R1: 8},
		{Op: LD4, R1: EAX, Mem: MemRef{Base: 9}},
		{Op: LD4, R1: EAX, Mem: MemRef{Base: EBX, HasIndex: true, Index: ESP, Scale: 1}},
		{Op: LD4, R1: EAX, Mem: MemRef{Base: EBX, HasIndex: true, Index: ECX, Scale: 3}},
		{Op: JCC, Cond: numConds},
		{Op: FLD8, FR1: 4},
	}
	for _, in := range cases {
		if _, err := Encode(nil, in); err == nil {
			t.Errorf("Encode(%+v): want error", in)
		}
	}
}

// runProgram builds, loads and interprets a program until HALT.
func runProgram(t *testing.T, build func(b *Builder)) (*CPU, *mem.Memory) {
	t.Helper()
	b := NewBuilder()
	build(b)
	img, err := b.Build(CodeBase)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New()
	m.WriteBytes(CodeBase, img)
	cpu := &CPU{}
	cpu.Reset(CodeBase)
	for steps := 0; !cpu.Halted; steps++ {
		if steps > 1<<20 {
			t.Fatal("program did not halt")
		}
		if err := cpu.Step(m, &Access{}); err != nil {
			t.Fatal(err)
		}
	}
	return cpu, m
}

func TestInterpArithmetic(t *testing.T) {
	cpu, _ := runProgram(t, func(b *Builder) {
		b.MovImm(EAX, 6)
		b.MovImm(EBX, 7)
		b.ALU(IMULrr, EAX, EBX) // 42
		b.ALUImm(ADDri, EAX, 8) // 50
		b.ALUImm(SHLri, EAX, 2) // 200
		b.ALUImm(SHRri, EAX, 1) // 100
		b.MovImm(ECX, -100)
		b.ALUImm(SARri, ECX, 2) // -25
		b.ALU(XORrr, EDX, EDX)  // 0
		b.Halt()
	})
	if cpu.R[EAX] != 100 {
		t.Errorf("eax = %d, want 100", cpu.R[EAX])
	}
	if int32(cpu.R[ECX]) != -25 {
		t.Errorf("ecx = %d, want -25", int32(cpu.R[ECX]))
	}
	if cpu.R[EDX] != 0 {
		t.Errorf("edx = %d, want 0", cpu.R[EDX])
	}
}

func TestInterpLoadsStores(t *testing.T) {
	cpu, m := runProgram(t, func(b *Builder) {
		b.MovImm(EBX, DataBase)
		b.MovImm(EAX, 0x11223344)
		b.Store(ST4, MemRef{Base: EBX}, EAX)
		b.Store(ST2, MemRef{Base: EBX, Disp: 4}, EAX)
		b.Store(ST1, MemRef{Base: EBX, Disp: 6}, EAX)
		b.Load(LD4, ECX, MemRef{Base: EBX})
		b.Load(LD2Z, EDX, MemRef{Base: EBX, Disp: 2})
		b.Load(LD2S, ESI, MemRef{Base: EBX, Disp: 2})
		b.Load(LD1Z, EDI, MemRef{Base: EBX, Disp: 3})
		b.Load(LD1S, EBP, MemRef{Base: EBX, Disp: 3})
		b.Halt()
	})
	if cpu.R[ECX] != 0x11223344 {
		t.Errorf("ld4 = %#x", cpu.R[ECX])
	}
	if cpu.R[EDX] != 0x1122 {
		t.Errorf("ld2z = %#x", cpu.R[EDX])
	}
	if cpu.R[ESI] != 0x1122 {
		t.Errorf("ld2s = %#x", cpu.R[ESI])
	}
	if cpu.R[EDI] != 0x11 {
		t.Errorf("ld1z = %#x", cpu.R[EDI])
	}
	if cpu.R[EBP] != 0x11 {
		t.Errorf("ld1s = %#x", cpu.R[EBP])
	}
	if got := m.Read16(DataBase + 4); got != 0x3344 {
		t.Errorf("st2 wrote %#x", got)
	}
	if got := m.Read8(DataBase + 6); got != 0x44 {
		t.Errorf("st1 wrote %#x", got)
	}
}

func TestInterpSignExtension(t *testing.T) {
	cpu, _ := runProgram(t, func(b *Builder) {
		b.MovImm(EBX, DataBase)
		b.MovImm(EAX, int32(-32639)) // 0xFFFF8081
		b.Store(ST4, MemRef{Base: EBX}, EAX)
		b.Load(LD2S, ECX, MemRef{Base: EBX}) // sext(0x8081)
		b.Load(LD1S, EDX, MemRef{Base: EBX}) // sext(0x81)
		b.Halt()
	})
	if cpu.R[ECX] != 0xFFFF8081 {
		t.Errorf("ld2s = %#x, want 0xFFFF8081", cpu.R[ECX])
	}
	if cpu.R[EDX] != 0xFFFFFF81 {
		t.Errorf("ld1s = %#x, want 0xFFFFFF81", cpu.R[EDX])
	}
}

func TestInterpFRegs(t *testing.T) {
	cpu, m := runProgram(t, func(b *Builder) {
		b.MovImm(EBX, DataBase)
		b.MovImm(EAX, 0x01020304)
		b.Store(ST4, MemRef{Base: EBX}, EAX)
		b.Store(ST4, MemRef{Base: EBX, Disp: 4}, EAX)
		b.FLoad(F0, MemRef{Base: EBX})
		b.FMov(F1, F0)
		b.FAdd(F1, F0)
		b.FStore(MemRef{Base: EBX, Disp: 8}, F1)
		b.Halt()
	})
	want := uint64(0x0102030401020304)
	if cpu.F[0] != want {
		t.Errorf("f0 = %#x", cpu.F[0])
	}
	if got := m.Read64(DataBase + 8); got != 2*want {
		t.Errorf("fst8 wrote %#x, want %#x", got, 2*want)
	}
}

func TestInterpControlFlow(t *testing.T) {
	cpu, _ := runProgram(t, func(b *Builder) {
		// sum = 1+2+...+10 via loop; then a call/ret.
		b.MovImm(EAX, 0)
		b.MovImm(ECX, 1)
		b.Label("loop")
		b.ALU(ADDrr, EAX, ECX)
		b.ALUImm(ADDri, ECX, 1)
		b.CmpImm(ECX, 10)
		b.Jcc(LE, "loop")
		b.Call("double")
		b.Jmp("done")
		b.Label("double")
		b.ALU(ADDrr, EAX, EAX)
		b.Ret()
		b.Label("done")
		b.Halt()
	})
	if cpu.R[EAX] != 110 {
		t.Errorf("eax = %d, want 110", cpu.R[EAX])
	}
	if cpu.R[ESP] != StackTop {
		t.Errorf("esp = %#x, want balanced stack %#x", cpu.R[ESP], uint32(StackTop))
	}
}

func TestInterpConditions(t *testing.T) {
	// For several (a, b) pairs, check every condition against the obvious
	// Go-level predicate.
	pairs := [][2]uint32{
		{5, 5}, {5, 7}, {7, 5},
		{0x80000000, 1}, {1, 0x80000000},
		{0xFFFFFFFF, 0}, {0, 0xFFFFFFFF},
		{0x7FFFFFFF, 0xFFFFFFFF},
	}
	for _, p := range pairs {
		a, bb := p[0], p[1]
		preds := map[Cond]bool{
			E: a == bb, NE: a != bb,
			L: int32(a) < int32(bb), LE: int32(a) <= int32(bb),
			G: int32(a) > int32(bb), GE: int32(a) >= int32(bb),
			B: a < bb, BE: a <= bb, A: a > bb, AE: a >= bb,
			S: int32(a-bb) < 0, NS: int32(a-bb) >= 0,
		}
		for cond, want := range preds {
			cpu, _ := runProgram(t, func(b *Builder) {
				b.MovImm(EAX, int32(a))
				b.MovImm(EBX, int32(bb))
				b.MovImm(EDX, 0)
				b.Cmp(EAX, EBX)
				b.Jcc(cond, "taken")
				b.Jmp("end")
				b.Label("taken")
				b.MovImm(EDX, 1)
				b.Label("end")
				b.Halt()
			})
			if got := cpu.R[EDX] == 1; got != want {
				t.Errorf("cmp(%#x,%#x) j%s: taken=%v, want %v", a, bb, cond, got, want)
			}
		}
	}
}

func TestStepInfoMDA(t *testing.T) {
	b := NewBuilder()
	b.MovImm(EBX, DataBase)
	b.Load(LD4, EAX, MemRef{Base: EBX, Disp: 2})  // misaligned
	b.Load(LD4, EAX, MemRef{Base: EBX, Disp: 4})  // aligned
	b.Load(LD1Z, EAX, MemRef{Base: EBX, Disp: 3}) // bytes never MDA
	b.FLoad(F0, MemRef{Base: EBX, Disp: 4})       // 8B @ +4: misaligned
	b.Halt()
	img, err := b.Build(CodeBase)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New()
	m.WriteBytes(CodeBase, img)
	cpu := &CPU{}
	cpu.Reset(CodeBase)
	var mdas []bool
	for !cpu.Halted {
		var acc Access
		if err := cpu.Step(m, &acc); err != nil {
			t.Fatal(err)
		}
		if acc.N > 0 {
			mdas = append(mdas, acc.MDA())
		}
	}
	want := []bool{true, false, false, true}
	if len(mdas) != len(want) {
		t.Fatalf("got %d memory accesses, want %d", len(mdas), len(want))
	}
	for i := range want {
		if mdas[i] != want[i] {
			t.Errorf("access %d MDA = %v, want %v", i, mdas[i], want[i])
		}
	}
}

func TestIsMDA(t *testing.T) {
	cases := []struct {
		ea   uint32
		size int
		want bool
	}{
		{0, 4, false}, {2, 4, true}, {4, 4, false}, {3, 4, true},
		{1, 1, false}, {1, 2, true}, {2, 2, false},
		{4, 8, true}, {8, 8, false}, {7, 8, true},
	}
	for _, c := range cases {
		if got := IsMDA(c.ea, c.size); got != c.want {
			t.Errorf("IsMDA(%d, %d) = %v, want %v", c.ea, c.size, got, c.want)
		}
	}
}

func TestBuilderLabels(t *testing.T) {
	b := NewBuilder()
	b.Jmp("end")
	b.MovImm(EAX, 1) // skipped
	b.Label("end")
	b.Halt()
	img, err := b.Build(CodeBase)
	if err != nil {
		t.Fatal(err)
	}
	inst, n, err := Decode(img)
	if err != nil || inst.Op != JMP {
		t.Fatalf("decode: %v %v", inst.Op, err)
	}
	// jmp target must be the halt (skip the 6-byte mov).
	movLen, _ := EncodedLen(Inst{Op: MOVri, R1: EAX, Imm: 1})
	if got := int(inst.Rel); got != movLen {
		t.Errorf("jmp rel = %d, want %d", got, movLen)
	}
	_ = n
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder()
	b.Jmp("nowhere")
	if _, err := b.Build(CodeBase); err == nil {
		t.Error("undefined label: want error")
	}
	b = NewBuilder()
	b.Label("x")
	b.Label("x")
	b.Halt()
	if _, err := b.Build(CodeBase); err == nil {
		t.Error("duplicate label: want error")
	}
}

func TestBuilderLabelAddr(t *testing.T) {
	b := NewBuilder()
	b.MovImm(EAX, 1)
	b.Label("here")
	b.Halt()
	off, ok := b.LabelAddr("here")
	if !ok {
		t.Fatal("LabelAddr: not found")
	}
	movLen, _ := EncodedLen(Inst{Op: MOVri, R1: EAX, Imm: 1})
	if off != uint32(movLen) {
		t.Errorf("LabelAddr = %d, want %d", off, movLen)
	}
	if _, ok := b.LabelAddr("missing"); ok {
		t.Error("LabelAddr(missing) = ok")
	}
}

func TestDisasmSmoke(t *testing.T) {
	cases := []struct {
		inst Inst
		want string
	}{
		{Inst{Op: MOVri, R1: EAX, Imm: 5}, "mov\teax, 5"},
		{Inst{Op: LD4, R1: EAX, Mem: MemRef{Base: EBX, Disp: 2}}, "mov\teax, dword [ebx+2]"},
		{Inst{Op: ST2, R1: ECX, Mem: MemRef{Base: EDI, HasIndex: true, Index: ESI, Scale: 4, Disp: -1}}, "mov\tword [edi+esi*4-1], ecx"},
		{Inst{Op: FLD8, FR1: F2, Mem: MemRef{Base: EBP}}, "fld\tf2, qword [ebp]"},
		{Inst{Op: HALT}, "halt"},
		{Inst{Op: PUSH, R1: EDX}, "push\tedx"},
	}
	for _, c := range cases {
		n, _ := EncodedLen(c.inst)
		if got := Disasm(0x400000, c.inst, n); got != c.want {
			t.Errorf("Disasm = %q, want %q", got, c.want)
		}
	}
	// Branch target rendering.
	n, _ := EncodedLen(Inst{Op: JCC, Cond: NE, Rel: 0x10})
	if got := Disasm(0x1000, Inst{Op: JCC, Cond: NE, Rel: 0x10}, n); got != "jne\t0x1016" {
		t.Errorf("jcc disasm = %q", got)
	}
}

func TestStackOps(t *testing.T) {
	cpu, _ := runProgram(t, func(b *Builder) {
		b.MovImm(EAX, 7)
		b.MovImm(EBX, 9)
		b.Push(EAX)
		b.Push(EBX)
		b.Pop(ECX) // 9
		b.Pop(EDX) // 7
		b.Halt()
	})
	if cpu.R[ECX] != 9 || cpu.R[EDX] != 7 {
		t.Errorf("pop results = %d, %d, want 9, 7", cpu.R[ECX], cpu.R[EDX])
	}
}

func TestCPUHaltedStepErrors(t *testing.T) {
	cpu := &CPU{Halted: true}
	if err := cpu.Step(mem.New(), &Access{}); err == nil {
		t.Fatal("Step on halted CPU: want error")
	}
}

func BenchmarkStep(b *testing.B) {
	bb := NewBuilder()
	bb.Label("loop")
	bb.ALUImm(ADDri, EAX, 1)
	bb.Jmp("loop")
	img, err := bb.Build(CodeBase)
	if err != nil {
		b.Fatal(err)
	}
	m := mem.New()
	m.WriteBytes(CodeBase, img)
	cpu := &CPU{}
	cpu.Reset(CodeBase)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cpu.Step(m, &Access{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecodeNeverPanics feeds random byte soup to the decoder: it must
// either decode or return an error, never panic, and a successful decode
// must report a length within the buffer.
func TestDecodeNeverPanics(t *testing.T) {
	rnd := rand.New(rand.NewSource(77))
	buf := make([]byte, MaxInstLen)
	for i := 0; i < 200000; i++ {
		n := 1 + rnd.Intn(MaxInstLen)
		rnd.Read(buf[:n])
		inst, ln, err := Decode(buf[:n])
		if err != nil {
			continue
		}
		if ln < 1 || ln > n {
			t.Fatalf("decoded length %d out of buffer %d (% x)", ln, n, buf[:n])
		}
		// Whatever decoded must re-encode (possibly canonicalized — e.g. a
		// redundant SIB byte collapses) and decode back to the same
		// instruction: semantic idempotence.
		out, eerr := Encode(nil, inst)
		if eerr != nil {
			t.Fatalf("decoded inst %+v does not re-encode: %v", inst, eerr)
		}
		back, n2, derr := Decode(out)
		if derr != nil || n2 != len(out) || back != inst {
			t.Fatalf("canonicalization round trip: %+v -> % x -> %+v (%v)", inst, out, back, derr)
		}
	}
}

func TestCondInverse(t *testing.T) {
	// Inverse must be an involution and must negate CondTaken for every
	// flag state reachable from a CMP.
	pairs := [][2]uint32{{1, 1}, {1, 2}, {2, 1}, {0x80000000, 1}, {1, 0x80000000}, {0xFFFFFFFF, 0}}
	for c := Cond(0); c < numConds; c++ {
		if c.Inverse().Inverse() != c {
			t.Errorf("Inverse not involutive for %v", c)
		}
		for _, p := range pairs {
			cpu := &CPU{}
			cpu.setSubFlags(p[0], p[1])
			if cpu.CondTaken(c) == cpu.CondTaken(c.Inverse()) {
				t.Errorf("%v and %v agree on cmp(%#x,%#x)", c, c.Inverse(), p[0], p[1])
			}
		}
	}
}

func TestRepMovsInterp(t *testing.T) {
	cpu, m := runProgram(t, func(b *Builder) {
		b.MovImm(ESI, DataBase)
		b.MovImm(EDI, DataBase+100) // misaligned destination
		b.MovImm(ECX, 3)
		b.Emit(Inst{Op: REPMOVS4})
		b.Halt()
	})
	if cpu.R[ECX] != 0 {
		t.Errorf("ecx = %d after rep", cpu.R[ECX])
	}
	if cpu.R[ESI] != DataBase+12 || cpu.R[EDI] != DataBase+112 {
		t.Errorf("esi/edi = %#x/%#x", cpu.R[ESI], cpu.R[EDI])
	}
	_ = m
}

func TestRepMovsOverlapForward(t *testing.T) {
	// Word-at-a-time forward copy with dst = src+4 replicates the first
	// word (the x86 semantics for this overlap).
	cpu, m := runProgram(t, func(b *Builder) {
		b.MovImm(EBX, DataBase)
		b.MovImm(EAX, 0x11111111)
		b.Store(ST4, MemRef{Base: EBX}, EAX)
		b.MovImm(EAX, 0x22222222)
		b.Store(ST4, MemRef{Base: EBX, Disp: 4}, EAX)
		b.MovImm(ESI, DataBase)
		b.MovImm(EDI, DataBase+4)
		b.MovImm(ECX, 3)
		b.Emit(Inst{Op: REPMOVS4})
		b.Halt()
	})
	_ = cpu
	for off := uint64(4); off <= 12; off += 4 {
		if got := m.Read32(DataBase + off); got != 0x11111111 {
			t.Errorf("[+%d] = %#x, want 0x11111111 (replication)", off, got)
		}
	}
}

func TestRepMovsStepwiseEIP(t *testing.T) {
	// REP is architecturally interruptible: EIP stays on the instruction
	// until the count reaches zero.
	b := NewBuilder()
	b.MovImm(ESI, DataBase)
	b.MovImm(EDI, DataBase+64)
	b.MovImm(ECX, 2)
	b.Emit(Inst{Op: REPMOVS4})
	b.Halt()
	img, err := b.Build(CodeBase)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New()
	m.WriteBytes(CodeBase, img)
	cpu := &CPU{}
	cpu.Reset(CodeBase)
	var repPCs []uint32
	for !cpu.Halted {
		pc := cpu.EIP
		var acc Access
		if err := cpu.Step(m, &acc); err != nil {
			t.Fatal(err)
		}
		if acc.N == 2 {
			repPCs = append(repPCs, pc)
		}
	}
	if len(repPCs) != 2 {
		t.Fatalf("rep executed %d steps, want 2", len(repPCs))
	}
	if repPCs[0] != repPCs[1] {
		t.Fatalf("rep steps at different PCs: %#x vs %#x", repPCs[0], repPCs[1])
	}
}

func TestFlagsModel(t *testing.T) {
	// Drive the flag-setting ALU ops over boundary values and verify the
	// EFLAGS model against direct computation.
	cases := []struct{ a, b uint32 }{
		{0, 0}, {1, 1}, {0, 1}, {1, 0},
		{0x7FFFFFFF, 1}, {0x80000000, 1}, {0x80000000, 0x80000000},
		{0xFFFFFFFF, 1}, {0xFFFFFFFF, 0xFFFFFFFF},
	}
	for _, c := range cases {
		// ADD
		cpu := &CPU{}
		cpu.R[EAX], cpu.R[EBX] = c.a, c.b
		m := mem.New()
		if err := cpu.Exec(m, 0, &Inst{Op: ADDrr, R1: EAX, R2: EBX}, 2, &Access{}); err != nil {
			t.Fatal(err)
		}
		sum := c.a + c.b
		if cpu.ZF != (sum == 0) || cpu.SF != (int32(sum) < 0) || cpu.CF != (sum < c.a) {
			t.Errorf("add(%#x,%#x): ZF=%v SF=%v CF=%v", c.a, c.b, cpu.ZF, cpu.SF, cpu.CF)
		}
		wantOF := (c.a^sum)&(c.b^sum)&0x80000000 != 0
		if cpu.OF != wantOF {
			t.Errorf("add(%#x,%#x): OF=%v want %v", c.a, c.b, cpu.OF, wantOF)
		}
		// CMP (sub flags, operands unchanged)
		cpu2 := &CPU{}
		cpu2.R[EAX], cpu2.R[EBX] = c.a, c.b
		if err := cpu2.Exec(m, 0, &Inst{Op: CMPrr, R1: EAX, R2: EBX}, 2, &Access{}); err != nil {
			t.Fatal(err)
		}
		if cpu2.R[EAX] != c.a {
			t.Error("cmp modified its operand")
		}
		d := c.a - c.b
		if cpu2.ZF != (d == 0) || cpu2.CF != (c.a < c.b) {
			t.Errorf("cmp(%#x,%#x): ZF=%v CF=%v", c.a, c.b, cpu2.ZF, cpu2.CF)
		}
		// Logic ops clear CF/OF.
		cpu3 := &CPU{}
		cpu3.CF, cpu3.OF = true, true
		cpu3.R[EAX], cpu3.R[EBX] = c.a, c.b
		if err := cpu3.Exec(m, 0, &Inst{Op: ANDrr, R1: EAX, R2: EBX}, 2, &Access{}); err != nil {
			t.Fatal(err)
		}
		if cpu3.CF || cpu3.OF {
			t.Error("and left CF/OF set")
		}
	}
}

func TestEAWraparound(t *testing.T) {
	// Effective addresses are computed mod 2^32 like real IA-32.
	cpu := &CPU{}
	cpu.R[EBX] = 0xFFFFFFFF
	cpu.R[ECX] = 2
	ea := cpu.EA(MemRef{Base: EBX, HasIndex: true, Index: ECX, Scale: 2, Disp: 1})
	if ea != 4 { // 0xFFFFFFFF + 4 + 1 wraps to 4
		t.Fatalf("EA = %#x, want 4 (mod 2^32)", ea)
	}
}

func TestHaltStopsInterp(t *testing.T) {
	cpu, _ := runProgram(t, func(b *Builder) {
		b.MovImm(EAX, 1)
		b.Halt()
		b.MovImm(EAX, 2) // unreachable
	})
	if cpu.R[EAX] != 1 {
		t.Fatalf("eax = %d, want 1 (halt must stop)", cpu.R[EAX])
	}
}

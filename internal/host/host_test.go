package host

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// allOps enumerates every defined opcode.
func allOps() []Op {
	ops := make([]Op, 0, int(numOps))
	for op := Op(0); op < numOps; op++ {
		ops = append(ops, op)
	}
	return ops
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	for _, op := range allOps() {
		for trial := 0; trial < 200; trial++ {
			in := Inst{Op: op, Ra: Reg(rnd.Intn(32)), Rb: Reg(rnd.Intn(32)), Rc: Reg(rnd.Intn(32))}
			switch FormatOf(op) {
			case FormatPAL:
				in.Ra, in.Rb, in.Rc = 0, 0, 0
				in.Payload = rnd.Uint32() & 0x03FFFFFF
			case FormatMem:
				in.Rc = 0
				in.Disp = int32(int16(rnd.Uint32()))
			case FormatOpr:
				if rnd.Intn(2) == 0 {
					in.IsLit = true
					in.Lit = uint8(rnd.Uint32())
					in.Rb = 0
				}
			case FormatBra:
				in.Rb, in.Rc = 0, 0
				in.Disp = rnd.Int31n(1<<21) - 1<<20
			case FormatJmp:
				in.Rc = 0
			}
			w, err := Encode(in)
			if err != nil {
				t.Fatalf("Encode(%+v): %v", in, err)
			}
			out, err := Decode(w)
			if err != nil {
				t.Fatalf("Decode(Encode(%+v)) = %#08x: %v", in, w, err)
			}
			if out != in {
				t.Fatalf("round trip %v: got %+v, want %+v", op, out, in)
			}
		}
	}
}

func TestEncodeRangeErrors(t *testing.T) {
	cases := []Inst{
		{Op: LDL, Ra: R1, Rb: R2, Disp: 1 << 15},
		{Op: LDL, Ra: R1, Rb: R2, Disp: -(1<<15 + 1)},
		{Op: BR, Ra: Zero, Disp: 1 << 20},
		{Op: BRKBT, Payload: 1 << 26},
		{Op: ADDQ, Ra: 32},
		{Op: numOps},
	}
	for _, in := range cases {
		if _, err := Encode(in); err == nil {
			t.Errorf("Encode(%+v): want error", in)
		}
	}
}

func TestDecodeUnknown(t *testing.T) {
	for _, w := range []uint32{
		0x04 << 26,         // unassigned primary opcode
		0x10<<26 | 0x7F<<5, // unknown INTA function
		0x1A<<26 | 3<<14,   // unknown jump type
	} {
		if _, err := Decode(w); err == nil {
			t.Errorf("Decode(%#08x): want error", w)
		}
	}
}

// TestUnalignedLoadComposition is the core property behind the paper's MDA
// code sequence (Fig. 2): for any quadword pair and any in-quad offset,
// extL(lo,ea) | extH(hi,ea) reconstructs the datum, where lo is the quad at
// ea&^7 and hi the quad at (ea+size-1)&^7.
func TestUnalignedLoadComposition(t *testing.T) {
	mem := make([]byte, 24)
	for i := range mem {
		mem[i] = byte(0xA0 + i)
	}
	quad := func(off int) uint64 {
		var v uint64
		for i := 7; i >= 0; i-- {
			v = v<<8 | uint64(mem[off+i])
		}
		return v
	}
	want := func(ea, size int) uint64 {
		var v uint64
		for i := size - 1; i >= 0; i-- {
			v = v<<8 | uint64(mem[ea+i])
		}
		return v
	}
	for _, size := range []int{2, 4, 8} {
		for ea := 0; ea < 12; ea++ {
			lo := quad(ea &^ 7)
			hi := quad((ea + size - 1) &^ 7)
			got := ExtLow(lo, uint64(ea), size) | ExtHigh(hi, uint64(ea), size)
			if got != want(ea, size) {
				t.Errorf("size %d ea %d: got %#x, want %#x", size, ea, got, want(ea, size))
			}
		}
	}
}

// TestUnalignedStoreComposition checks the INS/MSK store sequence (paper
// §III-A footnote / Alpha handbook): masked-merge into the covering quads
// writes exactly the stored bytes and no neighbors.
func TestUnalignedStoreComposition(t *testing.T) {
	for _, size := range []int{2, 4, 8} {
		for ea := 0; ea < 12; ea++ {
			mem := make([]byte, 24)
			for i := range mem {
				mem[i] = byte(0xA0 + i)
			}
			quad := func(off int) uint64 {
				var v uint64
				for i := 7; i >= 0; i-- {
					v = v<<8 | uint64(mem[off+i])
				}
				return v
			}
			putQuad := func(off int, v uint64) {
				for i := 0; i < 8; i++ {
					mem[off+i] = byte(v >> (8 * i))
				}
			}
			val := uint64(0x1122334455667788)
			loOff, hiOff := ea&^7, (ea+size-1)&^7
			lo, hi := quad(loOff), quad(hiOff)
			newHi := MskHigh(hi, uint64(ea), size) | InsHigh(val, uint64(ea), size)
			newLo := MskLow(lo, uint64(ea), size) | InsLow(val, uint64(ea), size)
			// Alpha sequence stores high quad first, then low, so that when
			// both map to the same quadword the low (complete) merge wins.
			putQuad(hiOff, newHi)
			putQuad(loOff, newLo)
			for i := 0; i < 24; i++ {
				var want byte
				if i >= ea && i < ea+size {
					want = byte(val >> (8 * (i - ea)))
				} else {
					want = byte(0xA0 + i)
				}
				if mem[i] != want {
					t.Errorf("size %d ea %d byte %d: got %#x, want %#x", size, ea, i, mem[i], want)
				}
			}
		}
	}
}

func TestExtInsMskQuickProperties(t *testing.T) {
	// INS then EXT at the same alignment recovers the value (for sizes where
	// no bits fall off: low part only when sh+8*size <= 64).
	f := func(v, ea uint64) bool {
		for _, size := range []int{1, 2, 4} {
			sh := ea & 7
			if int(sh)+size <= 8 {
				got := ExtLow(InsLow(v, ea, size), ea, size)
				if got != v&sizeMask(size) {
					return false
				}
			}
		}
		// MskLow then reading the cleared lane gives zero.
		if ExtLow(MskLow(v, ea, 4), ea, 4)&sizeMask(4) != 0 && ea&7 <= 4 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEvalOpBasics(t *testing.T) {
	cases := []struct {
		op   Op
		a, b uint64
		want uint64
	}{
		{ADDL, 0x7FFFFFFF, 1, 0xFFFFFFFF80000000}, // 32-bit overflow sign-extends
		{ADDQ, 1, 2, 3},
		{SUBL, 0, 1, 0xFFFFFFFFFFFFFFFF},
		{SUBQ, 5, 7, ^uint64(1)},
		{MULL, 0x10000, 0x10000, 0}, // low 32 bits zero
		{MULQ, 3, 5, 15},
		{CMPEQ, 4, 4, 1},
		{CMPLT, ^uint64(0), 0, 1}, // -1 < 0 signed
		{CMPULT, ^uint64(0), 0, 0},
		{CMPLE, 3, 3, 1},
		{CMPULE, 4, 3, 0},
		{AND, 0xF0, 0x3C, 0x30},
		{BIC, 0xFF, 0x0F, 0xF0},
		{BIS, 0xF0, 0x0F, 0xFF},
		{ORNOT, 0, 0, ^uint64(0)},
		{XOR, 0xFF, 0x0F, 0xF0},
		{EQV, 0xFF, 0xFF, ^uint64(0)},
		{SLL, 1, 65, 2}, // shift counts mod 64
		{SRL, 0x8000000000000000, 63, 1},
		{SRA, 0x8000000000000000, 63, ^uint64(0)},
	}
	for _, c := range cases {
		if got := EvalOp(c.op, c.a, c.b); got != c.want {
			t.Errorf("%v(%#x, %#x) = %#x, want %#x", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestEvalOpPanicsOnNonOperate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EvalOp(BR) did not panic")
		}
	}()
	EvalOp(BR, 0, 0)
}

func TestBranchTaken(t *testing.T) {
	cases := []struct {
		op   Op
		av   uint64
		want bool
	}{
		{BR, 0, true}, {BSR, 0, true},
		{BEQ, 0, true}, {BEQ, 1, false},
		{BNE, 0, false}, {BNE, 1, true},
		{BLT, ^uint64(0), true}, {BLT, 0, false},
		{BLE, 0, true}, {BLE, 1, false},
		{BGT, 1, true}, {BGT, 0, false},
		{BGE, 0, true}, {BGE, ^uint64(0), false},
		{BLBC, 2, true}, {BLBC, 3, false},
		{BLBS, 3, true}, {BLBS, 2, false},
	}
	for _, c := range cases {
		if got := BranchTaken(c.op, c.av); got != c.want {
			t.Errorf("BranchTaken(%v, %#x) = %v, want %v", c.op, c.av, got, c.want)
		}
	}
}

func TestBrDispFor(t *testing.T) {
	if d, ok := BrDispFor(0x1000, 0x1004); !ok || d != 0 {
		t.Errorf("fallthrough disp = %d,%v, want 0,true", d, ok)
	}
	if d, ok := BrDispFor(0x1000, 0x1000); !ok || d != -1 {
		t.Errorf("self-branch disp = %d,%v, want -1,true", d, ok)
	}
	if _, ok := BrDispFor(0x1000, 0x1002); ok {
		t.Error("unaligned target accepted")
	}
	if _, ok := BrDispFor(0, 1<<23); ok {
		t.Error("out-of-range target accepted")
	}
	// Round trip through the instruction encoding.
	d, _ := BrDispFor(0x2000, 0x1F00)
	i := Inst{Op: BR, Ra: Zero, Disp: d}
	if got := i.BranchTarget(0x2000); got != 0x1F00 {
		t.Errorf("BranchTarget = %#x, want 0x1F00", got)
	}
}

func TestOpPredicates(t *testing.T) {
	if !LDL.IsLoad() || LDL.IsStore() || LDL.MemSize() != 4 || !LDL.Aligns() {
		t.Error("LDL predicates wrong")
	}
	if !STQU.IsStore() || STQU.Aligns() || STQU.MemSize() != 8 {
		t.Error("STQU predicates wrong")
	}
	if LDBU.Aligns() || LDQU.Aligns() {
		t.Error("byte/unaligned ops must not require alignment")
	}
	if ADDQ.MemSize() != 0 || ADDQ.IsLoad() || ADDQ.IsStore() {
		t.Error("ADDQ predicates wrong")
	}
}

func TestDisasm(t *testing.T) {
	cases := []struct {
		i    Inst
		pc   uint64
		want string
	}{
		{Inst{Op: LDL, Ra: R1, Rb: R2, Disp: 2}, 0, "ldl\tr1, 2(r2)"},
		{Inst{Op: LDQU, Ra: R21, Rb: R2, Disp: 5}, 0, "ldq_u\tr21, 5(r2)"},
		{Inst{Op: ADDL, Ra: R31, Rb: R1, Rc: R1}, 0, "addl\tzero, r1, r1"},
		{Inst{Op: SLL, Ra: R3, Lit: 16, IsLit: true, Rc: R3}, 0, "sll\tr3, #16, r3"},
		{Inst{Op: BR, Ra: Zero, Disp: 1}, 0x1000, "br\t0x1008"},
		{Inst{Op: BNE, Ra: R5, Disp: -2}, 0x1000, "bne\tr5, 0xffc"},
		{Inst{Op: RET, Ra: Zero, Rb: R26}, 0, "ret\tzero, (r26)"},
		{Inst{Op: BRKBT, Payload: 7}, 0, "brkbt\t0x7"},
	}
	for _, c := range cases {
		if got := Disasm(c.pc, c.i); got != c.want {
			t.Errorf("Disasm(%+v) = %q, want %q", c.i, got, c.want)
		}
	}
	if got := DisasmWord(0, 0x04<<26); !strings.HasPrefix(got, ".word") {
		t.Errorf("DisasmWord(bad) = %q, want .word", got)
	}
	if got := DisasmWord(0, MustEncode(Inst{Op: ADDQ, Ra: R1, Rb: R2, Rc: R3})); got != "addq\tr1, r2, r3" {
		t.Errorf("DisasmWord = %q", got)
	}
}

func TestAsmLabels(t *testing.T) {
	a := NewAsm(0x10000)
	a.Label("top")
	a.OprLit(SUBQ, R1, 1, R1)
	a.Br(BNE, R1, "top")
	a.Br(BR, Zero, "out")
	a.Opr(ADDQ, R31, R31, R31) // skipped
	a.Label("out")
	words, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(words) != 4 {
		t.Fatalf("len = %d, want 4", len(words))
	}
	bne, _ := Decode(words[1])
	if got := bne.BranchTarget(0x10004); got != 0x10000 {
		t.Errorf("bne target = %#x, want 0x10000", got)
	}
	br, _ := Decode(words[2])
	if got := br.BranchTarget(0x10008); got != 0x10010 {
		t.Errorf("br target = %#x, want 0x10010", got)
	}
}

func TestAsmErrors(t *testing.T) {
	a := NewAsm(0x1000)
	a.Br(BR, Zero, "nowhere")
	if _, err := a.Finish(); err == nil {
		t.Error("undefined label: want error")
	}
	a = NewAsm(0x1000)
	a.Label("x")
	a.Label("x")
	if _, err := a.Finish(); err == nil {
		t.Error("duplicate label: want error")
	}
	a = NewAsm(0x1001)
	if _, err := a.Finish(); err == nil {
		t.Error("misaligned base: want error")
	}
	a = NewAsm(0x1000)
	a.BrTo(BR, Zero, 1<<40)
	if _, err := a.Finish(); err == nil {
		t.Error("out-of-range BrTo: want error")
	}
}

func TestAsmBytes(t *testing.T) {
	a := NewAsm(0)
	a.Opr(ADDQ, R1, R2, R3)
	b, err := a.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	w := MustEncode(Inst{Op: ADDQ, Ra: R1, Rb: R2, Rc: R3})
	want := []byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("byte %d = %#x, want %#x", i, b[i], want[i])
		}
	}
}

func TestRegString(t *testing.T) {
	if R31.String() != "zero" || R4.String() != "r4" {
		t.Error("Reg.String wrong")
	}
}

func BenchmarkDecode(b *testing.B) {
	w := MustEncode(Inst{Op: LDL, Ra: R1, Rb: R2, Disp: 2})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(w); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecodeNeverPanics feeds random words to the decoder: decode or error,
// never panic; successful decodes re-encode to the identical word.
func TestDecodeNeverPanics(t *testing.T) {
	rnd := rand.New(rand.NewSource(78))
	for i := 0; i < 500000; i++ {
		w := rnd.Uint32()
		inst, err := Decode(w)
		if err != nil {
			continue
		}
		out, eerr := Encode(inst)
		if eerr != nil {
			t.Fatalf("decoded inst %+v does not re-encode: %v", inst, eerr)
		}
		// Memory/branch/PAL formats are bijective; operate formats have
		// must-be-zero bits that decode ignores, so compare semantically.
		back, derr := Decode(out)
		if derr != nil || back != inst {
			t.Fatalf("%#08x: re-encode round trip %+v != %+v", w, back, inst)
		}
	}
}

func TestMovImmInstructionBudget(t *testing.T) {
	// Immediate materialization stays within a small, predictable budget:
	// ≤2 instructions for sext32 values, ≤8 for arbitrary 64-bit ones.
	cases := []struct {
		v   int64
		max int
	}{
		{0, 1}, {1, 1}, {-1, 1}, {32767, 1}, {-32768, 1},
		{32768, 2}, {1 << 20, 1}, {1<<20 + 5, 2},
		{0x7FFFFFFF, 3}, {0x7FFF8000, 3}, {-0x80000000, 1},
		{1 << 33, 8}, {-(1 << 40), 8}, {0x0123456789ABCDEF, 10},
	}
	for _, c := range cases {
		a := NewAsm(0x1000)
		a.MovImm(R1, c.v)
		if a.Len() > c.max {
			t.Errorf("MovImm(%#x): %d insts, budget %d", c.v, a.Len(), c.max)
		}
	}
}

func TestBranchTargetRoundTripProperty(t *testing.T) {
	// For every in-range displacement, BranchTarget∘BrDispFor is identity.
	f := func(pcSel uint16, dSel int32) bool {
		pc := uint64(pcSel) * 4
		d := dSel % (1 << 20)
		target := uint64(int64(pc) + 4 + int64(d)*4)
		if int64(target) < 0 {
			return true
		}
		got, ok := BrDispFor(pc, target)
		if !ok {
			return false
		}
		i := Inst{Op: BR, Ra: Zero, Disp: got}
		return i.BranchTarget(pc) == target
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestFormatOfCoversAllOps(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		// Must not panic and must agree with the encodings table.
		f := FormatOf(op)
		w, err := Encode(exampleInst(op))
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		back, err := Decode(w)
		if err != nil {
			t.Fatalf("%v: decode: %v", op, err)
		}
		if FormatOf(back.Op) != f {
			t.Fatalf("%v: format changed across round trip", op)
		}
	}
}

func exampleInst(op Op) Inst {
	switch FormatOf(op) {
	case FormatPAL:
		return Inst{Op: op, Payload: 5}
	case FormatMem:
		return Inst{Op: op, Ra: R1, Rb: R2, Disp: 4}
	case FormatOpr:
		return Inst{Op: op, Ra: R1, Rb: R2, Rc: R3}
	case FormatBra:
		return Inst{Op: op, Ra: R1, Disp: 2}
	default:
		return Inst{Op: op, Ra: R1, Rb: R2}
	}
}

func TestSizeMaskAndExtremes(t *testing.T) {
	if sizeMask(8) != ^uint64(0) || sizeMask(1) != 0xFF || sizeMask(2) != 0xFFFF || sizeMask(4) != 0xFFFFFFFF {
		t.Fatal("sizeMask wrong")
	}
	// Quadword high extraction at offset 0 must be zero so OR is safe.
	if ExtHigh(^uint64(0), 0, 8) != 0 {
		t.Fatal("ExtHigh at aligned address must be 0")
	}
	// Mask high at offset 0 must preserve the quadword.
	if MskHigh(0x1234, 0, 8) != 0x1234 {
		t.Fatal("MskHigh at aligned address must be identity")
	}
	// Insert low of a full quadword at offset 0 is identity.
	if InsLow(0xDEADBEEF, 0, 8) != 0xDEADBEEF {
		t.Fatal("InsLow at aligned address must be identity")
	}
}

func TestDisasmAllOps(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		out := Disasm(0x1000, exampleInst(op))
		if len(out) == 0 {
			t.Fatalf("%d: empty disassembly", op)
		}
		mnemonic := op.String()
		if op == BR { // special-cased plain form
			mnemonic = "br"
		}
		if !strings.HasPrefix(out, mnemonic) {
			t.Errorf("Disasm(%v) = %q, want prefix %q", op, out, mnemonic)
		}
	}
}

func TestMemSizeConsistency(t *testing.T) {
	// Loads/stores declare a size; Aligns() implies size > 1; LDA/LDAH are
	// not memory accesses.
	for op := Op(0); op < numOps; op++ {
		sz := op.MemSize()
		if (op.IsLoad() || op.IsStore()) && sz == 0 {
			t.Errorf("%v: memory op without size", op)
		}
		if op.Aligns() && sz <= 1 {
			t.Errorf("%v: aligns but size %d", op, sz)
		}
		if (op == LDA || op == LDAH) && (op.IsLoad() || op.IsStore() || sz != 0) {
			t.Errorf("%v misclassified as memory access", op)
		}
	}
}

// TestDecodeTableExhaustive decodes a word for every primary opcode ×
// operate function × literal bit × jump type, with the other fields
// random: Decode must return the op a linear search of encodings finds for
// those fields, or an error when it finds none, and never panic.
func TestDecodeTableExhaustive(t *testing.T) {
	rnd := rand.New(rand.NewSource(29))
	for opcode := uint32(0); opcode < 64; opcode++ {
		for fn := uint32(0); fn < 128; fn++ {
			for lit := uint32(0); lit < 2; lit++ {
				for jt := uint32(0); jt < 4; jt++ {
					w := opcode<<26 | jt<<14 | lit<<12 | fn<<5 | rnd.Uint32()&(0x1F<<21|0x1F<<16|1<<13|0x1F)
					want, found := Op(0), false
					for op := Op(0); op < numOps; op++ {
						e := encodings[op]
						if e.opcode != opcode {
							continue
						}
						switch FormatOf(op) {
						case FormatOpr:
							found = e.fn == fn
						case FormatJmp:
							found = e.fn == jt
						default:
							found = true
						}
						if found {
							want = op
							break
						}
					}
					got, err := Decode(w)
					if found && (err != nil || got.Op != want) {
						t.Fatalf("Decode(%#08x) = %v, %v: want %v", w, got.Op, err, want)
					}
					if !found && err == nil {
						t.Fatalf("Decode(%#08x) = %v: want an error, no encoding has these fields", w, got.Op)
					}
				}
			}
		}
	}
}

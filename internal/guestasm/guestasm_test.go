package guestasm

import (
	"math/rand"
	"strings"
	"testing"

	"mdabt/internal/guest"
	"mdabt/internal/mem"
)

func run(t *testing.T, src string) *guest.CPU {
	t.Helper()
	img, err := Assemble(src, guest.CodeBase)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New()
	m.WriteBytes(guest.CodeBase, img)
	cpu := &guest.CPU{}
	cpu.Reset(guest.CodeBase)
	for steps := 0; !cpu.Halted; steps++ {
		if steps > 1<<20 {
			t.Fatal("program did not halt")
		}
		if err := cpu.Step(m, &guest.Access{}); err != nil {
			t.Fatal(err)
		}
	}
	return cpu
}

func TestAssembleBasicProgram(t *testing.T) {
	cpu := run(t, `
	; compute 10! mod 2^32 in eax
	        mov     eax, 1
	        mov     ecx, 1
	loop:   imul    eax, ecx
	        add     ecx, 1
	        cmp     ecx, 10
	        jle     loop
	        halt
	`)
	if cpu.R[guest.EAX] != 3628800 {
		t.Fatalf("eax = %d, want 3628800", cpu.R[guest.EAX])
	}
}

func TestAssembleMemoryForms(t *testing.T) {
	cpu := run(t, `
	        mov     ebx, 0x10000000
	        mov     eax, 0x11223344
	        mov     dword [ebx], eax
	        mov     word [ebx+4], eax
	        mov     byte [ebx+6], eax
	        mov     ecx, dword [ebx]
	        movzx   edx, word [ebx+4]
	        movsx   esi, byte [ebx+6]
	        mov     edi, 2
	        mov     ebp, dword [ebx+edi*2-4]   ; ebx+0
	        halt
	`)
	if cpu.R[guest.ECX] != 0x11223344 {
		t.Errorf("ecx = %#x", cpu.R[guest.ECX])
	}
	if cpu.R[guest.EDX] != 0x3344 {
		t.Errorf("edx = %#x", cpu.R[guest.EDX])
	}
	if cpu.R[guest.ESI] != 0x44 {
		t.Errorf("esi = %#x", cpu.R[guest.ESI])
	}
	if cpu.R[guest.EBP] != 0x11223344 {
		t.Errorf("ebp = %#x (scaled index)", cpu.R[guest.EBP])
	}
}

func TestAssembleFPAndStack(t *testing.T) {
	cpu := run(t, `
	        mov     ebx, 0x10000000
	        mov     eax, 7
	        mov     dword [ebx], eax
	        mov     dword [ebx+4], eax
	        fld     f0, qword [ebx]
	        fmov    f1, f0
	        fadd    f1, f0
	        fst     qword [ebx+8], f1
	        push    eax
	        pop     ecx
	        halt
	`)
	if cpu.F[1] != 2*cpu.F[0] || cpu.F[0] != 0x0000000700000007 {
		t.Errorf("f0=%#x f1=%#x", cpu.F[0], cpu.F[1])
	}
	if cpu.R[guest.ECX] != 7 {
		t.Errorf("ecx = %d", cpu.R[guest.ECX])
	}
}

func TestAssembleCallRet(t *testing.T) {
	cpu := run(t, `
	        mov     eax, 5
	        call    double
	        call    double
	        halt
	double: add     eax, eax
	        ret
	`)
	if cpu.R[guest.EAX] != 20 {
		t.Fatalf("eax = %d, want 20", cpu.R[guest.EAX])
	}
}

func TestAssembleConditionAliases(t *testing.T) {
	cpu := run(t, `
	        mov     eax, 1
	        cmp     eax, 1
	        jz      ok
	        mov     ebx, 99
	ok:     cmp     eax, 2
	        jnz     ok2
	        mov     ebx, 98
	ok2:    halt
	`)
	if cpu.R[guest.EBX] != 0 {
		t.Fatalf("ebx = %d, want 0 (aliases routed correctly)", cpu.R[guest.EBX])
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"bogus eax, 1",
		"mov eax",
		"mov 5, eax",
		"jmp [eax]",
		"jl 5",
		"mov eax, dword [5]",     // no base register
		"mov eax, [ebx+ecx*3]",   // bad scale
		"mov eax, word [ebx]",    // word load must be movzx/movsx
		"fld f0, dword [ebx]",    // fld requires qword
		"9bad: nop",              // invalid label
		"movzx eax, dword [ebx]", // movzx needs sub-dword size
		"push 5",
		"mov eax, [ebx+ecx+edx]", // too many registers
		"mov eax, 0x1ffffffff",   // out of range
		"shl eax, ebx",           // shift needs immediate
	}
	for _, src := range cases {
		if _, err := Assemble(src+"\nhalt\n", guest.CodeBase); err == nil {
			t.Errorf("Assemble(%q): want error", src)
		}
	}
	// Undefined label surfaces from the builder.
	if _, err := Assemble("jmp nowhere\n", guest.CodeBase); err == nil {
		t.Error("undefined label: want error")
	}
}

func TestErrorHasLineNumber(t *testing.T) {
	_, err := Assemble("nop\nnop\nbogus\n", guest.CodeBase)
	aerr, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T, want *Error", err)
	}
	if aerr.Line != 3 {
		t.Fatalf("error line = %d, want 3", aerr.Line)
	}
	if !strings.Contains(aerr.Error(), "line 3") {
		t.Fatalf("error text %q lacks line info", aerr.Error())
	}
}

// TestRoundTripThroughDisassembler assembles random instruction streams,
// disassembles them, reassembles the disassembly, and checks the images
// are identical.
func TestRoundTripThroughDisassembler(t *testing.T) {
	rnd := rand.New(rand.NewSource(9))
	b := guest.NewBuilder()
	regs := []guest.Reg{guest.EAX, guest.ECX, guest.EDX, guest.EBX, guest.EBP, guest.ESI, guest.EDI}
	for i := 0; i < 300; i++ {
		r := regs[rnd.Intn(len(regs))]
		r2 := regs[rnd.Intn(len(regs))]
		m := guest.MemRef{Base: r2, Disp: int32(rnd.Intn(512) - 128)}
		if rnd.Intn(2) == 0 {
			idx := regs[rnd.Intn(len(regs))]
			m.HasIndex = true
			m.Index = idx
			m.Scale = 1 << rnd.Intn(4)
		}
		switch rnd.Intn(10) {
		case 0:
			b.MovImm(r, int32(rnd.Uint32()))
		case 1:
			b.Mov(r, r2)
		case 2:
			b.Load(guest.LD4, r, m)
		case 3:
			b.Store(guest.ST2, m, r)
		case 4:
			b.Load(guest.LD2S, r, m)
		case 5:
			b.FLoad(guest.FReg(rnd.Intn(4)), m)
		case 6:
			b.ALU(guest.ADDrr, r, r2)
		case 7:
			b.ALUImm(guest.XORri, r, int32(rnd.Uint32()))
		case 8:
			b.Lea(r, m)
		case 9:
			b.Push(r)
		}
	}
	b.Halt()
	img, err := b.Build(guest.CodeBase)
	if err != nil {
		t.Fatal(err)
	}
	text, err := DisasmImage(img, guest.CodeBase)
	if err != nil {
		t.Fatal(err)
	}
	// Strip the address column to get pure assembly.
	var src strings.Builder
	for _, line := range strings.Split(text, "\n") {
		if idx := strings.IndexByte(line, '\t'); idx >= 0 {
			src.WriteString(line[idx+1:])
		}
		src.WriteByte('\n')
	}
	img2, err := Assemble(src.String(), guest.CodeBase)
	if err != nil {
		t.Fatalf("reassembling disassembly: %v\n%s", err, src.String())
	}
	if len(img) != len(img2) {
		t.Fatalf("round trip size %d != %d", len(img2), len(img))
	}
	for i := range img {
		if img[i] != img2[i] {
			t.Fatalf("round trip differs at byte %d", i)
		}
	}
}

func TestDisasmImageError(t *testing.T) {
	if _, err := DisasmImage([]byte{0xFF}, 0); err == nil {
		t.Fatal("garbage image: want error")
	}
}

func TestAssembleRepMovsd(t *testing.T) {
	cpu := run(t, `
	        mov     esi, 0x10000000
	        mov     edi, 0x10000100
	        mov     eax, 0x01020304
	        mov     dword [esi], eax
	        mov     dword [esi+4], eax
	        mov     ecx, 2
	        rep movsd
	        halt
	`)
	if cpu.R[guest.ECX] != 0 {
		t.Errorf("ecx = %d, want 0 after rep", cpu.R[guest.ECX])
	}
	if cpu.R[guest.ESI] != 0x10000008 || cpu.R[guest.EDI] != 0x10000108 {
		t.Errorf("esi/edi = %#x/%#x after rep", cpu.R[guest.ESI], cpu.R[guest.EDI])
	}
	if _, err := Assemble("rep movsw\nhalt\n", guest.CodeBase); err == nil {
		t.Error("rep movsw: want error")
	}
}

func TestMultipleLabelsOneLine(t *testing.T) {
	cpu := run(t, `
	a: b: c:  mov eax, 3
	          cmp eax, 3
	          je a2
	          halt
	a2:       mov ebx, 4
	          halt
	`)
	if cpu.R[guest.EBX] != 4 {
		t.Fatalf("ebx = %d", cpu.R[guest.EBX])
	}
}

func TestNumberFormats(t *testing.T) {
	cpu := run(t, `
	        mov eax, 0x10
	        mov ebx, -16
	        mov ecx, +7
	        mov edx, 0xFFFFFFFF     ; full-range unsigned accepted
	        halt
	`)
	if cpu.R[guest.EAX] != 16 || int32(cpu.R[guest.EBX]) != -16 || cpu.R[guest.ECX] != 7 {
		t.Fatalf("regs = %v", cpu.R)
	}
	if cpu.R[guest.EDX] != 0xFFFFFFFF {
		t.Fatalf("edx = %#x", cpu.R[guest.EDX])
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	cpu := run(t, `
	; leading comment

	        mov eax, 1   ; trailing comment
	   ; indented comment
	        halt
	`)
	if cpu.R[guest.EAX] != 1 {
		t.Fatal("comment handling broke execution")
	}
}

func TestLeaAndScaledIndex(t *testing.T) {
	cpu := run(t, `
	        mov ebx, 0x10000000
	        mov esi, 3
	        lea eax, [ebx+esi*8+5]
	        lea ecx, [eax]
	        halt
	`)
	want := uint32(0x10000000 + 3*8 + 5)
	if cpu.R[guest.EAX] != want || cpu.R[guest.ECX] != want {
		t.Fatalf("lea = %#x/%#x, want %#x", cpu.R[guest.EAX], cpu.R[guest.ECX], want)
	}
}

package host

import "fmt"

// Asm is a small host-code emitter used by the binary translator and the
// tests. It assembles a contiguous run of instruction words starting at a
// base address, with label/fixup support for local branches.
//
// Errors (bad displacement, unbound label) are sticky and reported by
// Finish, so emission code can be written straight-line. One Asm can emit
// any number of runs in turn: Reset starts the next one and keeps the
// buffers, so a reused assembler emits without allocating.
type Asm struct {
	base   uint64
	words  []uint32
	labels []int // Label -> word index; unbound while negative
	fixups []fixup
	err    error
}

// Label names a branch target of one emission, from NewLabel until the
// next Reset.
type Label int32

// unbound marks a label that has no word index yet.
const unbound = -1

type fixup struct {
	index int   // word to patch
	label Label // target label
}

// NewAsm returns an emitter whose first instruction lands at base. The base
// must be 4-byte aligned.
func NewAsm(base uint64) *Asm {
	a := &Asm{}
	a.Reset(base)
	return a
}

// Reset discards everything emitted so far, its labels and its error, and
// starts a new run at base, keeping the buffers. The words Finish returned
// are overwritten by the next emission.
func (a *Asm) Reset(base uint64) {
	a.base = base
	a.words = a.words[:0]
	a.labels = a.labels[:0]
	a.fixups = a.fixups[:0]
	a.err = nil
	if base%InstBytes != 0 {
		a.fail(fmt.Errorf("host: asm base %#x not instruction-aligned", base))
	}
}

func (a *Asm) fail(err error) {
	if a.err == nil {
		a.err = err
	}
}

// PC returns the address of the next instruction to be emitted.
func (a *Asm) PC() uint64 { return a.base + uint64(len(a.words))*InstBytes }

// Len returns the number of instructions emitted so far.
func (a *Asm) Len() int { return len(a.words) }

// Emit appends one instruction.
func (a *Asm) Emit(i Inst) {
	w, err := Encode(i)
	if err != nil {
		a.fail(err)
	}
	a.words = append(a.words, w)
}

// NewLabel returns a fresh label, to be bound once with Bind.
func (a *Asm) NewLabel() Label {
	a.labels = append(a.labels, unbound)
	return Label(len(a.labels) - 1)
}

// Bind binds l to the current PC.
func (a *Asm) Bind(l Label) {
	if a.labels[l] != unbound {
		a.fail(fmt.Errorf("host: asm: label %d bound twice", l))
		return
	}
	a.labels[l] = len(a.words)
}

// Mem emits a memory-format instruction: op ra, disp(rb).
func (a *Asm) Mem(op Op, ra Reg, disp int32, rb Reg) {
	a.Emit(Inst{Op: op, Ra: ra, Rb: rb, Disp: disp})
}

// Opr emits a register operate instruction: op ra, rb, rc.
func (a *Asm) Opr(op Op, ra, rb, rc Reg) {
	a.Emit(Inst{Op: op, Ra: ra, Rb: rb, Rc: rc})
}

// OprLit emits a literal operate instruction: op ra, #lit, rc.
func (a *Asm) OprLit(op Op, ra Reg, lit uint8, rc Reg) {
	a.Emit(Inst{Op: op, Ra: ra, Lit: lit, IsLit: true, Rc: rc})
}

// Mov emits a register move (BIS rs, rs, rd).
func (a *Asm) Mov(rs, rd Reg) { a.Opr(BIS, rs, rs, rd) }

// Br emits a branch-format instruction targeting a local label, fixed up at
// Finish time.
func (a *Asm) Br(op Op, ra Reg, l Label) {
	a.fixups = append(a.fixups, fixup{index: len(a.words), label: l})
	a.Emit(Inst{Op: op, Ra: ra})
}

// BrTo emits a branch-format instruction targeting an absolute address.
func (a *Asm) BrTo(op Op, ra Reg, target uint64) {
	d, ok := BrDispFor(a.PC(), target)
	if !ok {
		a.fail(fmt.Errorf("host: asm: branch at %#x to %#x out of range", a.PC(), target))
	}
	a.Emit(Inst{Op: op, Ra: ra, Disp: d})
}

// Jmp emits a jump-format instruction: op ra, (rb).
func (a *Asm) Jmp(op Op, ra, rb Reg) {
	a.Emit(Inst{Op: op, Ra: ra, Rb: rb})
}

// Brk emits a BRKBT runtime callback with the given service payload.
func (a *Asm) Brk(payload uint32) {
	a.Emit(Inst{Op: BRKBT, Payload: payload})
}

// MovImm materializes a 64-bit constant into r using LDA/LDAH/SLL
// combinations (2 instructions for values representable as sext32, more for
// wider constants).
func (a *Asm) MovImm(r Reg, v int64) {
	if v == int64(int32(v)) {
		lo := int16(v)
		hi := int32((v - int64(lo)) >> 16)
		switch {
		case hi == 0:
			a.Mem(LDA, r, int32(lo), Zero)
			return
		case hi == int32(int16(hi)):
			a.Mem(LDAH, r, hi, Zero)
			if lo != 0 {
				a.Mem(LDA, r, int32(lo), r)
			}
			return
		case hi == 0x8000:
			// The LDAH carry case (v near +2^31): split the high part over
			// two LDAHs — the intermediate overflows 32 bits but not 64.
			a.Mem(LDAH, r, 0x4000, Zero)
			a.Mem(LDAH, r, 0x4000, r)
			if lo != 0 {
				a.Mem(LDA, r, int32(lo), r)
			}
			return
		}
	}
	// General case: build from 16-bit chunks, shifting as we go.
	a.Mem(LDA, r, int32(int16(v>>48)), Zero)
	for shift := 32; shift >= 0; shift -= 16 {
		a.OprLit(SLL, r, 16, r)
		chunk := int16(v >> shift)
		if chunk != 0 {
			// LDA sign-extends; compensate by adding back 0x10000 when the
			// chunk is negative (the next shift folds the borrow away only
			// when one exists, so add explicitly).
			a.Mem(LDA, r, int32(chunk), r)
			if chunk < 0 {
				a.Mem(LDAH, r, 1, r)
			}
		}
	}
}

// Finish resolves fixups and returns the assembled instruction words, which
// stay valid until the next Reset.
func (a *Asm) Finish() ([]uint32, error) {
	for _, f := range a.fixups {
		idx := a.labels[f.label]
		if idx == unbound {
			a.fail(fmt.Errorf("host: asm: label %d never bound", f.label))
			continue
		}
		pc := a.base + uint64(f.index)*InstBytes
		target := a.base + uint64(idx)*InstBytes
		d, ok := BrDispFor(pc, target)
		if !ok {
			a.fail(fmt.Errorf("host: asm: branch to label %d out of range", f.label))
			continue
		}
		a.words[f.index] = a.words[f.index]&^0x1FFFFF | uint32(d)&0x1FFFFF
	}
	if a.err != nil {
		return nil, a.err
	}
	return a.words, nil
}

// Bytes returns the assembled code as little-endian bytes.
func (a *Asm) Bytes() ([]byte, error) {
	words, err := a.Finish()
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(words)*InstBytes)
	for i, w := range words {
		out[4*i] = byte(w)
		out[4*i+1] = byte(w >> 8)
		out[4*i+2] = byte(w >> 16)
		out[4*i+3] = byte(w >> 24)
	}
	return out, nil
}

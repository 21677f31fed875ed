package core

import (
	"fmt"

	"mdabt/internal/guest"
	"mdabt/internal/host"
)

// This file emits the two code shapes a memory operation can translate to:
// a plain (trap-prone) host memory instruction, and the Alpha "MDA code
// sequence" built from LDQ_U/STQ_U and the EXT/INS/MSK families (paper
// §III-A, Fig. 2 for loads; the classic handbook sequence for stores).
// Both the translator and the misalignment exception handler use these.

// memKind names a row of memKinds: the data access a memory site makes.
type memKind uint8

const (
	kindLD4 memKind = iota
	kindLD2Z
	kindLD2S
	kindST4
	kindST2
	kindFLD8
	kindFST8
)

// kindInfo is one memory kind's facts: its access, and the host code shape
// of each of its two translations.
type kindInfo struct {
	size  int  // access bytes
	store bool // writes memory
	// sext is the width in bits a load's value is sign-extended from; 0
	// for a zero-extended or full-width value.
	sext uint8
	// plain is the single trap-prone host op of the plain translation.
	plain host.Op
	// seqLen budgets the MDA sequence's instructions; it sizes the
	// exception handler's stubs, so the stub zone's layout depends on it.
	// The sign-extending loads share the longer budget.
	seqLen int
	// guest is the explicit-operand guest op making this access.
	guest guest.Op
}

// memKinds has one row per memKind.
var memKinds = [...]kindInfo{
	kindLD4:  {size: 4, sext: 32, plain: host.LDL, seqLen: 8, guest: guest.LD4},
	kindLD2Z: {size: 2, plain: host.LDWU, seqLen: 6, guest: guest.LD2Z},
	kindLD2S: {size: 2, sext: 16, plain: host.LDWU, seqLen: 8, guest: guest.LD2S},
	kindST4:  {size: 4, store: true, plain: host.STL, seqLen: 11, guest: guest.ST4},
	kindST2:  {size: 2, store: true, plain: host.STW, seqLen: 11, guest: guest.ST2},
	kindFLD8: {size: 8, plain: host.LDQ, seqLen: 6, guest: guest.FLD8},
	kindFST8: {size: 8, store: true, plain: host.STQ, seqLen: 11, guest: guest.FST8},
}

// info returns k's row; it panics on a kind with none, so the Run boundary
// classifies the bug instead of the emitter writing wrong code.
func (k memKind) info() *kindInfo {
	if int(k) >= len(memKinds) {
		panic(fmt.Sprintf("core: bad kind %d", k))
	}
	return &memKinds[k]
}

// guestKind maps a guest op to the kind of its data access: an explicit-
// operand op's own row; for the stack and string ops, the first row of
// their access size and direction (REPMOVS4's two dword streams share the
// load's row). Byte accesses and non-memory ops never misalign: no row.
func guestKind(op guest.Op) (memKind, bool) {
	for k := range memKinds {
		r := &memKinds[k]
		if r.guest == op || !op.IsExplicitMem() && r.size == op.MemSize() && r.store == !op.IsLoad() {
			return memKind(k), true
		}
	}
	return 0, false
}

// stubKind maps a faulting host memory opcode to the MDA sequence the
// exception handler must emit: the first row with that plain op.
// Sign-extension fixups that follow the faulting instruction in the
// original code still execute, so a 2-byte sequence is always the
// zero-extending one.
func stubKind(op host.Op) (memKind, bool) {
	for k := range memKinds {
		if memKinds[k].plain == op {
			return memKind(k), true
		}
	}
	return 0, false
}

// emitSext16 sign-extends a 16-bit value in r to 64 bits.
func emitSext16(a *host.Asm, r host.Reg) {
	a.OprLit(host.SLL, r, 48, r)
	a.OprLit(host.SRA, r, 48, r)
}

// emitPlain emits the plain translation of kind: the single trap-prone
// memory instruction plus any extension fixup. It returns the address of
// the memory instruction itself (the patchable/faulting one).
func emitPlain(a *host.Asm, k memKind, data host.Reg, base host.Reg, disp int32) uint64 {
	r := k.info()
	memPC := a.PC()
	a.Mem(r.plain, data, disp, base)
	if r.sext == 16 {
		emitSext16(a, data) // LDWU zero-extends; LDL sign-extends itself
	}
	return memPC
}

// emitMDALoad emits the misalignment-safe load sequence (paper Fig. 2).
// base+disp is the effective address; disp+size-1 must fit the 16-bit
// memory displacement (the addressing helper guarantees it).
func emitMDALoad(a *host.Asm, r *kindInfo, data host.Reg, base host.Reg, disp int32) {
	f := host.MDAFamilyOf(r.size)
	a.Mem(host.LDQU, tmpD, disp, base)                 // low quadword
	a.Mem(host.LDQU, tmpC, disp+int32(r.size)-1, base) // high quadword
	a.Mem(host.LDA, tmpEA, disp, base)                 // effective address
	a.Opr(f.ExtL, tmpD, tmpEA, tmpD)
	a.Opr(f.ExtH, tmpC, tmpEA, tmpC)
	a.Opr(host.BIS, tmpC, tmpD, data)
	switch r.sext {
	case 32:
		a.Opr(host.ADDL, host.Zero, data, data) // sign-extend longword
	case 16:
		emitSext16(a, data)
	}
}

// emitMDAStore emits the misalignment-safe store sequence: read-merge-write
// of the covering quadwords, high quadword stored first so the aliased
// (aligned) case resolves to the complete low merge.
func emitMDAStore(a *host.Asm, r *kindInfo, data host.Reg, base host.Reg, disp int32) {
	f := host.MDAFamilyOf(r.size)
	hiDisp := disp + int32(r.size) - 1
	a.Mem(host.LDA, tmpEA, disp, base)
	a.Mem(host.LDQU, tmpC, hiDisp, base) // high quadword
	a.Mem(host.LDQU, tmpD, disp, base)   // low quadword
	a.Opr(f.InsH, data, tmpEA, tmpA)
	a.Opr(f.InsL, data, tmpEA, tmpB)
	a.Opr(f.MskH, tmpC, tmpEA, tmpC)
	a.Opr(f.MskL, tmpD, tmpEA, tmpD)
	a.Opr(host.BIS, tmpC, tmpA, tmpC)
	a.Opr(host.BIS, tmpD, tmpB, tmpD)
	a.Mem(host.STQU, tmpC, hiDisp, base)
	a.Mem(host.STQU, tmpD, disp, base)
}

// emitMDA emits kind's MDA sequence: the load or the store one.
func emitMDA(a *host.Asm, k memKind, data host.Reg, base host.Reg, disp int32) {
	if r := k.info(); r.store {
		emitMDAStore(a, r, data, base, disp)
	} else {
		emitMDALoad(a, r, data, base, disp)
	}
}

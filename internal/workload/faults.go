// Guest-fault workloads: generated programs that exercise the engine's
// guest-visible memory fault semantics (DESIGN.md §12) — page-straddling
// misaligned accesses against mixed page permissions, self-modifying guests
// that rewrite their own translated MDA sites, and multi-context sets run
// back-to-back on one engine via Engine.Reset.
//
// Unlike the SPEC models in gen.go these programs carry a page-protection
// plan and, for the fault-expected variants, the precise fault the run must
// end with: the faulting guest PC is unknown at generation time (it depends
// on nothing), but the faulting address, access size, and direction are
// fixed by construction, so cosim oracles can assert them against both the
// interpreter reference and every translated mechanism.
package workload

import (
	"errors"
	"fmt"
	"strings"

	"mdabt/internal/guest"
	"mdabt/internal/mem"
)

// ProtRegion is one entry of a program's page-protection plan.
type ProtRegion struct {
	Addr     uint64
	Size     uint64
	Prot     mem.Prot
	Unmapped bool // Unmap instead of Protect
}

// FaultProgram is a generated guest program with a page-protection plan.
type FaultProgram struct {
	Name string
	Main []byte // loaded at guest.CodeBase
	Data []byte // loaded at guest.DataBase (may be nil)
	Prot []ProtRegion

	Iterations int

	// ExpectFault declares that the run must end in a guest fault at
	// FaultAddr (FaultWrite tells stores from loads). The faulting guest PC
	// is program-dependent; oracles compare it between engine and reference
	// rather than against a constant.
	ExpectFault bool
	FaultAddr   uint64
	FaultWrite  bool
}

// Entry returns the program entry point.
func (p *FaultProgram) Entry() uint32 { return guest.CodeBase }

// Load places the code and data images into memory and applies the
// protection plan. Call after mem.Reset / Engine.Reset (both drop
// protections).
func (p *FaultProgram) Load(m *mem.Memory) {
	m.WriteBytes(guest.CodeBase, p.Main)
	if p.Data != nil {
		m.WriteBytes(guest.DataBase, p.Data)
	}
	for _, r := range p.Prot {
		if r.Unmapped {
			m.Unmap(r.Addr, r.Size)
		} else {
			m.Protect(r.Addr, r.Size, r.Prot)
		}
	}
}

// Data-image layout for the straddle programs (offsets from guest.DataBase).
// The hot straddle sits on the page-0/page-1 boundary (both pages stay rwx);
// the red page — the protection-restricted one — is page 3, so the fault
// probe straddles the page-2/page-3 boundary: two legal bytes, two
// restricted ones.
const (
	fsTableOff  = 0x00 // pointer cell the flip block rewrites
	fsFillerOff = 0x40 // aligned filler slots
	fsIters     = 400
	fsFlipAt    = fsIters - 5
)

// StraddleKind selects a page-straddling workload variant.
type StraddleKind int

// Straddle variants.
const (
	// StraddleOK keeps every touched page accessible: the flip moves the hot
	// pointer into the guard page after the red page, so translated stores
	// trap at the machine layer (guard bit) but pass CheckRange and complete
	// raw — the success-expected half of the mixed-permission matrix.
	StraddleOK StraddleKind = iota
	// StraddleStoreFault flips the pointer to straddle into a read-only
	// page: the load half succeeds, the store faults on its high bytes.
	StraddleStoreFault
	// StraddleLoadUnmapped flips the pointer to straddle into an unmapped
	// page: the load faults before the store is reached.
	StraddleLoadUnmapped
)

func (k StraddleKind) String() string {
	switch k {
	case StraddleOK:
		return "straddle-ok"
	case StraddleStoreFault:
		return "straddle-store-fault"
	default:
		return "straddle-load-unmapped"
	}
}

// GenerateStraddle builds a page-straddling MDA workload: a hot loop whose
// load/store pair straddles a page boundary through a table-held pointer,
// flipped near the end of the run toward the variant's target region. The
// hot site executes hundreds of times first, so every mechanism has
// translated (and, under EH/SPEH, patched) it before the flip lands.
func GenerateStraddle(kind StraddleKind) (*FaultProgram, error) {
	page := uint64(mem.PageSize)
	redPage := uint64(guest.DataBase) + 3*page
	hotPtr := uint32(uint64(guest.DataBase) + 1*page - 2)

	var flipPtr uint32
	p := &FaultProgram{Name: kind.String(), Iterations: fsIters}
	switch kind {
	case StraddleOK:
		// Misaligned but fully legal store inside the guard page (red+1):
		// machine-layer trap, guest-level pass.
		flipPtr = uint32(redPage + page + 2)
		p.Prot = []ProtRegion{{Addr: redPage, Size: page, Prot: mem.ProtRead}}
	case StraddleStoreFault:
		flipPtr = uint32(redPage - 2)
		p.Prot = []ProtRegion{{Addr: redPage, Size: page, Prot: mem.ProtRead}}
		p.ExpectFault = true
		p.FaultAddr = redPage
		p.FaultWrite = true
	case StraddleLoadUnmapped:
		flipPtr = uint32(redPage - 2)
		p.Prot = []ProtRegion{{Addr: redPage, Size: page, Unmapped: true}}
		p.ExpectFault = true
		p.FaultAddr = redPage
	default:
		return nil, fmt.Errorf("workload: unknown straddle kind %d", kind)
	}

	b := guest.NewBuilder()
	b.MovImm(guest.EBP, guest.DataBase)
	b.MovImm(guest.EDI, 0)
	b.MovImm(guest.EAX, 0)
	b.MovImm(guest.EDX, 0)
	b.Jmp("loop")

	b.Label("loop")
	b.CmpImm(guest.EDI, fsFlipAt)
	b.Jcc(guest.E, "flip")
	b.Label("resume")
	// A little aligned filler keeps the block from being all-MDA.
	b.Load(guest.LD4, guest.EAX, guest.MemRef{Base: guest.EBP, Disp: fsFillerOff})
	b.ALUImm(guest.ADDri, guest.EDX, 1)
	b.Store(guest.ST4, guest.MemRef{Base: guest.EBP, Disp: fsFillerOff + 8}, guest.EDX)
	// The hot straddling pair, through the table pointer.
	b.Load(guest.LD4, guest.EBX, guest.MemRef{Base: guest.EBP, Disp: fsTableOff})
	b.Load(guest.LD4, guest.ECX, guest.MemRef{Base: guest.EBX})
	b.ALU(guest.XORrr, guest.EAX, guest.ECX)
	b.Store(guest.ST4, guest.MemRef{Base: guest.EBX}, guest.ECX)
	b.ALUImm(guest.ADDri, guest.EDI, 1)
	b.CmpImm(guest.EDI, fsIters)
	b.Jcc(guest.L, "loop")
	b.Halt()

	b.Label("flip")
	b.MovImm(guest.ESI, int32(flipPtr))
	b.Store(guest.ST4, guest.MemRef{Base: guest.EBP, Disp: fsTableOff}, guest.ESI)
	b.Jmp("resume")

	img, err := b.Build(guest.CodeBase)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", p.Name, err)
	}
	p.Main = img
	p.Data = straddleData(hotPtr)
	return p, nil
}

// straddleData builds the straddle data image: the pointer cell plus two
// pages of patterned bytes (the hot straddle's pages).
func straddleData(hotPtr uint32) []byte {
	d := make([]byte, 2*mem.PageSize)
	for i := range d {
		d[i] = byte(i*11 + 3)
	}
	d[fsTableOff+0] = byte(hotPtr)
	d[fsTableOff+1] = byte(hotPtr >> 8)
	d[fsTableOff+2] = byte(hotPtr >> 16)
	d[fsTableOff+3] = byte(hotPtr >> 24)
	return d
}

// Self-modifying workload layout.
const (
	smStubOff = 0x1000 // stub offset within the code image
	smIters   = 300
	smFlipAt  = smIters / 2
)

// GenerateSelfModifying builds a guest that calls a small stub holding a
// misaligned load (an MDA site every mechanism translates, and EH/SPEH
// patch), then — halfway through the run — overwrites the stub's bytes in
// place with a variant reading a different misaligned address. The rewrite
// runs from translated code, so the engine's code-page write watch must
// catch it, invalidate the stale translation (and any patched stubs), and
// retranslate; a DBT that misses it keeps executing the old pointer and
// diverges from the interpreter reference.
func GenerateSelfModifying() (*FaultProgram, error) {
	stub := func(ptr int32) ([]byte, error) {
		sb := guest.NewBuilder()
		sb.MovImm(guest.EBX, ptr)
		sb.Load(guest.LD4, guest.ECX, guest.MemRef{Base: guest.EBX})
		sb.ALU(guest.XORrr, guest.EAX, guest.ECX)
		sb.Ret()
		return sb.Build(guest.CodeBase + smStubOff)
	}
	stubA, err := stub(guest.DataBase + fsFillerOff + 1)
	if err != nil {
		return nil, fmt.Errorf("workload smc: stub A: %w", err)
	}
	stubB, err := stub(guest.DataBase + fsFillerOff + 0x41)
	if err != nil {
		return nil, fmt.Errorf("workload smc: stub B: %w", err)
	}
	if len(stubA) != len(stubB) {
		return nil, fmt.Errorf("workload smc: stub variants differ in size (%d vs %d)", len(stubA), len(stubB))
	}

	b := guest.NewBuilder()
	b.MovImm(guest.EBP, guest.DataBase)
	b.MovImm(guest.EDI, 0)
	b.MovImm(guest.EAX, 0)
	b.Jmp("loop")

	b.Label("loop")
	b.CmpImm(guest.EDI, smFlipAt)
	b.Jcc(guest.E, "rewrite")
	b.Label("resume")
	b.CallAbs(guest.CodeBase + smStubOff)
	b.ALUImm(guest.ADDri, guest.EDI, 1)
	b.CmpImm(guest.EDI, smIters)
	b.Jcc(guest.L, "loop")
	b.Halt()

	// The rewrite block stores variant B over the stub, one dword at a time
	// (the tail chunk may spill past the RET into dead padding; both
	// variants share it, so the spill is behaviour-neutral).
	b.Label("rewrite")
	b.MovImm(guest.EBX, guest.CodeBase+smStubOff)
	padded := append([]byte{}, stubB...)
	for len(padded)%4 != 0 {
		padded = append(padded, 0)
	}
	for off := 0; off < len(padded); off += 4 {
		chunk := int32(uint32(padded[off]) | uint32(padded[off+1])<<8 |
			uint32(padded[off+2])<<16 | uint32(padded[off+3])<<24)
		b.MovImm(guest.ESI, chunk)
		b.Store(guest.ST4, guest.MemRef{Base: guest.EBX, Disp: int32(off)}, guest.ESI)
	}
	b.Jmp("resume")

	img, err := b.Build(guest.CodeBase)
	if err != nil {
		return nil, fmt.Errorf("workload smc: %w", err)
	}
	if len(img) > smStubOff {
		return nil, fmt.Errorf("workload smc: main image (%d bytes) reaches the stub at %#x", len(img), smStubOff)
	}
	full := make([]byte, smStubOff+len(stubA))
	copy(full, img)
	copy(full[smStubOff:], stubA)

	d := make([]byte, 0x100)
	for i := range d {
		d[i] = byte(i*7 + 1)
	}
	return &FaultProgram{
		Name:       "smc-rewrite",
		Main:       full,
		Data:       d,
		Iterations: smIters,
	}, nil
}

// FaultPrograms returns the full guest-fault workload set: the three
// straddle variants plus the self-modifying rewriter. The set doubles as
// the multi-context suite — run the programs back-to-back on one engine
// with Engine.Reset between them to exercise protection-table and
// watch-state teardown across guests.
func FaultPrograms() ([]*FaultProgram, error) {
	var out []*FaultProgram
	for _, k := range []StraddleKind{StraddleOK, StraddleStoreFault, StraddleLoadUnmapped} {
		p, err := GenerateStraddle(k)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	smc, err := GenerateSelfModifying()
	if err != nil {
		return nil, err
	}
	return append(out, smc), nil
}

// ErrUnknownFaultProgram is wrapped by FaultProgramByName for a name that
// is not in the fault workload set.
var ErrUnknownFaultProgram = errors.New("unknown fault workload")

// FaultProgramByName returns the fault workload called name. An unknown
// name fails with ErrUnknownFaultProgram and the list of known names.
func FaultProgramByName(name string) (*FaultProgram, error) {
	progs, err := FaultPrograms()
	if err != nil {
		return nil, err
	}
	names := make([]string, len(progs))
	for i, p := range progs {
		if p.Name == name {
			return p, nil
		}
		names[i] = p.Name
	}
	return nil, fmt.Errorf("%w %q (have %s)", ErrUnknownFaultProgram, name, strings.Join(names, ", "))
}

package core

import (
	"fmt"
	"testing"

	"mdabt/internal/faultinject"
	"mdabt/internal/guest"
	"mdabt/internal/machine"
	"mdabt/internal/mem"
	"mdabt/internal/workload"
)

// The guest-fault cosim: every mechanism must deliver precise,
// interpreter-identical faults for the page-straddling workloads, and must
// track the self-modifying rewriter bit-for-bit (DESIGN.md §12). "Precise"
// is checked three ways: the faulting PC and mem.Fault match the reference,
// the register file matches at the fault point, and the guest-visible
// memory windows are byte-identical — a partially completed MDA store
// would show up as a divergence in the red page's neighbours.

// faultWindows returns the guest-visible memory regions compared between
// engine and reference: the data arena through the guard page, and the
// (possibly self-modified) code image.
func faultWindows(p *workload.FaultProgram) [][2]uint64 {
	return [][2]uint64{
		{guest.DataBase, 5 * uint64(mem.PageSize)},
		{guest.CodeBase, uint64(len(p.Main))},
	}
}

// faultReference interprets a FaultProgram and returns its final CPU, the
// fault it ended with (nil for success-expected programs), and the memory.
func faultReference(t *testing.T, p *workload.FaultProgram) (guest.CPU, *guest.Fault, *mem.Memory, map[uint32]bool) {
	t.Helper()
	m := mem.New()
	p.Load(m)
	c, err := RunCensus(m, p.Entry(), 50_000_000)
	var sites map[uint32]bool
	if c != nil {
		sites = c.Profile().StaticSites()
	}
	if p.ExpectFault {
		gf, ok := AsGuestFault(err)
		if !ok {
			t.Fatalf("%s: reference ended with %v, want a guest fault", p.Name, err)
		}
		if gf.Mem.Addr != p.FaultAddr || gf.Mem.Write != p.FaultWrite {
			t.Fatalf("%s: reference fault %v, want addr %#x write %v", p.Name, gf, p.FaultAddr, p.FaultWrite)
		}
		return c.FinalCPU, gf, m, sites
	}
	if err != nil {
		t.Fatalf("%s: reference: %v", p.Name, err)
	}
	if !c.Halted {
		t.Fatal("reference run did not halt")
	}
	return c.FinalCPU, nil, m, sites
}

// compareFaultState checks registers (not flags — dead flags may legally
// differ after reconstruction), EIP, and the guest-visible memory windows.
func compareFaultState(t *testing.T, label string, p *workload.FaultProgram, ref, got guest.CPU, refMem, gotMem *mem.Memory) {
	t.Helper()
	for r := guest.Reg(0); r < guest.NumRegs; r++ {
		if ref.R[r] != got.R[r] {
			t.Errorf("%s: %v = %#x, want %#x", label, r, got.R[r], ref.R[r])
		}
	}
	for f := guest.FReg(0); f < guest.NumFRegs; f++ {
		if ref.F[f] != got.F[f] {
			t.Errorf("%s: %v = %#x, want %#x", label, f, got.F[f], ref.F[f])
		}
	}
	// EIP is compared only at a fault point (where it must name the faulting
	// instruction); after a clean HALT the engine and the census interpreter
	// legitimately park it differently, as in the main cosim.
	if p.ExpectFault && ref.EIP != got.EIP {
		t.Errorf("%s: EIP = %#x, want %#x", label, got.EIP, ref.EIP)
	}
	for _, w := range faultWindows(p) {
		rb := make([]byte, w[1])
		gb := make([]byte, w[1])
		refMem.ReadBytes(w[0], rb)
		gotMem.ReadBytes(w[0], gb)
		for i := range rb {
			if rb[i] != gb[i] {
				t.Errorf("%s: mem[%#x] = %#x, want %#x", label, w[0]+uint64(i), gb[i], rb[i])
				return // one byte localizes the divergence
			}
		}
	}
}

// runFaultDBT executes a FaultProgram under one configuration.
func runFaultDBT(t *testing.T, p *workload.FaultProgram, opt Options) (guest.CPU, error, *mem.Memory, *Engine) {
	t.Helper()
	m := mem.New()
	p.Load(m)
	mach := machine.New(m, machine.DefaultParams())
	e := NewEngine(m, mach, opt)
	err := e.Run(p.Entry(), 500_000_000)
	return e.FinalCPU(), err, m, e
}

// checkFaultOutcome asserts one engine run's outcome against the reference.
func checkFaultOutcome(t *testing.T, label string, p *workload.FaultProgram, refGF *guest.Fault, err error, e *Engine) {
	t.Helper()
	if !p.ExpectFault {
		if err != nil {
			t.Errorf("%s: run failed: %v", label, err)
		}
		return
	}
	if err == nil {
		t.Errorf("%s: run halted, want guest fault at %#x", label, p.FaultAddr)
		return
	}
	if IsInternal(err) {
		t.Errorf("%s: guest fault surfaced as Internal: %v", label, err)
	}
	if Classify(err) != Permanent {
		t.Errorf("%s: guest fault classified %v, want Permanent", label, Classify(err))
	}
	gf, ok := AsGuestFault(err)
	if !ok {
		t.Errorf("%s: error %v carries no guest fault", label, err)
		return
	}
	if gf.PC != refGF.PC {
		t.Errorf("%s: faulting PC %#x, want %#x", label, gf.PC, refGF.PC)
	}
	if gf.Mem != refGF.Mem {
		t.Errorf("%s: fault %v, want %v", label, &gf.Mem, &refGF.Mem)
	}
	if n := e.Stats().GuestFaults; n != 1 {
		t.Errorf("%s: GuestFaults = %d, want 1", label, n)
	}
}

// TestFaultCosimAllMechanisms runs the guest-fault workload set under every
// mechanism configuration and compares each against the
// interpreter reference.
func TestFaultCosimAllMechanisms(t *testing.T) {
	progs, err := workload.FaultPrograms()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range progs {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			refCPU, refGF, refMem, sites := faultReference(t, p)
			for _, opt := range allConfigs(sites) {
				opt := opt
				label := fmt.Sprintf("%s/%v(re=%v,rt=%v,mv=%v,sa=%v)", p.Name, opt.Mechanism, opt.Rearrange, opt.Retranslate, opt.MultiVersion, opt.StaticAlign)
				gotCPU, err, gotMem, e := runFaultDBT(t, p, opt)
				checkFaultOutcome(t, label, p, refGF, err, e)
				compareFaultState(t, label, p, refCPU, gotCPU, refMem, gotMem)
				if ierr := e.CheckInvariants(); ierr != nil {
					t.Errorf("%s: %v", label, ierr)
				}
			}
		})
	}
}

// TestSelfModifyingInvalidates asserts the SMC workload actually exercises
// the invalidation path: stale translations dropped, decode entries
// flushed, and the post-rewrite stub retranslated.
func TestSelfModifyingInvalidates(t *testing.T) {
	p, err := workload.GenerateSelfModifying()
	if err != nil {
		t.Fatal(err)
	}
	for _, mech := range []Mechanism{Direct, ExceptionHandling, DPEH} {
		opt := DefaultOptions(mech)
		opt.HeatThreshold = 3
		_, rerr, _, e := runFaultDBT(t, p, opt)
		if rerr != nil {
			t.Fatalf("%v: %v", mech, rerr)
		}
		s := e.Stats()
		if s.SMCInvalidations == 0 {
			t.Errorf("%v: SMCInvalidations = 0, want > 0", mech)
		}
		if s.SMCDecodeFlushes == 0 {
			t.Errorf("%v: SMCDecodeFlushes = 0, want > 0", mech)
		}
	}
}

// faultChaosPlan is chaosPlan extended with guaranteed spurious
// access-fault deliveries: the handler must tell a fake protection trap
// from a real one (CheckRange) and re-execute it raw without disturbing
// guest state.
func faultChaosPlan(seed int64, rate float64) *faultinject.Plan {
	p := faultinject.New(seed).RateAll(rate)
	if rate > 0 {
		p.At(faultinject.ForcedFlush, 2, 7).
			At(faultinject.Translate, 3).
			At(faultinject.AllocStub, 1).
			At(faultinject.SpuriousTrap, 5).
			At(faultinject.DuplicateTrap, 1).
			At(faultinject.SpuriousAccessFault, 3, 9)
	}
	return p
}

// TestChaosGuestFaults drives the guest-fault workload set through the
// chaos matrix: injected flushes, translation failures, spurious and
// duplicate traps, and spurious access faults must never change the
// delivered guest fault (or the clean halt), the architectural state, or
// any engine invariant.
func TestChaosGuestFaults(t *testing.T) {
	progs, err := workload.FaultPrograms()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range progs {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			refCPU, refGF, refMem, sites := faultReference(t, p)
			for _, rate := range chaosRates {
				for _, opt := range allConfigs(sites) {
					opt := opt
					plan := faultChaosPlan(11, rate)
					opt.FaultPlan = plan
					opt.SelfCheck = true
					label := fmt.Sprintf("%s/%v(re=%v,rt=%v,mv=%v,sa=%v)/rate=%g",
						p.Name, opt.Mechanism, opt.Rearrange, opt.Retranslate, opt.MultiVersion, opt.StaticAlign, rate)
					gotCPU, rerr, gotMem, e := runFaultDBT(t, p, opt)
					checkFaultOutcome(t, label, p, refGF, rerr, e)
					compareFaultState(t, label, p, refCPU, gotCPU, refMem, gotMem)
					if ierr := e.CheckInvariants(); ierr != nil {
						t.Errorf("%s: %v", label, ierr)
					}
					if rate > 0 && plan.Total() == 0 {
						t.Errorf("%s: chaos run fired no faults", label)
					}
				}
			}
		})
	}
}

// TestMultiContextReset runs the whole fault workload set back-to-back on
// ONE engine, Engine.Reset between guests, and requires outcomes identical
// to fresh engines — protection tables, watch state, attribution tables,
// and the fault pad must all tear down and rebuild cleanly.
func TestMultiContextReset(t *testing.T) {
	progs, err := workload.FaultPrograms()
	if err != nil {
		t.Fatal(err)
	}
	for _, mech := range []Mechanism{Direct, ExceptionHandling, DPEH} {
		opt := DefaultOptions(mech)
		opt.HeatThreshold = 3
		opt.SelfCheck = true

		m := mem.New()
		mach := machine.New(m, machine.DefaultParams())
		shared := NewEngine(m, mach, opt)
		for round := 0; round < 2; round++ {
			for _, p := range progs {
				label := fmt.Sprintf("%v/round%d/%s", mech, round, p.Name)
				shared.Reset(opt)
				p.Load(m)
				sharedErr := shared.Run(p.Entry(), 500_000_000)

				freshCPU, freshErr, freshMem, _ := runFaultDBT(t, p, opt)
				if (sharedErr == nil) != (freshErr == nil) {
					t.Fatalf("%s: shared engine err %v, fresh %v", label, sharedErr, freshErr)
				}
				if sharedErr != nil {
					sg, ok1 := AsGuestFault(sharedErr)
					fg, ok2 := AsGuestFault(freshErr)
					if !ok1 || !ok2 || sg.PC != fg.PC || sg.Mem != fg.Mem {
						t.Fatalf("%s: shared fault %v, fresh %v", label, sharedErr, freshErr)
					}
				}
				compareFaultState(t, label, p, freshCPU, shared.FinalCPU(), freshMem, m)
				if ierr := shared.CheckInvariants(); ierr != nil {
					t.Fatalf("%s: %v", label, ierr)
				}
			}
		}
	}
}

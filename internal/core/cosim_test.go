package core

import (
	"fmt"
	"math/rand"
	"testing"

	"mdabt/internal/guest"
	"mdabt/internal/machine"
	"mdabt/internal/mem"
	"mdabt/internal/store"
)

// allConfigs enumerates every mechanism configuration the co-simulation
// must validate.
func allConfigs(staticSites map[uint32]bool) []Options {
	var configs []Options
	add := func(o Options) { configs = append(configs, o) }

	add(DefaultOptions(Direct))
	st := DefaultOptions(StaticProfile)
	st.StaticSites = staticSites
	add(st)
	dp := DefaultOptions(DynamicProfile)
	dp.HeatThreshold = 3
	add(dp)
	eh := DefaultOptions(ExceptionHandling)
	add(eh)
	ehr := DefaultOptions(ExceptionHandling)
	ehr.Rearrange = true
	add(ehr)
	dpeh := DefaultOptions(DPEH)
	dpeh.HeatThreshold = 3
	add(dpeh)
	dpehR := dpeh
	dpehR.Retranslate = true
	dpehR.RetransThreshold = 2
	add(dpehR)
	dpehM := dpeh
	dpehM.MultiVersion = true
	add(dpehM)
	dpehMB := dpehM
	dpehMB.MVBlockGranularity = true
	add(dpehMB)
	dpehAll := dpeh
	dpehAll.Retranslate = true
	dpehAll.MultiVersion = true
	add(dpehAll)
	dpehAd := dpeh
	dpehAd.Adaptive = true
	dpehAd.AdaptiveStreak = 8
	add(dpehAd)
	ehIbtc := DefaultOptions(ExceptionHandling)
	ehIbtc.IBTC = true
	add(ehIbtc)
	dpehIbtc := dpeh
	dpehIbtc.Retranslate = true
	dpehIbtc.IBTC = true
	add(dpehIbtc)
	// The +staticalign layer must be state-transparent over any base
	// mechanism, including the mixed/adaptive emitters it intercepts.
	dSA := DefaultOptions(Direct)
	dSA.StaticAlign = true
	add(dSA)
	ehSA := DefaultOptions(ExceptionHandling)
	ehSA.StaticAlign = true
	add(ehSA)
	dpehSA := dpeh
	dpehSA.Retranslate = true
	dpehSA.MultiVersion = true
	dpehSA.StaticAlign = true
	add(dpehSA)
	dpehAdSA := dpehAd
	dpehAdSA.StaticAlign = true
	add(dpehAdSA)
	// The SPEH hybrid: train-marked sites eager, late sites trap-and-patch.
	sp := DefaultOptions(SPEH)
	sp.StaticSites = staticSites
	add(sp)
	spR := sp
	spR.Rearrange = true
	add(spR)
	spSA := sp
	spSA.StaticAlign = true
	add(spSA)
	// SPEH with an empty profile degenerates to pure exception handling.
	add(DefaultOptions(SPEH))
	return configs
}

// reference interprets the program and returns the final CPU plus the data
// arena contents.
func reference(t *testing.T, img []byte, dataInit []byte) (guest.CPU, []byte) {
	t.Helper()
	m := mem.New()
	m.WriteBytes(guest.CodeBase, img)
	m.WriteBytes(guest.DataBase, dataInit)
	c, err := RunCensus(m, guest.CodeBase, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Halted {
		t.Fatal("reference run did not halt")
	}
	arena := make([]byte, len(dataInit))
	m.ReadBytes(guest.DataBase, arena)
	return c.FinalCPU, arena
}

// runDBT executes the program under one translator configuration and
// returns the final state.
func runDBT(t *testing.T, img []byte, dataInit []byte, opt Options) (guest.CPU, []byte, *Engine) {
	t.Helper()
	m := mem.New()
	m.WriteBytes(guest.CodeBase, img)
	m.WriteBytes(guest.DataBase, dataInit)
	mach := machine.New(m, machine.DefaultParams())
	e := NewEngine(m, mach, opt)
	if err := e.Run(guest.CodeBase, 500_000_000); err != nil {
		t.Fatalf("%v: %v", opt.Mechanism, err)
	}
	arena := make([]byte, len(dataInit))
	m.ReadBytes(guest.DataBase, arena)
	return e.FinalCPU(), arena, e
}

// compareState asserts the DBT's architectural state matches the reference.
func compareState(t *testing.T, label string, ref, got guest.CPU, refArena, gotArena []byte) {
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
	for i := range refArena {
		if refArena[i] != gotArena[i] {
			t.Errorf("%s: data[%#x] = %#x, want %#x", label, i, gotArena[i], refArena[i])
			if t.Failed() {
				return // one byte is enough to localize
			}
		}
	}
}

// censusProfile trains the program's profile with the census interpreter
// — the "train profile" for StaticProfile configs.
func censusProfile(t *testing.T, img []byte, dataInit []byte) *store.TrapProfile {
	t.Helper()
	m := mem.New()
	m.WriteBytes(guest.CodeBase, img)
	m.WriteBytes(guest.DataBase, dataInit)
	tp, err := TrainProfile(m, guest.CodeBase, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// censusSites is censusProfile's static site set.
func censusSites(t *testing.T, img []byte, dataInit []byte) map[uint32]bool {
	t.Helper()
	return censusProfile(t, img, dataInit).StaticSites()
}

// cosim runs the program under every configuration and compares against
// the reference interpreter.
func cosim(t *testing.T, name string, img []byte, dataInit []byte) {
	t.Helper()
	refCPU, refArena := reference(t, img, dataInit)
	static := censusSites(t, img, dataInit)
	for _, opt := range allConfigs(static) {
		opt := opt
		label := fmt.Sprintf("%s/%v(re=%v,rt=%v,mv=%v,sa=%v)", name, opt.Mechanism, opt.Rearrange, opt.Retranslate, opt.MultiVersion, opt.StaticAlign)
		gotCPU, gotArena, e := runDBT(t, img, dataInit, opt)
		compareState(t, label, refCPU, gotCPU, refArena, gotArena)
		// Every cosim run doubles as a verifier pass over the emitted code.
		if findings := e.Lint(); len(findings) > 0 {
			t.Errorf("%s: translation lint: %v (%d findings)", label, findings[0], len(findings))
		}
		if opt.StaticAlign {
			if v := e.Stats().StaticAlignViolations; v != 0 {
				t.Errorf("%s: %d static-align violations", label, v)
			}
		}
	}
}

func buildImg(t *testing.T, build func(b *guest.Builder)) []byte {
	t.Helper()
	b := guest.NewBuilder()
	build(b)
	img, err := b.Build(guest.CodeBase)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func patternData(n int) []byte {
	d := make([]byte, n)
	for i := range d {
		d[i] = byte(i*7 + 3)
	}
	return d
}

// TestCosimMisalignedLoop is the canonical hot loop with misaligned
// accesses of every size, plus aligned traffic.
func TestCosimMisalignedLoop(t *testing.T) {
	img := buildImg(t, func(b *guest.Builder) {
		b.MovImm(guest.EBX, guest.DataBase)
		b.MovImm(guest.ECX, 0) // i
		b.MovImm(guest.EAX, 0) // acc
		b.Label("loop")
		// Misaligned 4-byte load at +2, aligned at +8.
		b.Load(guest.LD4, guest.EDX, guest.MemRef{Base: guest.EBX, Disp: 2})
		b.ALU(guest.ADDrr, guest.EAX, guest.EDX)
		b.Load(guest.LD4, guest.EDX, guest.MemRef{Base: guest.EBX, Disp: 8})
		b.ALU(guest.XORrr, guest.EAX, guest.EDX)
		// Misaligned 2-byte signed load, misaligned 2-byte store.
		b.Load(guest.LD2S, guest.ESI, guest.MemRef{Base: guest.EBX, Disp: 5})
		b.ALU(guest.ADDrr, guest.EAX, guest.ESI)
		b.Store(guest.ST2, guest.MemRef{Base: guest.EBX, Disp: 17}, guest.EAX)
		// Misaligned 8-byte FP load/store.
		b.FLoad(guest.F0, guest.MemRef{Base: guest.EBX, Disp: 20})
		b.FAdd(guest.F1, guest.F0)
		b.FStore(guest.MemRef{Base: guest.EBX, Disp: 36}, guest.F1)
		// Misaligned 4-byte store.
		b.Store(guest.ST4, guest.MemRef{Base: guest.EBX, Disp: 49}, guest.EAX)
		b.ALUImm(guest.ADDri, guest.ECX, 1)
		b.CmpImm(guest.ECX, 200)
		b.Jcc(guest.L, "loop")
		b.Halt()
	})
	cosim(t, "misloop", img, patternData(256))
}

// TestCosimIndexedAddressing exercises base+index*scale+disp and large
// displacements.
func TestCosimIndexedAddressing(t *testing.T) {
	img := buildImg(t, func(b *guest.Builder) {
		b.MovImm(guest.EBX, guest.DataBase)
		b.MovImm(guest.ECX, 0)
		b.MovImm(guest.EAX, 0)
		b.Label("loop")
		b.Load(guest.LD4, guest.EDX, guest.MemRef{Base: guest.EBX, HasIndex: true, Index: guest.ECX, Scale: 4, Disp: 3})
		b.ALU(guest.ADDrr, guest.EAX, guest.EDX)
		b.Store(guest.ST4, guest.MemRef{Base: guest.EBX, HasIndex: true, Index: guest.ECX, Scale: 8, Disp: 401}, guest.EAX)
		b.Load(guest.LD2Z, guest.EDX, guest.MemRef{Base: guest.EBX, HasIndex: true, Index: guest.ECX, Scale: 2, Disp: 100})
		b.ALU(guest.XORrr, guest.EAX, guest.EDX)
		b.ALUImm(guest.ADDri, guest.ECX, 1)
		b.CmpImm(guest.ECX, 50)
		b.Jcc(guest.L, "loop")
		b.Halt()
	})
	cosim(t, "indexed", img, patternData(2048))
}

// TestCosimCallsAndStack exercises CALL/RET/PUSH/POP translation.
func TestCosimCallsAndStack(t *testing.T) {
	img := buildImg(t, func(b *guest.Builder) {
		b.MovImm(guest.EBX, guest.DataBase)
		b.MovImm(guest.ECX, 0)
		b.MovImm(guest.EAX, 0)
		b.Label("loop")
		b.Push(guest.ECX)
		b.Call("work")
		b.Pop(guest.ECX)
		b.ALUImm(guest.ADDri, guest.ECX, 1)
		b.CmpImm(guest.ECX, 100)
		b.Jcc(guest.L, "loop")
		b.Halt()
		b.Label("work")
		b.Load(guest.LD4, guest.EDX, guest.MemRef{Base: guest.EBX, Disp: 6}) // MDA
		b.ALU(guest.ADDrr, guest.EAX, guest.EDX)
		b.Store(guest.ST4, guest.MemRef{Base: guest.EBX, Disp: 32}, guest.EAX)
		b.Ret()
	})
	cosim(t, "calls", img, patternData(64))
}

// TestCosimPhaseChange flips a pointer from aligned to misaligned halfway
// through — the behaviour-change scenario behind retranslation (§IV-C).
func TestCosimPhaseChange(t *testing.T) {
	img := buildImg(t, func(b *guest.Builder) {
		b.MovImm(guest.EBX, guest.DataBase) // aligned base
		b.MovImm(guest.ECX, 0)
		b.MovImm(guest.EAX, 0)
		b.Label("loop")
		b.Load(guest.LD4, guest.EDX, guest.MemRef{Base: guest.EBX, Disp: 4})
		b.ALU(guest.ADDrr, guest.EAX, guest.EDX)
		b.Store(guest.ST4, guest.MemRef{Base: guest.EBX, Disp: 12}, guest.EAX)
		b.ALUImm(guest.ADDri, guest.ECX, 1)
		b.CmpImm(guest.ECX, 150)
		b.Jcc(guest.E, "flip")
		b.CmpImm(guest.ECX, 300)
		b.Jcc(guest.L, "loop")
		b.Halt()
		b.Label("flip")
		b.ALUImm(guest.ADDri, guest.EBX, 1) // now misaligned
		b.Jmp("loop")
	})
	cosim(t, "phase", img, patternData(128))
}

// TestCosimMixedAlignment alternates one site between aligned and
// misaligned addresses — the multi-version scenario (§IV-D).
func TestCosimMixedAlignment(t *testing.T) {
	img := buildImg(t, func(b *guest.Builder) {
		b.MovImm(guest.EBX, guest.DataBase)
		b.MovImm(guest.ECX, 0)
		b.MovImm(guest.EAX, 0)
		b.Label("loop")
		// EA alternates DataBase+0 / DataBase+1 with ECX parity.
		b.Mov(guest.ESI, guest.ECX)
		b.ALUImm(guest.ANDri, guest.ESI, 1)
		b.Load(guest.LD4, guest.EDX, guest.MemRef{Base: guest.EBX, HasIndex: true, Index: guest.ESI, Scale: 1, Disp: 8})
		b.ALU(guest.ADDrr, guest.EAX, guest.EDX)
		b.ALUImm(guest.ADDri, guest.ECX, 1)
		b.CmpImm(guest.ECX, 120)
		b.Jcc(guest.L, "loop")
		b.Halt()
	})
	cosim(t, "mixed", img, patternData(64))
}

// TestCosimRandomPrograms generates constrained random programs and
// co-simulates each under every configuration.
func TestCosimRandomPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			img := randomProgram(t, seed)
			cosim(t, fmt.Sprintf("rand%d", seed), img, patternData(4096))
		})
	}
}

// randomProgram builds a terminating random program: an outer counted loop
// around straight-line random bodies with forward conditional skips and
// balanced push/pop pairs.
func randomProgram(t *testing.T, seed int64) []byte {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	b := guest.NewBuilder()
	// ebx: aligned base; esi: misaligned base; edi: loop counter.
	b.MovImm(guest.EBX, guest.DataBase)
	b.MovImm(guest.ESI, guest.DataBase+1024+int32(rnd.Intn(7)))
	b.MovImm(guest.EDI, int32(40+rnd.Intn(60)))
	b.MovImm(guest.EAX, int32(rnd.Uint32()))
	b.MovImm(guest.ECX, int32(rnd.Uint32()))
	b.MovImm(guest.EDX, int32(rnd.Uint32()))
	b.MovImm(guest.EBP, int32(rnd.Uint32()))
	b.Label("top")
	regs := []guest.Reg{guest.EAX, guest.ECX, guest.EDX, guest.EBP}
	bases := []guest.Reg{guest.EBX, guest.ESI}
	nBody := 10 + rnd.Intn(20)
	skips := 0
	for i := 0; i < nBody; i++ {
		r := regs[rnd.Intn(len(regs))]
		r2 := regs[rnd.Intn(len(regs))]
		base := bases[rnd.Intn(len(bases))]
		m := guest.MemRef{Base: base, Disp: int32(rnd.Intn(512))}
		if rnd.Intn(3) == 0 {
			m.HasIndex = true
			m.Index = r2
			m.Scale = 1
			m.Disp = int32(rnd.Intn(16))
			// Clamp the index contribution: use a masked register.
			b.ALUImm(guest.ANDri, r2, 0xFF)
		}
		switch rnd.Intn(15) {
		case 14:
			if rnd.Intn(2) == 0 {
				b.Call("leafMem")
			} else {
				b.Call("leafALU")
			}
		case 12:
			b.Lea(r, m)
		case 13:
			if rnd.Intn(2) == 0 {
				b.Load(guest.LD1S, r, m)
			} else {
				b.Load(guest.LD1Z, r, m)
			}
		case 0:
			b.Load(guest.LD4, r, m)
		case 1:
			b.Load(guest.LD2Z, r, m)
		case 2:
			b.Load(guest.LD2S, r, m)
		case 3:
			b.Store(guest.ST4, m, r)
		case 4:
			b.Store(guest.ST2, m, r)
		case 5:
			b.Store(guest.ST1, m, r)
		case 6:
			f := guest.FReg(rnd.Intn(guest.NumFRegs))
			if rnd.Intn(2) == 0 {
				b.FLoad(f, m)
			} else {
				b.FStore(m, f)
			}
		case 7:
			ops := []guest.Op{guest.ADDrr, guest.SUBrr, guest.ANDrr, guest.ORrr, guest.XORrr, guest.IMULrr}
			b.ALU(ops[rnd.Intn(len(ops))], r, r2)
		case 8:
			ops := []guest.Op{guest.ADDri, guest.SUBri, guest.ANDri, guest.ORri, guest.XORri, guest.IMULri}
			b.ALUImm(ops[rnd.Intn(len(ops))], r, int32(rnd.Uint32()))
		case 9:
			ops := []guest.Op{guest.SHLri, guest.SHRri, guest.SARri}
			b.ALUImm(ops[rnd.Intn(len(ops))], r, int32(rnd.Intn(32)))
		case 10:
			b.Push(r)
			b.ALUImm(guest.XORri, r, int32(rnd.Uint32())) // scramble
			b.Pop(r)
		case 11:
			// Bounded string copy: mask the count, point esi/edi into the
			// arena with random (possibly misaligned) offsets. EDI is the
			// outer loop counter, so preserve it around the copy.
			if rnd.Intn(2) == 0 {
				b.Push(guest.EDI)
				b.MovImm(guest.ESI, guest.DataBase+int32(rnd.Intn(256)))
				b.MovImm(guest.EDI, guest.DataBase+2048+int32(rnd.Intn(256)))
				b.MovImm(guest.ECX, int32(rnd.Intn(12)))
				b.Emit(guest.Inst{Op: guest.REPMOVS4})
				b.Pop(guest.EDI)
				break
			}
			// Forward conditional skip over a couple of instructions.
			label := fmt.Sprintf("skip%d_%d", seed, skips)
			skips++
			conds := []guest.Cond{guest.E, guest.NE, guest.L, guest.GE, guest.B, guest.AE, guest.S, guest.NS, guest.LE, guest.G, guest.BE, guest.A}
			if rnd.Intn(2) == 0 {
				b.Cmp(r, r2)
			} else {
				b.CmpImm(r, int32(rnd.Uint32()))
			}
			b.Jcc(conds[rnd.Intn(len(conds))], label)
			b.ALUImm(guest.ADDri, r2, 13)
			b.Load(guest.LD4, r2, guest.MemRef{Base: guest.EBX, Disp: int32(rnd.Intn(64))})
			b.Label(label)
		}
	}
	b.ALUImm(guest.SUBri, guest.EDI, 1)
	b.CmpImm(guest.EDI, 0)
	b.Jcc(guest.G, "top")
	b.Halt()
	// Two leaf subroutines reachable from the body (case 14): one touches
	// misaligned memory, one is pure ALU.
	b.Label("leafMem")
	b.Load(guest.LD4, guest.EAX, guest.MemRef{Base: guest.ESI, Disp: int32(rnd.Intn(64))})
	b.ALUImm(guest.ADDri, guest.EAX, 13)
	b.Store(guest.ST2, guest.MemRef{Base: guest.EBX, Disp: int32(rnd.Intn(64))}, guest.EAX)
	b.Ret()
	b.Label("leafALU")
	b.ALUImm(guest.XORri, guest.ECX, int32(rnd.Uint32()))
	b.ALUImm(guest.SHRri, guest.ECX, 3)
	b.Ret()
	img, err := b.Build(guest.CodeBase)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestCosimStringCopy exercises REPMOVS4 (the memcpy idiom) with every
// combination of src/dst alignment under every mechanism configuration.
func TestCosimStringCopy(t *testing.T) {
	for _, offs := range [][2]int32{{0, 0}, {2, 0}, {0, 2}, {2, 6}, {1, 3}} {
		offs := offs
		img := buildImg(t, func(b *guest.Builder) {
			b.MovImm(guest.EDX, 0)
			b.Label("outer")
			b.MovImm(guest.ESI, guest.DataBase+offs[0])
			b.MovImm(guest.EDI, guest.DataBase+512+offs[1])
			b.MovImm(guest.ECX, 24)
			b.Emit(guest.Inst{Op: guest.REPMOVS4})
			b.ALUImm(guest.ADDri, guest.EDX, 1)
			b.CmpImm(guest.EDX, 60)
			b.Jcc(guest.L, "outer")
			b.Halt()
		})
		cosim(t, "strcopy", img, patternData(1024))
	}
}

// TestStringCopyZeroCount checks the count-zero edge case end to end.
func TestStringCopyZeroCount(t *testing.T) {
	img := buildImg(t, func(b *guest.Builder) {
		b.MovImm(guest.ESI, guest.DataBase)
		b.MovImm(guest.EDI, guest.DataBase+64)
		b.MovImm(guest.ECX, 0)
		b.Emit(guest.Inst{Op: guest.REPMOVS4})
		b.MovImm(guest.EAX, 7)
		b.Halt()
	})
	cosim(t, "strcopy0", img, patternData(256))
}

// TestCosimSoak is a heavier randomized co-simulation pass (skipped in
// -short mode): more seeds, longer programs, all configurations.
func TestCosimSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	for seed := int64(100); seed < 130; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			img := randomProgram(t, seed)
			cosim(t, fmt.Sprintf("soak%d", seed), img, patternData(4096))
		})
	}
}

package workload

import (
	"fmt"
	"math"

	"mdabt/internal/guest"
	"mdabt/internal/mem"
)

// Input selects the benchmark input set. Train and ref differ in the
// alignment of the input-dependent pointer groups (Table IV behaviour).
type Input int

// Input sets.
const (
	Train Input = iota
	Ref
)

func (in Input) String() string {
	if in == Train {
		return "train"
	}
	return "ref"
}

// BenchStoreKey is the persistent-store program identity of a benchmark
// model run on an input: "bench-NAME-ref" or "bench-NAME-train". dbtrun
// and dbtserve both use it, so artifacts trained by one front end warm the
// other.
func BenchStoreKey(name string, in Input) string {
	return "bench-" + name + "-" + in.String()
}

// Data-image layout (offsets from guest.DataBase).
const (
	tableOff   = 0x000 // group pointer table, 4 bytes per group
	fillerOff  = 0x400 // aligned filler arena
	arenasOff  = 0x800 // per-group arenas
	arenaSize  = 64
	fillerA    = 16 // aligned accesses per filler inner-loop pass
	misOff     = 1  // misalignment offset applied to group pointers (odd: misaligns every access width)
	earlyIter  = 30 // iteration at which early-onset groups flip
	sitesPerGp = 4
)

// siteClass is a group's alignment behaviour.
type siteClass uint8

const (
	classAlways siteClass = iota // misaligned on every execution
	classMostly                  // misaligned 7/8 of executions
	classHalf                    // misaligned 1/2
	classRarely                  // misaligned 1/4
	classLate                    // aligned until Iterations/2, then misaligned
	classEarly                   // aligned until iteration 30, then misaligned
	classTrain                   // aligned under train input, misaligned under ref
)

// volume is the long-run fraction of a group's executions that misalign
// (under the ref input). flipFrac is the post-flip fraction of the run for
// onset classes.
func (c siteClass) volume(flipFrac float64) float64 {
	switch c {
	case classMostly:
		return 7.0 / 8
	case classHalf:
		return 0.5
	case classRarely:
		return 0.25
	case classLate:
		return flipFrac
	default:
		return 1
	}
}

// group is one pointer-sharing cluster of memory sites.
type group struct {
	class siteClass
	inLib bool
	fp    bool // quadword sites
	// duty gates the group's execution to one iteration in duty+1 (a
	// power-of-two mask). Onset and input-dependent classes use it to hit
	// their MDA-volume targets with sub-group precision.
	duty int
}

// Program is a generated benchmark workload.
type Program struct {
	Spec Spec

	Main []byte // loaded at guest.CodeBase
	Lib  []byte // loaded at guest.SharedLib (may be nil)
	// Data images for the two inputs (loaded at guest.DataBase).
	trainData, refData []byte

	Iterations int
	FillerReps int // filler inner-loop trip count (R)
	Gate       int // MDA groups execute every Gate-th iteration
	Groups     int
	MDASites   int
	LibGroups  int

	aligned bool // alignment-optimized variant (Figure 1)
	arena   int  // per-group arena stride (padding grows it)
}

// Load places the program and the chosen input's data image into memory.
func (p *Program) Load(m *mem.Memory, in Input) {
	m.WriteBytes(guest.CodeBase, p.Main)
	if p.Lib != nil {
		m.WriteBytes(guest.SharedLib, p.Lib)
	}
	data := p.refData
	if in == Train {
		data = p.trainData
	}
	m.WriteBytes(guest.DataBase, data)
}

// Entry returns the program entry point.
func (p *Program) Entry() uint32 { return guest.CodeBase }

func clampI(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Generate builds the guest program modelling spec. The generator solves
// for the filler volume and iteration count that hit the spec's MDA ratio
// and a scaled MDA total within a bounded simulation budget.
func Generate(spec Spec) (*Program, error) {
	return generate(spec, false, arenaSize)
}

// GenerateAligned builds the "compiled with alignment optimization"
// variant of spec (paper Fig. 1): the instruction stream is identical, but
// every pointer the input provides is naturally aligned and the code-level
// misalignment offsets are zero. arenaBytes pads each data arena, modelling
// the working-set growth of alignment padding (§II: "the performance gains
// from aligned data accesses could be outweighed by the increased data
// working set size").
func GenerateAligned(spec Spec, arenaBytes int) (*Program, error) {
	if arenaBytes < arenaSize {
		arenaBytes = arenaSize
	}
	return generate(spec, true, arenaBytes)
}

func generate(spec Spec, aligned bool, arenaBytes int) (*Program, error) {
	p := &Program{Spec: spec, aligned: aligned, arena: arenaBytes}

	// Static site population, scaled from Table I's NMI.
	nSites := clampI(spec.PaperNMI/8, 2, 120)
	nGroups := (nSites + sitesPerGp - 1) / sitesPerGp
	p.MDASites = nGroups * sitesPerGp
	p.Groups = nGroups

	// Distribute groups over behaviour classes. Late/early/train targets
	// are MDA-volume fractions, hit with sub-group precision by duty-cycle
	// gating; mostly/half/rarely are site fractions (Fig. 15 counts
	// instructions).
	baseVol := float64(nGroups*sitesPerGp) * 0.93 // approximate per-iteration MDA volume
	type gated struct {
		class siteClass
		n     int
		duty  int
	}
	var special []gated
	plan := func(c siteClass, frac float64) {
		if frac <= 0 {
			return
		}
		target := frac * baseVol
		// Cap each special class at a quarter of the groups so the regular
		// population (always/mostly/half/rarely) survives. Iterating duty
		// ascending with strict improvement prefers the least-gated plan.
		nCap := nGroups / 4
		if nCap < 1 {
			nCap = 1
		}
		bestN, bestDuty, bestErr := 0, 0, math.Inf(1)
		for _, duty := range []int{0, 1, 3, 7, 15, 31, 63} {
			per := float64(sitesPerGp) * c.volume(spec.flipFraction()) / float64(duty+1)
			n := int(math.Round(target / per))
			if n < 1 {
				n = 1
			}
			if n > nCap {
				n = nCap
			}
			if err := math.Abs(float64(n)*per - target); err < bestErr-1e-9 {
				bestN, bestDuty, bestErr = n, duty, err
			}
		}
		special = append(special, gated{class: c, n: bestN, duty: bestDuty})
	}
	plan(classLate, spec.LateFrac)
	plan(classEarly, spec.EarlyFrac)
	plan(classTrain, spec.TrainMissFrac)

	groups := make([]group, nGroups)
	cursor := 0
	for _, sp := range special {
		for i := 0; i < sp.n && cursor < nGroups; i++ {
			groups[cursor] = group{class: sp.class, duty: sp.duty}
			cursor++
		}
	}
	nOf := func(frac float64) int {
		if frac <= 0 {
			return 0
		}
		n := int(math.Round(float64(nGroups) * frac))
		if n == 0 {
			n = 1
		}
		return n
	}
	for _, mix := range []struct {
		class siteClass
		n     int
	}{
		{classMostly, nOf(spec.FracMostly)},
		{classHalf, nOf(spec.FracHalf)},
		{classRarely, nOf(spec.FracRarely)},
	} {
		for i := 0; i < mix.n && cursor < nGroups; i++ {
			groups[cursor] = group{class: mix.class}
			cursor++
		}
	}
	for cursor < nGroups {
		groups[cursor] = group{class: classAlways}
		cursor++
	}
	libGoal := int(math.Round(float64(nGroups) * spec.LibFrac))
	for i := range groups {
		groups[i].fp = spec.FPHeavy && i%3 != 2
		groups[i].inLib = i < libGoal
	}
	p.LibGroups = libGoal

	// Rare-MDA benchmarks gate the MDA section to one iteration in 64.
	p.Gate = 1
	if spec.PaperRatio < 0.0001 {
		p.Gate = 64
	}

	// Expected MDAs per iteration.
	mdaEff := 0.0
	for _, g := range groups {
		mdaEff += sitesPerGp * g.class.volume(spec.flipFraction()) / float64(g.duty+1)
	}
	mdaEff /= float64(p.Gate)

	// Solve the filler trip count R for the target MDA ratio:
	// ratio ≈ mdaEff / (R*fillerA + groupRefs + mdaSites/Gate).
	ratio := spec.PaperRatio
	if ratio <= 0 {
		ratio = 0.00003
	}
	groupRefs := float64(nGroups+p.MDASites)/float64(p.Gate) + 2 // table loads + sites + lib call/ret
	need := mdaEff/ratio - groupRefs
	r := int(math.Round(need / fillerA))
	maxR := 400
	if !spec.Selected {
		maxR = 600
	}
	p.FillerReps = clampI(r, 1, maxR)

	// Iteration count: hit a scaled MDA total within a bounded budget.
	targetMDA := spec.PaperMDAs / 2e4
	iters := 2000
	if mdaEff > 0 {
		iters = int(targetMDA / mdaEff)
	}
	instsPerIter := p.FillerReps*(3*fillerA+3) + (8*nGroups)/p.Gate + 12
	if spec.Selected {
		floor := 4000
		if spec.IterFloor > 0 {
			floor = spec.IterFloor
		}
		budgetIters := 24_000_000 / instsPerIter
		iters = clampI(iters, floor, 20000)
		if iters > budgetIters {
			iters = clampI(budgetIters, min(floor, 1500), 20000)
		}
	} else {
		floor := 200
		if spec.IterFloor > 0 {
			floor = spec.IterFloor
		}
		iters = clampI(iters, floor, 1500)
		budgetIters := 3_000_000 / instsPerIter
		if iters > budgetIters {
			iters = clampI(budgetIters, min(floor, 100), 1500)
		}
	}
	if iters%2 == 1 {
		iters++ // keep the half-ratio classes exact
	}
	p.Iterations = iters

	if err := p.emit(groups); err != nil {
		return nil, err
	}
	p.buildData(groups)
	return p, nil
}

// emitGroup emits one group's pointer load, alignment-conditioning code and
// memory sites into b. i (EDI) is the iteration counter. off is the
// misalignment offset (0 for the aligned variant, which keeps the
// instruction stream identical while eliminating every MDA).
func emitGroup(b *guest.Builder, g group, idx int, off int32) {
	skip := fmt.Sprintf("gd%d", idx)
	if g.duty > 0 {
		b.Mov(guest.ESI, guest.EDI)
		b.ALUImm(guest.ANDri, guest.ESI, int32(g.duty))
		b.CmpImm(guest.ESI, 0)
		b.Jcc(guest.NE, skip)
	}
	b.Load(guest.LD4, guest.EBX, guest.MemRef{Base: guest.EBP, Disp: int32(4 * idx)})
	// The sometimes-aligned classes derive their misalignment offset
	// arithmetically from the iteration counter — branchlessly, so the
	// sites stay inside one basic block and genuinely alternate alignment
	// at a single translated site (the situation multi-version code
	// targets, §IV-D). A branch here would split the block and give each
	// path a monomorphic copy of the site.
	switch g.class {
	case classMostly:
		// Misaligned except one execution in 8: off × ((i&7 + 7) >> 3).
		b.Mov(guest.ESI, guest.EDI)
		b.ALUImm(guest.ANDri, guest.ESI, 7)
		b.ALUImm(guest.ADDri, guest.ESI, 7)
		b.ALUImm(guest.SHRri, guest.ESI, 3)
		b.ALUImm(guest.IMULri, guest.ESI, off)
		b.ALU(guest.ADDrr, guest.EBX, guest.ESI)
	case classHalf:
		// Misaligned on odd iterations: off × (i&1).
		b.Mov(guest.ESI, guest.EDI)
		b.ALUImm(guest.ANDri, guest.ESI, 1)
		b.ALUImm(guest.IMULri, guest.ESI, off)
		b.ALU(guest.ADDrr, guest.EBX, guest.ESI)
	case classRarely:
		// Misaligned one execution in 4: off × (1 − ((i&3 + 3) >> 2)).
		b.Mov(guest.ESI, guest.EDI)
		b.ALUImm(guest.ANDri, guest.ESI, 3)
		b.ALUImm(guest.ADDri, guest.ESI, 3)
		b.ALUImm(guest.SHRri, guest.ESI, 2)
		b.ALUImm(guest.XORri, guest.ESI, 1)
		b.ALUImm(guest.IMULri, guest.ESI, off)
		b.ALU(guest.ADDrr, guest.EBX, guest.ESI)
	}
	// Four sites at 8-aligned displacements off the group pointer.
	kinds := []int{0, 1, 2, 3}
	for s, k := range kinds {
		disp := int32(8 + 8*s)
		m := guest.MemRef{Base: guest.EBX, Disp: disp}
		if g.fp {
			switch k {
			case 0, 2:
				b.FLoad(guest.FReg(s%guest.NumFRegs), m)
			case 1:
				b.FStore(m, guest.FReg(s%guest.NumFRegs))
			default:
				b.Load(guest.LD4, guest.EAX, m)
			}
		} else {
			switch k {
			case 0:
				b.Load(guest.LD4, guest.EAX, m)
			case 1:
				b.Store(guest.ST4, m, guest.EAX)
			case 2:
				b.Load(guest.LD2Z, guest.EDX, m)
			default:
				b.Store(guest.ST2, m, guest.EDX)
			}
		}
	}
	if g.duty > 0 {
		b.Label(skip)
	}
}

// emit builds the main and library code images.
func (p *Program) emit(groups []group) error {
	spec := p.Spec
	off := int32(misOff)
	if p.aligned {
		off = 0
	}
	var lateGroups, earlyGroups []int
	for i, g := range groups {
		switch g.class {
		case classLate:
			lateGroups = append(lateGroups, i)
		case classEarly:
			earlyGroups = append(earlyGroups, i)
		}
	}

	// Library image first (its entry address is fixed).
	if p.LibGroups > 0 {
		lb := guest.NewBuilder()
		for i, g := range groups {
			if g.inLib {
				emitGroup(lb, g, i, off)
			}
		}
		lb.Ret()
		img, err := lb.Build(guest.SharedLib)
		if err != nil {
			return fmt.Errorf("workload %s: lib: %w", spec.Name, err)
		}
		p.Lib = img
	}

	b := guest.NewBuilder()
	b.MovImm(guest.EBP, guest.DataBase)
	b.MovImm(guest.EDI, 0)
	b.MovImm(guest.EAX, 0)
	b.MovImm(guest.EDX, 0)
	b.Jmp("loop")

	b.Label("loop")
	if len(lateGroups) > 0 {
		flipAt := int32(float64(p.Iterations) * (1 - spec.flipFraction()))
		if flipAt < earlyIter*2 {
			flipAt = earlyIter * 2 // keep the flip past the profiling window
		}
		b.CmpImm(guest.EDI, flipAt)
		b.Jcc(guest.E, "flipLate")
		b.Label("resumeLate")
	}
	if len(earlyGroups) > 0 {
		b.CmpImm(guest.EDI, earlyIter)
		b.Jcc(guest.E, "flipEarly")
		b.Label("resumeEarly")
	}

	// Aligned filler: R passes over fillerA aligned slots.
	b.MovImm(guest.ECX, 0)
	b.Label("fill")
	for k := 0; k < fillerA; k++ {
		m := guest.MemRef{Base: guest.EBP, Disp: int32(fillerOff + 8*k)}
		if spec.FPHeavy {
			if k%4 != 3 {
				b.FLoad(guest.FReg(k%guest.NumFRegs), m)
			} else {
				b.FStore(m, guest.FReg(k%guest.NumFRegs))
			}
			b.FAdd(guest.FReg(k%guest.NumFRegs), guest.FReg((k+1)%guest.NumFRegs))
			b.ALUImm(guest.ADDri, guest.EAX, 3)
		} else {
			if k%4 != 3 {
				b.Load(guest.LD4, guest.EAX, m)
			} else {
				b.Store(guest.ST4, m, guest.EAX)
			}
			// Two ALU ops per access keep the memory-op density at the
			// ~1-in-3 level typical of SPEC code.
			b.ALUImm(guest.ADDri, guest.EDX, 1)
			b.ALU(guest.XORrr, guest.EDX, guest.EAX)
		}
	}
	b.ALUImm(guest.ADDri, guest.ECX, 1)
	b.CmpImm(guest.ECX, int32(p.FillerReps))
	b.Jcc(guest.L, "fill")

	// MDA section, gated for rare-MDA benchmarks.
	if p.Gate > 1 {
		b.Mov(guest.ESI, guest.EDI)
		b.ALUImm(guest.ANDri, guest.ESI, int32(p.Gate-1))
		b.CmpImm(guest.ESI, 0)
		b.Jcc(guest.NE, "skipMDA")
	}
	for i, g := range groups {
		if !g.inLib {
			emitGroup(b, g, i, off)
		}
	}
	if p.LibGroups > 0 {
		b.CallAbs(guest.SharedLib)
	}
	if p.Gate > 1 {
		b.Label("skipMDA")
	}

	b.ALUImm(guest.ADDri, guest.EDI, 1)
	b.CmpImm(guest.EDI, int32(p.Iterations))
	b.Jcc(guest.L, "loop")
	b.Halt()

	// Flip blocks: bump the table pointers of onset groups.
	emitFlip := func(label, resume string, idxs []int) {
		b.Label(label)
		for _, gi := range idxs {
			b.Load(guest.LD4, guest.ESI, guest.MemRef{Base: guest.EBP, Disp: int32(4 * gi)})
			b.ALUImm(guest.ADDri, guest.ESI, off)
			b.Store(guest.ST4, guest.MemRef{Base: guest.EBP, Disp: int32(4 * gi)}, guest.ESI)
		}
		b.Jmp(resume)
	}
	if len(lateGroups) > 0 {
		emitFlip("flipLate", "resumeLate", lateGroups)
	}
	if len(earlyGroups) > 0 {
		emitFlip("flipEarly", "resumeEarly", earlyGroups)
	}

	img, err := b.Build(guest.CodeBase)
	if err != nil {
		return fmt.Errorf("workload %s: %w", spec.Name, err)
	}
	p.Main = img
	return nil
}

// buildData constructs the train and ref data images: the group pointer
// table plus patterned arenas.
func (p *Program) buildData(groups []group) {
	size := arenasOff + len(groups)*p.arena
	build := func(in Input) []byte {
		d := make([]byte, size)
		for i := range d {
			d[i] = byte(i*13 + 7)
		}
		for gi, g := range groups {
			arena := uint32(guest.DataBase + arenasOff + gi*p.arena)
			ptr := arena
			if !p.aligned {
				switch g.class {
				case classAlways:
					ptr += misOff
				case classTrain:
					if in == Ref {
						ptr += misOff
					}
				}
			}
			// classHalf/classRarely/classLate/classEarly start aligned; the
			// code (or the flip blocks) applies the offset.
			off := tableOff + 4*gi
			d[off] = byte(ptr)
			d[off+1] = byte(ptr >> 8)
			d[off+2] = byte(ptr >> 16)
			d[off+3] = byte(ptr >> 24)
		}
		return d
	}
	p.trainData = build(Train)
	p.refData = build(Ref)
}

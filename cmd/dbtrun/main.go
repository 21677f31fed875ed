// Command dbtrun executes a guest program under the binary translator with
// a chosen MDA handling mechanism and reports execution statistics.
//
// Usage:
//
//	dbtrun -mechanism eh [-rearrange] [-retranslate] [-multiversion] [-threshold N] prog.gasm
//	dbtrun -bench 410.bwaves -mech dynprof -threshold 50
//
// The positional argument is a guest assembly file (see internal/guestasm
// for the syntax). Alternatively -bench runs one of the built-in SPEC
// benchmark models. Mechanisms are selected by name (or alias) from the
// mechanism table: direct, static-profile, dynamic-profile,
// exception-handling, dpeh, speh, aot.
//
// With -store DIR runs warm-start from the crash-safe persistent
// artifact store (internal/store) — stored AOT images and trap profiles
// keyed by (program, options fingerprint) — and merge their own
// alignment history back for the next run. The store directory is shared
// with dbtserve -store; corrupt artifacts are quarantined and the run
// proceeds cold.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"mdabt/internal/aot"
	"mdabt/internal/core"
	"mdabt/internal/faultinject"
	"mdabt/internal/guest"
	"mdabt/internal/guestasm"
	"mdabt/internal/machine"
	"mdabt/internal/mem"
	"mdabt/internal/policy"
	"mdabt/internal/profiling"
	"mdabt/internal/serve"
	"mdabt/internal/store"
	"mdabt/internal/workload"
)

func main() {
	mechName := flag.String("mechanism", "eh",
		"MDA mechanism, by name or alias ("+strings.Join(policy.Names(), ", ")+")")
	flag.StringVar(mechName, "mech", *mechName, "shorthand for -mechanism")
	threshold := flag.Uint64("threshold", 0, "heating threshold (0 = mechanism default)")
	rearrange := flag.Bool("rearrange", false, "enable code rearrangement (EH)")
	retranslate := flag.Bool("retranslate", false, "enable block retranslation (DPEH)")
	multiversion := flag.Bool("multiversion", false, "enable multi-version code (DPEH)")
	mvblock := flag.Bool("mvblock", false, "multi-version at block granularity (with -multiversion)")
	bench := flag.String("bench", "", "run a built-in benchmark model instead of a file")
	faultProg := flag.String("faultprog", "",
		"run a built-in guest-fault workload (straddle-ok, straddle-store-fault, straddle-load-unmapped, smc-rewrite)")
	expectFault := flag.Bool("expect-fault", false,
		"succeed only if the run ends in a guest-visible memory fault (printed with the stats)")
	input := flag.String("input", "ref", "benchmark input set: train or ref")
	budget := flag.Uint64("budget", 4_000_000_000, "host-instruction budget")
	deadline := flag.Duration("deadline", 0, "wall-clock deadline for the run (0 = none)")
	dump := flag.Bool("dump", false, "disassemble every translated block after the run")
	events := flag.Int("events", 0, "print the last N translator events")
	ibtc := flag.Bool("ibtc", false, "enable the indirect-branch translation cache")
	adaptive := flag.Bool("adaptive", false, "enable §IV-D adaptive sites (DPEH)")
	superblocks := flag.Bool("superblocks", false, "enable phase-2 trace formation (DPEH/dynprof)")
	staticalign := flag.Bool("staticalign", false, "layer the static alignment analysis over the mechanism")
	aotFlag := flag.Bool("aot", false, "pre-translate the whole binary ahead of time from the recovered CFG (implies -staticalign)")
	lint := flag.Bool("lint", false, "run the translation verifier over every emitted block after the run")
	profileOut := flag.String("profile-out", "", "run a training census and write its trap profile (the store's JSON) here, then exit")
	profileIn := flag.String("profile-in", "", "load a trap profile written by -profile-out for the static mechanism")
	storeDir := flag.String("store", "", "persistent artifact store directory: warm-start from stored AOT images and trap profiles, merge this run's history back (shared with dbtserve -store)")
	selfcheck := flag.Bool("selfcheck", false, "validate engine invariants after every structural mutation and at exit")
	faultRate := flag.Float64("fault-rate", 0, "inject faults at every injection point with this probability (chaos mode)")
	faultSeed := flag.Int64("fault-seed", 1, "fault-injection PRNG seed (with -fault-rate)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	flag.Parse()

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fail("%v", err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fail("%v", err)
		}
	}()

	mech, ok := core.MechanismByName(*mechName)
	if !ok {
		fail("unknown mechanism %q (have %s)", *mechName, strings.Join(policy.AllNames(), ", "))
	}
	opt := core.Options{
		Mechanism:          mech,
		HeatThreshold:      *threshold,
		Rearrange:          *rearrange,
		Retranslate:        *retranslate,
		MultiVersion:       *multiversion,
		MVBlockGranularity: *mvblock,
		IBTC:               *ibtc,
		Adaptive:           *adaptive,
		Superblocks:        *superblocks,
		StaticAlign:        *staticalign,
		AOT:                *aotFlag,
		SelfCheck:          *selfcheck,
	}
	if *faultRate < 0 || *faultRate > 1 {
		fail("-fault-rate must be in [0,1]")
	}
	if *faultRate > 0 {
		opt.FaultPlan = faultinject.New(*faultSeed).RateAll(*faultRate)
	}
	if err := opt.Validate(); err != nil {
		fail("%v", err)
	}

	var st *store.Store
	if *storeDir != "" {
		var serr error
		st, serr = store.Open(*storeDir)
		if serr != nil {
			fail("open store: %v", serr)
		}
	}

	m := mem.New()
	entry := uint32(guest.CodeBase)

	storeProg := "" // persistent-store program identity ("" = no store traffic)
	var benchProg *workload.Program
	switch {
	case *bench != "" && *faultProg != "":
		fail("give either -bench or -faultprog, not both")
	case *faultProg != "":
		fp, err := workload.FaultProgramByName(*faultProg)
		if err != nil {
			fail("%v", err)
		}
		fp.Load(m) // code + data images plus the page-protection plan
		entry = fp.Entry()
	case *bench != "":
		spec, ok := workload.SpecByName(*bench)
		if !ok {
			fail("unknown benchmark %q", *bench)
		}
		in, err := workload.InputByName(*input)
		if err != nil {
			fail("%v", err)
		}
		prog, err := workload.Generate(spec)
		if err != nil {
			fail("generate: %v", err)
		}
		prog.Load(m, in)
		entry = prog.Entry()
		benchProg = prog
		storeProg = workload.BenchStoreKey(*bench, in)
	case flag.NArg() == 1:
		src, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fail("%v", err)
		}
		img, err := guestasm.Assemble(string(src), guest.CodeBase)
		if err != nil {
			fail("%v", err)
		}
		m.WriteBytes(guest.CodeBase, img)
		storeProg = store.HashProgram(img)
	default:
		fail("need a guest assembly file or -bench")
	}

	if *profileOut != "" {
		// FX!32-style pre-execution: census the program and persist the
		// profile (the store's trap-profile JSON) for later
		// static-profiling runs.
		tp, err := core.TrainProfile(m, entry, *budget)
		if err != nil {
			fail("train: %v", err)
		}
		data, err := json.MarshalIndent(tp, "", "  ")
		if err != nil {
			fail("%v", err)
		}
		if err := os.WriteFile(*profileOut, append(data, '\n'), 0o644); err != nil {
			fail("%v", err)
		}
		fmt.Printf("%s: %d MDA sites profiled\n", *profileOut, len(tp.StaticSites()))
		return
	}
	if *profileIn != "" {
		data, err := os.ReadFile(*profileIn)
		if err != nil {
			fail("%v", err)
		}
		var tp store.TrapProfile
		if err := json.Unmarshal(data, &tp); err != nil {
			fail("profile %s: %v", *profileIn, err)
		}
		opt.StaticSites = tp.StaticSites()
		if opt.StaticSites == nil {
			opt.StaticSites = map[uint32]bool{} // the file's empty profile, not none: nothing replaces it
		}
	}

	// Warm-start by the front ends' shared rule (serve.WarmStart): the
	// store first, then a built AOT image or, for a benchmark, a training
	// census, saved back so the next run (either front end) skips it.
	// Without a store the engine recovers the AOT schedule itself.
	var build func() *aot.Image
	if st != nil && storeProg != "" {
		build = func() *aot.Image { return aot.BuildFromMemory(m, entry) }
	}
	var train func() *store.TrapProfile
	if benchProg != nil {
		train = func() *store.TrapProfile {
			tp, err := serve.TrainBench(benchProg)
			if err != nil {
				fail("train profile: %v", err)
			}
			return tp
		}
	}
	fingerprint, serr := serve.WarmStart(st, storeProg, &opt, build, train)
	if serr != nil {
		fmt.Fprintf(os.Stderr, "dbtrun: store: %v\n", serr)
	}

	mach := machine.New(m, machine.DefaultParams())
	eng := core.NewEngine(m, mach, opt)
	if *events > 0 {
		eng.EnableEventLog()
	}
	ctx := context.Background()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}
	runErr := eng.RunContext(ctx, entry, *budget)
	var gf *guest.Fault
	if runErr != nil {
		g, ok := core.AsGuestFault(runErr)
		if !ok || !*expectFault {
			stopProfiles() // a budget- or deadline-exhausted run is still worth profiling
			fail("run: %v", runErr)
		}
		gf = g
	} else if *expectFault {
		fail("run halted cleanly; -expect-fault required a guest-visible memory fault")
	}

	// Merge this session's per-site alignment history back into the store:
	// the next run of this (program, options) pair warm-starts from it. A
	// failed merge costs future warmth, never this run's result.
	if st != nil && storeProg != "" {
		delta := &store.TrapProfile{}
		eng.AddSiteHistory(delta)
		k := store.Key{Program: storeProg, Fingerprint: fingerprint, Kind: store.KindTrapProfile}
		if serr := st.MergeTrapProfile(k, delta); serr != nil {
			fmt.Fprintf(os.Stderr, "dbtrun: store merge trap profile: %v\n", serr)
		}
	}

	c := mach.Counters()
	s := eng.Stats()
	fmt.Printf("mechanism:        %v\n", eng.Opt.Mechanism)
	fmt.Printf("cycles:           %d\n", c.Cycles)
	fmt.Printf("host insts:       %d\n", c.Insts)
	fmt.Printf("loads/stores:     %d / %d\n", c.Loads, c.Stores)
	fmt.Printf("misalign traps:   %d (%d cycles)\n", c.MisalignTraps, c.TrapCycles)
	fmt.Printf("translated:       %d units (%d retrans, %d rearranged, %d multi-version, %d traces/%d blocks)\n",
		s.BlocksTranslated, s.Retranslations, s.Rearrangements, s.MultiVersion, s.Superblocks, s.TraceBlocks)
	fmt.Printf("patches/stubs:    %d / %d\n", s.Patches, s.MDAStubs)
	fmt.Printf("interpreted:      %d guest insts (%d MDAs handled softly)\n",
		s.InterpretedInsts, s.InterpretedMDAs)
	fmt.Printf("dispatches/links: %d / %d\n", s.NativeBlockRuns, s.Links)
	fmt.Printf("code cache:       %d bytes\n", eng.CodeCacheUsed())
	if gf != nil {
		fmt.Printf("guest fault:      pc=%#x %v\n", gf.PC, &gf.Mem)
	}
	if *faultRate > 0 || s.StubZoneFull+s.UnpatchableSites+s.InterpFallbacks+s.TrapStormDemotions > 0 {
		fmt.Printf("degraded:         stub-full=%d unpatchable=%d interp-fallbacks=%d demotions=%d flushes=%d\n",
			s.StubZoneFull, s.UnpatchableSites, s.InterpFallbacks, s.TrapStormDemotions, s.Flushes)
	}
	if eng.Opt.FaultPlan != nil {
		fmt.Printf("injected faults:  %d (%s)\n", s.InjectedFaults, eng.Opt.FaultPlan)
	}
	if eng.Opt.StaticAlign {
		fmt.Printf("static-align:     analyzed=%d sites aligned=%d misaligned=%d unknown=%d violations=%d\n",
			s.StaticAnalyzedInsts, s.StaticAlignedSites, s.StaticMisalignedSites,
			s.StaticUnknownSites, s.StaticAlignViolations)
	}
	if eng.Opt.AOT {
		fmt.Printf("aot:              %d blocks pre-translated, %d hits, %d jit fallbacks\n",
			s.AOTBlocks, s.AOTHits, s.AOTFallbacks)
	}
	if st != nil {
		ss := st.Stats()
		fmt.Printf("store:            hits=%d misses=%d saves=%d merges=%d corrupt=%d quarantined=%d\n",
			ss.Hits, ss.Misses, ss.Saves, ss.Merges, ss.Corrupt, ss.Quarantined)
	}
	ts := eng.TraceStats()
	fmt.Printf("trace tier:       %d formed, %d chain follows, %d invalidations, %d relowered\n",
		ts.Formed, ts.ChainFollows, ts.Invalidations, ts.Relowered)
	if *lint {
		findings := eng.Lint()
		for _, f := range findings {
			fmt.Fprintf(os.Stderr, "dbtrun: lint: %s\n", f)
		}
		if len(findings) > 0 {
			os.Exit(1)
		}
		fmt.Printf("lint:             ok (%d blocks clean)\n", len(eng.TranslatedPCs()))
	}
	if *selfcheck {
		if err := eng.CheckInvariants(); err != nil {
			fail("selfcheck: %v", err)
		}
		fmt.Printf("selfcheck:        ok\n")
	}

	cpu := eng.FinalCPU()
	fmt.Printf("guest state:      eax=%#x ecx=%#x edx=%#x ebx=%#x esi=%#x edi=%#x\n",
		cpu.R[guest.EAX], cpu.R[guest.ECX], cpu.R[guest.EDX],
		cpu.R[guest.EBX], cpu.R[guest.ESI], cpu.R[guest.EDI])

	if *dump {
		fmt.Println()
		for _, pc := range eng.TranslatedPCs() {
			out, err := eng.DumpBlock(pc)
			if err != nil {
				fail("dump %#x: %v", pc, err)
			}
			fmt.Print(out)
		}
		if out := eng.DumpTraces(); out != "" {
			fmt.Println()
			fmt.Print(out)
		}
	}
	if *events > 0 {
		evs, dropped := eng.Events()
		if len(evs) > *events {
			evs = evs[len(evs)-*events:]
		}
		fmt.Println()
		for _, ev := range evs {
			fmt.Println(ev)
		}
		if dropped > 0 {
			fmt.Printf("(%d older events dropped)\n", dropped)
		}
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dbtrun: "+format+"\n", args...)
	os.Exit(1)
}

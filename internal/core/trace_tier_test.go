package core

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"mdabt/internal/guest"
	"mdabt/internal/machine"
	"mdabt/internal/mem"
	"mdabt/internal/workload"
)

// The direct-chaining trace tier's contract is simulation invisibility:
// which traces exist may change only the wall clock, never a counter, a
// stat, a register, or a delivered fault. The tier is the machine's only
// executor, and Options.Traces is ignored; these tests set it anyway, so
// they also pin that the field changes nothing.

// tracedOpt returns opt with Options.Traces set (ignored: every run is
// traced, a unit from its first native dispatch).
func tracedOpt(opt Options) Options {
	opt.Traces = true
	return opt
}

// TestTraceTierFingerprintParity re-runs the entire golden equivalence
// matrix — every program under every configuration, clean and
// fault-workload halves — on ONE engine recycled with Engine.Reset between
// entries, which keeps the machine's trace tables and pooled steps. Every
// fingerprint must match the golden file bit for bit: the tier is
// invisible across mechanisms, across engine reuse, and across the
// precise-fault rewind path (the fault half of the matrix ends each run in
// a delivered guest fault that the machine hands back to the interpreter
// mid-trace).
func TestTraceTierFingerprintParity(t *testing.T) {
	raw, err := os.ReadFile(equivalenceGoldenPath)
	if err != nil {
		t.Fatalf("golden file missing: %v", err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		k, v, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[k] = v
	}

	programs := []struct {
		name string
		img  []byte
	}{
		{"misloop", mdaLoopImg(t, 300)},
		{"lateonset", lateOnsetImg(t, 100, 400)},
		{"multiblock", multiBlockLoopImg(t, 800)},
		{"mixedgroup", mixedGroupImg(t, 300)},
	}
	data := patternData(256)

	m := mem.New()
	mach := machine.New(m, machine.DefaultParams())
	var e *Engine
	ran := 0
	engaged := 0
	for _, p := range programs {
		static := censusSites(t, p.img, data)
		for _, cfg := range equivalenceConfigs(static) {
			key := p.name + "|" + cfg.name
			opt := tracedOpt(cfg.opt)
			if e == nil {
				e = NewEngine(m, mach, opt)
			} else {
				e.Reset(opt)
			}
			e.LoadImage(guest.CodeBase, p.img)
			m.WriteBytes(guest.DataBase, data)
			if err := e.Run(guest.CodeBase, 500_000_000); err != nil {
				t.Fatalf("%s: traced run: %v", key, err)
			}
			w, ok := want[key]
			if !ok {
				t.Fatalf("%s: no golden entry", key)
			}
			if got := equivalenceFingerprint(e); got != w {
				t.Errorf("%s: trace tier perturbed the simulation\n got %s\nwant %s", key, got, w)
			}
			if e.TraceStats().TracedInsts > 0 {
				engaged++
			}
			ran++
		}
	}
	for _, fp := range faultEquivalencePrograms(t) {
		static := faultStaticSites(t, fp)
		for _, cfg := range equivalenceConfigs(static) {
			key := "fault:" + fp.Name + "|" + cfg.name
			e.Reset(tracedOpt(cfg.opt))
			fp.Load(m)
			rerr := e.Run(fp.Entry(), 500_000_000)
			if fp.ExpectFault != (rerr != nil) {
				t.Fatalf("%s: traced run err %v, expect-fault %v", key, rerr, fp.ExpectFault)
			}
			w, ok := want[key]
			if !ok {
				t.Fatalf("%s: no golden entry", key)
			}
			if got := equivalenceFingerprint(e); got != w {
				t.Errorf("%s: trace tier perturbed the fault path\n got %s\nwant %s", key, got, w)
			}
			ran++
		}
	}
	if ran != len(want) {
		t.Errorf("traced matrix ran %d entries, golden has %d", ran, len(want))
	}
	if engaged == 0 {
		t.Error("trace tier never engaged across the matrix (TracedInsts always 0)")
	}
}

// TestChainBoundaryCounterParity pins the stats accounting at chain
// boundaries: a chained trace-to-trace transfer must increment
// NativeBlockRuns — and every other engine counter — the same whether or
// not the ignored Options.Traces is set, and both runs must land on the
// interpreter census's architectural state. The program is a multi-block loop, so the hot path
// crosses block boundaries every iteration and the traced run resolves
// them through memoized chain links rather than the dispatcher.
func TestChainBoundaryCounterParity(t *testing.T) {
	img := multiBlockLoopImg(t, 2000)
	data := patternData(256)

	// Interpreter census: the mechanism-free architectural reference.
	m := mem.New()
	m.WriteBytes(guest.CodeBase, img)
	m.WriteBytes(guest.DataBase, data)
	census, err := RunCensus(m, guest.CodeBase, 500_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !census.Halted {
		t.Fatal("census did not halt")
	}

	// Plain per-block translation (no superblock folding), so every loop
	// iteration crosses translation boundaries and the traced run must
	// resolve them through chain links.
	opt := DefaultOptions(DPEH)
	opt.HeatThreshold = 4

	baseCPU, _, baseEng := runDBT(t, img, data, opt)
	traceCPU, _, traceEng := runDBT(t, img, data, tracedOpt(opt))

	if bs, ts := baseEng.Stats(), traceEng.Stats(); bs != ts {
		t.Errorf("engine stats diverged at chain boundaries:\n dispatched %+v\n     traced %+v", bs, ts)
	}
	if bc, tc := baseEng.Mach.Counters(), traceEng.Mach.Counters(); bc != tc {
		t.Errorf("machine counters diverged:\n dispatched %+v\n     traced %+v", bc, tc)
	}
	if runs := traceEng.Stats().NativeBlockRuns; runs == 0 {
		t.Error("traced run recorded no native dispatches")
	}
	if follows := traceEng.TraceStats().ChainFollows; follows == 0 {
		t.Error("no chain follows: the parity claim was not exercised")
	}
	for r := guest.EAX; r <= guest.EDI; r++ {
		if traceCPU.R[r] != census.FinalCPU.R[r] {
			t.Errorf("reg %v: traced %#x, census %#x", r, traceCPU.R[r], census.FinalCPU.R[r])
		}
		if baseCPU.R[r] != census.FinalCPU.R[r] {
			t.Errorf("reg %v: dispatched %#x, census %#x", r, baseCPU.R[r], census.FinalCPU.R[r])
		}
	}
}

// TestValidateTraceCombos pins the actionable-error contract for unsound
// trace-related option combinations: each must fail Validate with a
// message that names the offending knobs and the way out, rather than
// failing deep inside translate.
func TestValidateTraceCombos(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Options)
		frag string // the error must mention this
	}{
		{"superblocks-mvblock", func(o *Options) {
			o.Superblocks = true
			o.MultiVersion = true
			o.MVBlockGranularity = true
		}, "MVBlockGranularity"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := DefaultOptions(DPEH)
			tc.mut(&opt)
			err := opt.Validate()
			if err == nil {
				t.Fatal("Validate accepted an unsound combination")
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Errorf("error %q does not mention %q", err, tc.frag)
			}
			// The same error must surface from Run, not a translate panic.
			e := engineFor(t, mdaLoopImg(t, 50), opt)
			if rerr := e.Run(guest.CodeBase, 1<<20); rerr == nil {
				t.Error("Run accepted what Validate rejects")
			}
		})
	}
	// And the sound combinations stay accepted.
	for _, mut := range []func(*Options){
		func(o *Options) { o.Traces = true },
		func(o *Options) { o.Traces = true; o.Superblocks = true; o.IBTC = true },
	} {
		opt := DefaultOptions(DPEH)
		mut(&opt)
		if err := opt.Validate(); err != nil {
			t.Errorf("Validate rejected a sound trace combination: %v", err)
		}
	}
	// AOT+Superblocks is now lifted (static traces): must validate.
	opt := DefaultOptions(AOT)
	opt.Superblocks = true
	if err := opt.Validate(); err != nil {
		t.Errorf("AOT+Superblocks rejected despite static-trace support: %v", err)
	}
	_ = fmt.Sprintf // keep fmt for future debugging additions
}

// TestTraceTierSelfModifying extends the SMC story to the trace tier: a
// guest that rewrites its own code mid-run must unlink the chains into the
// stale translation, which rewrites the linked steps in place or drops
// their traces, and retranslate — and the run's simulated outcome must be
// bit-identical to one without the ignored Options.Traces set.
func TestTraceTierSelfModifying(t *testing.T) {
	p, err := workload.GenerateSelfModifying()
	if err != nil {
		t.Fatal(err)
	}
	for _, mech := range []Mechanism{Direct, ExceptionHandling, DPEH} {
		opt := DefaultOptions(mech)
		opt.HeatThreshold = 3
		baseCPU, berr, baseMem, baseEng := runFaultDBT(t, p, opt)
		if berr != nil {
			t.Fatalf("%v: %v", mech, berr)
		}
		gotCPU, rerr, gotMem, e := runFaultDBT(t, p, tracedOpt(opt))
		if rerr != nil {
			t.Fatalf("%v traced: %v", mech, rerr)
		}
		compareFaultState(t, fmt.Sprintf("smc-traced/%v", mech), p, baseCPU, gotCPU, baseMem, gotMem)
		if bs, ts := baseEng.Stats(), e.Stats(); bs != ts {
			t.Errorf("%v: SMC stats diverged under traces:\n dispatched %+v\n     traced %+v", mech, bs, ts)
		}
		ts := e.TraceStats()
		if ts.Formed == 0 {
			t.Errorf("%v: no traces formed over the SMC guest", mech)
		}
		if ts.Invalidations+ts.Relowered == 0 {
			t.Errorf("%v: SMC rewrite changed no trace (Invalidations = Relowered = 0)", mech)
		}
		if err := e.CheckInvariants(); err != nil {
			t.Errorf("%v: invariants after SMC trace invalidation: %v", mech, err)
		}
	}
}

// TestTraceInvalidationsFollowCodeWrites: with one formation rule a trace
// is dropped only by a write into its code. In runs with no flush, every
// invalidation is an EH patch or a chain link, so the tier invalidates no
// more traces than the engine patches words. It fails if anything else
// drops traces, as seeding a unit trace over the traces execution formed
// did.
func TestTraceInvalidationsFollowCodeWrites(t *testing.T) {
	eh, ehNoChain, sb := DefaultOptions(ExceptionHandling), DefaultOptions(ExceptionHandling), DefaultOptions(DPEH)
	ehNoChain.NoChain = true
	sb.Superblocks = true
	for _, c := range []struct {
		name string
		opt  Options
	}{{"eh", eh}, {"eh-nochain", ehNoChain}, {"dpeh-superblocks", sb}} {
		e := engineFor(t, mdaLoopImg(t, 300), c.opt)
		mustRun(t, e)
		s, ts := e.Stats(), e.TraceStats()
		if s.Flushes != 0 || s.Patches+s.Links == 0 {
			t.Fatalf("%s: %d flushes, %d patches, %d links: want code writes and no flush", c.name, s.Flushes, s.Patches, s.Links)
		}
		if ts.Invalidations > s.Patches+s.Links {
			t.Errorf("%s: %d trace invalidations for %d patches and %d links", c.name, ts.Invalidations, s.Patches, s.Links)
		}
		if err := e.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// TestDumpTracesNamesUnits: after a chained DPEH run, DumpTraces names a
// trace at every live unit's host entry, followed by that unit's member
// line, and reports the chain links the run followed.
func TestDumpTracesNamesUnits(t *testing.T) {
	e := engineFor(t, multiBlockLoopImg(t, 800), DefaultOptions(DPEH))
	mustRun(t, e)
	if e.Stats().Links == 0 || e.TraceStats().ChainFollows == 0 {
		t.Fatalf("stats %+v, trace stats %+v: want a chained run", e.Stats(), e.TraceStats())
	}
	out := e.DumpTraces()
	pcs := e.TranslatedPCs()
	if len(pcs) == 0 {
		t.Fatal("no translated units")
	}
	for _, pc := range pcs {
		b := e.dec.blockAt(pc)
		head := fmt.Sprintf(": host [%#x,", b.hostEntry)
		member := fmt.Sprintf("  member block %#x: host [%#x,%#x)\n", pc, b.hostEntry, b.hostEntry+b.hostSize)
		i := strings.Index(out, head)
		if i < 0 || !strings.HasPrefix(out[strings.IndexByte(out[i:], '\n')+i+1:], member) {
			t.Errorf("unit %#x: no trace at host entry %#x with member line %q", pc, b.hostEntry, member)
		}
	}
	if !strings.Contains(out, "  chain ") {
		t.Error("no chain line")
	}
	if t.Failed() {
		t.Logf("DumpTraces:\n%s", out)
	}
}

package core

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"mdabt/internal/guest"
	"mdabt/internal/machine"
	"mdabt/internal/mem"
	"mdabt/internal/store"
	"mdabt/internal/workload"
)

// The golden file pins the exact simulated behaviour (machine counters and
// engine statistics) of every mechanism configuration on a set of
// deterministic guest programs. It was generated on the pre-refactor seed
// (before the policy-registry extraction) with
//
//	go test ./internal/core -run TestMechanismEquivalence -update_equivalence
//
// so the test proves the strategy-object refactor is bit-identical to the
// original switch-based implementation: same cycles, same traps, same Stats
// counters, per configuration.
var updateEquivalence = flag.Bool("update_equivalence", false,
	"rewrite testdata/equivalence_golden.txt from the current implementation")

const equivalenceGoldenPath = "testdata/equivalence_golden.txt"

// equivalenceConfigs mirrors the cosim configuration matrix with stable
// names for golden-file keys.
func equivalenceConfigs(static map[uint32]bool) []struct {
	name string
	opt  Options
} {
	var out []struct {
		name string
		opt  Options
	}
	add := func(name string, o Options) {
		out = append(out, struct {
			name string
			opt  Options
		}{name, o})
	}

	add("direct", DefaultOptions(Direct))
	st := DefaultOptions(StaticProfile)
	st.StaticSites = static
	add("static-profile", st)
	dp := DefaultOptions(DynamicProfile)
	dp.HeatThreshold = 3
	add("dynamic-profile/th3", dp)
	add("dynamic-profile/default", DefaultOptions(DynamicProfile))
	add("exception-handling", DefaultOptions(ExceptionHandling))
	ehr := DefaultOptions(ExceptionHandling)
	ehr.Rearrange = true
	add("eh+rearrange", ehr)
	dpeh := DefaultOptions(DPEH)
	dpeh.HeatThreshold = 3
	add("dpeh/th3", dpeh)
	add("dpeh/default", DefaultOptions(DPEH))
	dpehR := dpeh
	dpehR.Retranslate = true
	dpehR.RetransThreshold = 2
	add("dpeh+retrans", dpehR)
	dpehM := dpeh
	dpehM.MultiVersion = true
	add("dpeh+mv", dpehM)
	dpehMB := dpehM
	dpehMB.MVBlockGranularity = true
	add("dpeh+mvblock", dpehMB)
	dpehAd := dpeh
	dpehAd.Adaptive = true
	dpehAd.AdaptiveStreak = 8
	add("dpeh+adaptive", dpehAd)
	dSA := DefaultOptions(Direct)
	dSA.StaticAlign = true
	add("direct+staticalign", dSA)
	ehSA := DefaultOptions(ExceptionHandling)
	ehSA.StaticAlign = true
	add("eh+staticalign", ehSA)
	dpehSA := dpeh
	dpehSA.Retranslate = true
	dpehSA.MultiVersion = true
	dpehSA.StaticAlign = true
	add("dpeh+retrans+mv+staticalign", dpehSA)
	sb := DefaultOptions(DPEH)
	sb.HeatThreshold = 6
	sb.Superblocks = true
	sb.IBTC = true
	add("dpeh+superblocks+ibtc", sb)
	add("aot", DefaultOptions(AOT))
	spehAOT := DefaultOptions(SPEH)
	spehAOT.StaticSites = static
	spehAOT.AOT = true
	spehAOT.StaticAlign = true
	add("speh+aot", spehAOT)
	return out
}

// equivalenceFingerprint reduces one run to a canonical line: every machine
// counter and every Stats field, in declaration order via %+v.
func equivalenceFingerprint(e *Engine) string {
	c := e.Mach.Counters()
	return fmt.Sprintf("counters=%+v stats=%+v", c, e.Stats())
}

// faultEquivalencePrograms returns the guest-fault workload set for the
// golden matrix (keys "fault:<program>|<config>"). Fault-expected runs end
// in a delivered guest fault; the fingerprint pins the exact trap, fault,
// and SMC counter behaviour of every mechanism on them.
func faultEquivalencePrograms(t *testing.T) []*workload.FaultProgram {
	t.Helper()
	progs, err := workload.FaultPrograms()
	if err != nil {
		t.Fatal(err)
	}
	return progs
}

// faultProfile is censusProfile for a FaultProgram (protections
// applied; a fault-terminated census still yields its sites).
func faultProfile(t *testing.T, p *workload.FaultProgram) *store.TrapProfile {
	t.Helper()
	m := mem.New()
	p.Load(m)
	c, _ := RunCensus(m, p.Entry(), 50_000_000)
	return c.Profile()
}

// faultStaticSites is faultProfile's static site set.
func faultStaticSites(t *testing.T, p *workload.FaultProgram) map[uint32]bool {
	t.Helper()
	return faultProfile(t, p).StaticSites()
}

func TestMechanismEquivalence(t *testing.T) {
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

	got := make(map[string]string)
	var keys []string
	for _, p := range programs {
		static := censusSites(t, p.img, data)
		for _, cfg := range equivalenceConfigs(static) {
			key := p.name + "|" + cfg.name
			_, _, e := runDBT(t, p.img, data, cfg.opt)
			got[key] = equivalenceFingerprint(e)
			keys = append(keys, key)
		}
	}
	for _, fp := range faultEquivalencePrograms(t) {
		static := faultStaticSites(t, fp)
		for _, cfg := range equivalenceConfigs(static) {
			key := "fault:" + fp.Name + "|" + cfg.name
			m := mem.New()
			fp.Load(m)
			mach := machine.New(m, machine.DefaultParams())
			e := NewEngine(m, mach, cfg.opt)
			rerr := e.Run(fp.Entry(), 500_000_000)
			if fp.ExpectFault != (rerr != nil) {
				t.Fatalf("%s: run err %v, expect-fault %v", key, rerr, fp.ExpectFault)
			}
			got[key] = equivalenceFingerprint(e)
			keys = append(keys, key)
		}
	}

	if *updateEquivalence {
		var sb strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s\t%s\n", k, got[k])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(equivalenceGoldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden fingerprints", len(keys))
		return
	}

	raw, err := os.ReadFile(equivalenceGoldenPath)
	if err != nil {
		t.Fatalf("golden file missing (run with -update_equivalence on the seed): %v", err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		k, v, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[k] = v
	}
	for _, k := range keys {
		w, ok := want[k]
		if !ok {
			t.Errorf("%s: no golden entry (regenerate the golden file)", k)
			continue
		}
		if got[k] != w {
			t.Errorf("%s: behaviour diverged from pre-refactor seed\n got %s\nwant %s", k, got[k], w)
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: golden entry no longer exercised", k)
		}
	}
}

// TestEngineReuseEquivalence drives the entire golden matrix through ONE
// engine recycled with Engine.Reset between runs — the serving layer's
// reuse path. Every fingerprint must match the fresh-engine golden file
// bit for bit: a reset engine is behaviourally indistinguishable from a
// new one, across programs AND mechanism configurations. A fault-heavy
// guest (page protections armed, run ending in a delivered guest fault) is
// interleaved between matrix entries: its protection tables, watch pages,
// attribution state, and pending fault must all vanish at Reset without
// perturbing the next fingerprint.
func TestEngineReuseEquivalence(t *testing.T) {
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

	faulty, err := workload.GenerateStraddle(workload.StraddleStoreFault)
	if err != nil {
		t.Fatal(err)
	}

	m := mem.New()
	mach := machine.New(m, machine.DefaultParams())
	var e *Engine
	ran := 0
	for _, p := range programs {
		static := censusSites(t, p.img, data)
		for _, cfg := range equivalenceConfigs(static) {
			key := p.name + "|" + cfg.name
			if e == nil {
				e = NewEngine(m, mach, cfg.opt)
			} else {
				e.Reset(cfg.opt)
			}
			e.LoadImage(guest.CodeBase, p.img)
			m.WriteBytes(guest.DataBase, data)
			if err := e.Run(guest.CodeBase, 500_000_000); err != nil {
				t.Fatalf("%s: reused engine: %v", key, err)
			}
			w, ok := want[key]
			if !ok {
				t.Fatalf("%s: no golden entry", key)
			}
			if got := equivalenceFingerprint(e); got != w {
				t.Errorf("%s: reused engine diverged from fresh-engine golden\n got %s\nwant %s", key, got, w)
			}
			ran++
			// Dirty the engine with a fault-heavy guest before every few
			// matrix entries: the run must end in a delivered guest fault,
			// and the following Reset must scrub every trace of it.
			if ran%5 == 0 {
				e.Reset(cfg.opt)
				faulty.Load(m)
				ferr := e.Run(faulty.Entry(), 500_000_000)
				if gf, ok := AsGuestFault(ferr); !ok || gf.Mem.Addr != faulty.FaultAddr {
					t.Fatalf("%s: interleaved fault guest ended with %v, want fault at %#x", key, ferr, faulty.FaultAddr)
				}
			}
		}
	}
	// The fault-workload half of the matrix through the same reused engine.
	for _, fp := range faultEquivalencePrograms(t) {
		static := faultStaticSites(t, fp)
		for _, cfg := range equivalenceConfigs(static) {
			key := "fault:" + fp.Name + "|" + cfg.name
			e.Reset(cfg.opt)
			fp.Load(m)
			rerr := e.Run(fp.Entry(), 500_000_000)
			if fp.ExpectFault != (rerr != nil) {
				t.Fatalf("%s: reused engine err %v, expect-fault %v", key, rerr, fp.ExpectFault)
			}
			w, ok := want[key]
			if !ok {
				t.Fatalf("%s: no golden entry", key)
			}
			if got := equivalenceFingerprint(e); got != w {
				t.Errorf("%s: reused engine diverged from fresh-engine golden\n got %s\nwant %s", key, got, w)
			}
			ran++
		}
	}
	if ran != len(want) {
		t.Errorf("reuse matrix ran %d entries, golden has %d", ran, len(want))
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"mdabt/internal/core"
	"mdabt/internal/guest"
	"mdabt/internal/machine"
	"mdabt/internal/mem"
	"mdabt/internal/serve"
	"mdabt/internal/store"
	"mdabt/internal/workload"
)

func testApp(t *testing.T) (*app, *httptest.Server) {
	t.Helper()
	srv := serve.NewServer(serve.ServerOptions{
		Pool:   serve.Options{Workers: 2, Retries: -1},
		Budget: 200_000_000,
	})
	a := newApp(srv, core.ExceptionHandling, 10*time.Second)
	ts := httptest.NewServer(a.mux())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return a, ts
}

func postRun(t *testing.T, ts *httptest.Server, body runRequest) (*http.Response, []byte) {
	t.Helper()
	raw, _ := json.Marshal(body)
	resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

const testAsm = `
        mov     ebx, 0x10000000
        mov     ecx, 0
        mov     eax, 0
loop:   mov     edx, dword [ebx+2]
        add     eax, edx
        add     ecx, 1
        cmp     ecx, 100
        jl      loop
        halt
`

func TestRunAsm(t *testing.T) {
	_, ts := testApp(t)
	resp, body := postRun(t, ts, runRequest{Asm: testAsm})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var r runResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("bad response %s: %v", body, err)
	}
	if r.Cycles == 0 || r.HostInsts == 0 {
		t.Errorf("empty counters: %+v", r)
	}
	if r.MisalignTraps == 0 {
		t.Errorf("misaligned loop reported no traps: %+v", r)
	}
	if r.Mechanism != core.ExceptionHandling.String() {
		t.Errorf("mechanism = %q", r.Mechanism)
	}
}

func TestRunMechanismOverride(t *testing.T) {
	_, ts := testApp(t)
	resp, body := postRun(t, ts, runRequest{Asm: testAsm, Mech: "direct"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var r runResponse
	json.Unmarshal(body, &r)
	if r.MisalignTraps != 0 {
		t.Errorf("direct mechanism trapped %d times", r.MisalignTraps)
	}
}

func TestRunBench(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark model generation is slow")
	}
	_, ts := testApp(t)
	resp, body := postRun(t, ts, runRequest{Bench: "429.mcf", Input: "train", Mech: "dpeh"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var r runResponse
	json.Unmarshal(body, &r)
	if r.Program != "429.mcf" || r.Cycles == 0 {
		t.Errorf("response %+v", r)
	}
}

// TestRunFaultProg: a guest program that takes a memory fault gets a
// distinct 422 response carrying the faulting PC and address, while the
// success-expected fault workload completes normally.
func TestRunFaultProg(t *testing.T) {
	_, ts := testApp(t)

	resp, body := postRun(t, ts, runRequest{FaultProg: "straddle-store-fault", Mech: "eh"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d (%s), want 422", resp.StatusCode, body)
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("bad body %s: %v", body, err)
	}
	if e.Class != "permanent" {
		t.Errorf("class = %q, want permanent", e.Class)
	}
	if e.GuestFault == nil {
		t.Fatalf("no guest_fault in 422 body: %s", body)
	}
	if e.GuestFault.Addr != "0x10006000" || !e.GuestFault.Write || e.GuestFault.PC == "" {
		t.Errorf("guest_fault = %+v, want write fault at 0x10006000 with a PC", e.GuestFault)
	}

	resp, body = postRun(t, ts, runRequest{FaultProg: "straddle-ok", Mech: "dpeh"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("straddle-ok: status %d (%s), want 200", resp.StatusCode, body)
	}
	var r runResponse
	json.Unmarshal(body, &r)
	if r.Program != "straddle-ok" || r.Cycles == 0 {
		t.Errorf("response %+v", r)
	}

	resp, body = postRun(t, ts, runRequest{FaultProg: "nope"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown faultprog: status %d (%s), want 400", resp.StatusCode, body)
	}
}

func TestRunErrors(t *testing.T) {
	_, ts := testApp(t)
	cases := []struct {
		name string
		body runRequest
		want int
	}{
		{"empty", runRequest{}, http.StatusBadRequest},
		{"both", runRequest{Asm: "halt", Bench: "429.mcf"}, http.StatusBadRequest},
		{"bad asm", runRequest{Asm: "notanop eax"}, http.StatusBadRequest},
		{"bad mech", runRequest{Asm: "halt", Mech: "nope"}, http.StatusBadRequest},
		{"bad bench", runRequest{Bench: "999.nope"}, http.StatusBadRequest},
		{"bad input", runRequest{Bench: "429.mcf", Input: "trian"}, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, body := postRun(t, ts, c.body)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d (%s), want %d", c.name, resp.StatusCode, body, c.want)
		}
		var e errorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: malformed error body %s", c.name, body)
		}
		if e.Class != "permanent" {
			t.Errorf("%s: class = %q, want permanent", c.name, e.Class)
		}
	}
}

// TestRunPostOnly: /run rejects other methods with 405 and a classified
// error body.
func TestRunPostOnly(t *testing.T) {
	_, ts := testApp(t)
	resp, err := http.Get(ts.URL + "/run")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /run: status %d, want 405", resp.StatusCode)
	}
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" || e.Class != "permanent" {
		t.Errorf("GET /run: error body %+v (%v), want an error with class permanent", e, err)
	}
}

func TestRunDeadline(t *testing.T) {
	_, ts := testApp(t)
	resp, body := postRun(t, ts, runRequest{
		Asm: `
        mov     ecx, 0
spin:   add     ecx, 1
        cmp     ecx, 2000000000
        jl      spin
        halt
`,
		DeadlineMS: 10,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, body)
	}
	var e errorResponse
	json.Unmarshal(body, &e)
	if e.Class != "permanent" {
		t.Errorf("class = %q, want permanent", e.Class)
	}
}

func TestHealthz(t *testing.T) {
	a, ts := testApp(t)
	// Concurrent traffic, then a health read.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); postRun(t, ts, runRequest{Asm: testAsm}) }()
	}
	wg.Wait()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var h serve.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Workers != 2 || h.Completed < 4 {
		t.Errorf("health = %+v", h)
	}
	_ = a
}

func TestHealthzDraining(t *testing.T) {
	a, ts := testApp(t)
	if err := a.srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: status %d, want 503", resp.StatusCode)
	}
	// New runs are rejected with a serving error.
	runResp, body := postRun(t, ts, runRequest{Asm: "halt"})
	if runResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("run while draining: status %d (%s), want 503", runResp.StatusCode, body)
	}
}

// storeApp is testApp backed by a persistent artifact store.
func storeApp(t *testing.T, st *store.Store) (*app, *httptest.Server) {
	t.Helper()
	srv := serve.NewServer(serve.ServerOptions{
		Pool:   serve.Options{Workers: 2, Retries: -1},
		Budget: 200_000_000,
		Store:  st,
	})
	a := newApp(srv, core.ExceptionHandling, 10*time.Second)
	ts := httptest.NewServer(a.mux())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return a, ts
}

// TestStoreWarmRestart is the -store contract over HTTP: a process runs a
// program cold, drains (flushing its trap profile into the store), and a
// second process on the same store directory serves the same program with
// strictly fewer traps and identical guest results, with the store
// counters visible under "store" in GET /statsz.
func TestStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a1, ts1 := storeApp(t, st1)
	resp, body := postRun(t, ts1, runRequest{Asm: testAsm, Mech: "speh"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold run: status %d: %s", resp.StatusCode, body)
	}
	var cold runResponse
	if err := json.Unmarshal(body, &cold); err != nil {
		t.Fatal(err)
	}
	if cold.MisalignTraps == 0 {
		t.Fatalf("cold speh run trapped 0 times: %+v", cold)
	}
	if err := a1.srv.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := storeApp(t, st2)
	resp, body = postRun(t, ts2, runRequest{Asm: testAsm, Mech: "speh"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm run: status %d: %s", resp.StatusCode, body)
	}
	var warm runResponse
	if err := json.Unmarshal(body, &warm); err != nil {
		t.Fatal(err)
	}
	if warm.EAX != cold.EAX || warm.Regs != cold.Regs {
		t.Fatalf("warm guest result diverged: cold %+v warm %+v", cold.Regs, warm.Regs)
	}
	if warm.MisalignTraps >= cold.MisalignTraps {
		t.Fatalf("restart did not warm-start: cold %d traps, warm %d", cold.MisalignTraps, warm.MisalignTraps)
	}

	sr, err := http.Get(ts2.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	var raw bytes.Buffer
	raw.ReadFrom(sr.Body)
	var stats statsResponse
	if err := json.Unmarshal(raw.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Store == nil {
		t.Fatalf("statsz missing store counters: %+v", stats)
	}
	if stats.Store.Hits == 0 {
		t.Fatalf("warm process never hit the store: %+v", stats.Store)
	}
	// The store object's keys are wire names: pin every one.
	var wire struct {
		Store map[string]any `json:"store"`
	}
	if err := json.Unmarshal(raw.Bytes(), &wire); err != nil {
		t.Fatal(err)
	}
	keys := []string{"saves", "save_errors", "loads", "hits", "misses", "corrupt",
		"version_skew", "foreign", "quarantined", "read_errors", "lock_conflicts", "merges"}
	for _, k := range keys {
		if _, ok := wire.Store[k]; !ok {
			t.Errorf("statsz store object lacks %q: %s", k, raw.Bytes())
		}
	}
	if len(wire.Store) != len(keys) {
		t.Errorf("statsz store object has %d keys, want %d: %s", len(wire.Store), len(keys), raw.Bytes())
	}
}

// TestRunAOTWarmup is the serving half of the AOT acceptance check: on a
// known image every /run with the aot mechanism adopts the cached offline
// image, so even the first request — and certainly every warm one —
// performs zero dynamic block translations, and /statsz exposes the
// hits-vs-fallbacks ratio.
func TestRunAOTWarmup(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark model generation is slow")
	}
	_, ts := testApp(t)
	for i := 0; i < 2; i++ {
		resp, body := postRun(t, ts, runRequest{Bench: "429.mcf", Mech: "aot"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
		var r runResponse
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatalf("bad response %s: %v", body, err)
		}
		if r.Translated != 0 {
			t.Errorf("request %d: %d dynamic translations, want 0 (image adopted)", i, r.Translated)
		}
		if r.AOTBlocks == 0 || r.AOTHits == 0 {
			t.Errorf("request %d: aot counters empty: %+v", i, r)
		}
		if r.JITFallbacks != 0 {
			t.Errorf("request %d: %d JIT fallbacks, want 0", i, r.JITFallbacks)
		}
	}

	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var s statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	if s.Runs != 2 || s.AOTRuns != 2 {
		t.Errorf("statsz runs=%d aot_runs=%d, want 2/2", s.Runs, s.AOTRuns)
	}
	if s.AOTHits == 0 || s.JITFallbacks != 0 {
		t.Errorf("statsz = %+v, want hits with zero fallbacks", s)
	}
}

// TestRunTracesFieldIgnored: the request body's old "traces" field is
// ignored by JSON decoding, so a body that turns it off still runs, on the
// trace tier like every other request, and reports trace counters.
func TestRunTracesFieldIgnored(t *testing.T) {
	_, ts := testApp(t)
	raw, _ := json.Marshal(map[string]any{"asm": testAsm, "traces": false})
	resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var r runResponse
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || r.HostInsts == 0 || r.TracesFormed == 0 {
		t.Fatalf("status %d, response %+v: want a traced run", resp.StatusCode, r)
	}
}

// TestRunStaticTrainsProfile: without a store, a benchmark request under a
// static-profile mechanism adopts the profile of the benchmark's
// train-input census, so it reports exactly what an engine given that
// profile reports on the ref input. The requests run concurrently, so
// they race to build the benchmark's cached profile.
func TestRunStaticTrainsProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark training census is slow")
	}
	const bench = "470.lbm"
	spec, ok := workload.SpecByName(bench)
	if !ok {
		t.Fatalf("no benchmark %s", bench)
	}
	prog, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	tm := mem.New()
	prog.Load(tm, workload.Train)
	tp, err := core.TrainProfile(tm, prog.Entry(), 300_000_000)
	if err != nil {
		t.Fatal(err)
	}

	mechs := []core.Mechanism{core.StaticProfile, core.SPEH}
	want := make(map[core.Mechanism]runResponse)
	for _, mech := range mechs {
		opt := core.DefaultOptions(mech)
		opt.StaticSites = tp.StaticSites()
		m := mem.New()
		prog.Load(m, workload.Ref)
		mach := machine.New(m, machine.DefaultParams())
		eng := core.NewEngine(m, mach, opt)
		if err := eng.Run(prog.Entry(), 200_000_000); err != nil {
			t.Fatalf("%v: engine run: %v", mech, err)
		}
		c, cpu := mach.Counters(), eng.FinalCPU()
		w := runResponse{Cycles: c.Cycles, HostInsts: c.Insts, MisalignTraps: c.MisalignTraps}
		for r := range w.Regs {
			w.Regs[r] = cpu.R[guest.Reg(r)]
		}
		want[mech] = w
	}

	_, ts := testApp(t)
	var wg sync.WaitGroup
	for _, mech := range append(mechs, mechs...) { // each mechanism twice
		wg.Add(1)
		go func() {
			defer wg.Done()
			raw, _ := json.Marshal(runRequest{Bench: bench, Mech: mech.String()})
			resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(raw))
			if err != nil {
				t.Errorf("%v: %v", mech, err)
				return
			}
			defer resp.Body.Close()
			var r runResponse
			if err := json.NewDecoder(resp.Body).Decode(&r); err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("%v: status %d, decode error %v", mech, resp.StatusCode, err)
				return
			}
			w := want[mech]
			if r.Cycles != w.Cycles || r.HostInsts != w.HostInsts || r.MisalignTraps != w.MisalignTraps || r.Regs != w.Regs {
				t.Errorf("%v: served cycles=%d insts=%d traps=%d regs=%x, trained engine cycles=%d insts=%d traps=%d regs=%x",
					mech, r.Cycles, r.HostInsts, r.MisalignTraps, r.Regs, w.Cycles, w.HostInsts, w.MisalignTraps, w.Regs)
			}
		}()
	}
	wg.Wait()
}

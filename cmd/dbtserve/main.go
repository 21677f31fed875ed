// Command dbtserve exposes the DBT engine pool over HTTP: many guest
// programs run concurrently on a fixed set of reusable engines, with
// per-request deadlines, retry on transient faults, per-program circuit
// breaking, and graceful drain on shutdown.
//
// Usage:
//
//	dbtserve -addr :8437 -workers 8 -mech eh
//
// Endpoints:
//
//	POST /run     — execute a guest program; JSON body:
//	                  {"asm": "<guest assembly>"}          assemble and run, or
//	                  {"bench": "164.gzip", "input":"ref"} run a benchmark model, or
//	                  {"faultprog": "straddle-store-fault"} run a guest-fault workload
//	                optional fields: "mech" (policy name), "budget",
//	                "deadline_ms", "threshold". The response carries the
//	                run's trace counters. A run ending in a
//	                guest-visible memory fault returns HTTP 422 with the
//	                faulting guest PC and address in "guest_fault".
//	GET  /healthz — pool health snapshot (503 while draining).
//	GET  /statsz  — cumulative serving counters, including AOT cache hits
//	                vs JIT fallbacks (cold-start observability) and
//	                trace-tier totals (traces_formed, chain_follows,
//	                trace_invalidations) across all runs.
//
// Benchmark requests warm-start as dbtrun's do (serve.WarmStart): an
// "aot" run adopts the benchmark's ahead-of-time image, so even the
// first request on a known binary performs zero dynamic block
// translations, and a static-profile mechanism ("static", "speh") adopts
// the profile of the benchmark's train-input census. Each comes from the
// store when it has one, else is built or trained once per benchmark,
// inside the pool and under the request's deadline.
//
// With -store DIR the pool is backed by the crash-safe persistent
// artifact store (internal/store): AOT images and aggregated trap
// profiles survive restarts, so a fresh process warm-starts instead of
// rediscovering every MDA site, and a store started by dbtrun warms
// dbtserve (and vice versa). Corrupt or stale artifacts are quarantined
// and the affected request degrades to a cold translation — the "store"
// object in GET /statsz exposes hits, misses, corruption, and quarantine
// counts.
//
// SIGINT/SIGTERM drains in-flight requests (bounded) before exiting.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mdabt/internal/aot"
	"mdabt/internal/core"
	"mdabt/internal/faultinject"
	"mdabt/internal/guest"
	"mdabt/internal/guestasm"
	"mdabt/internal/mem"
	"mdabt/internal/policy"
	"mdabt/internal/serve"
	"mdabt/internal/store"
	"mdabt/internal/workload"
)

// runRequest is the POST /run body.
type runRequest struct {
	Asm        string `json:"asm,omitempty"`
	Bench      string `json:"bench,omitempty"`
	FaultProg  string `json:"faultprog,omitempty"` // built-in guest-fault workload
	Input      string `json:"input,omitempty"`     // "train" or "ref" (default)
	Mech       string `json:"mech,omitempty"`
	Threshold  uint64 `json:"threshold,omitempty"`
	Budget     uint64 `json:"budget,omitempty"`
	DeadlineMS int64  `json:"deadline_ms,omitempty"`
}

// runResponse is the POST /run success body.
type runResponse struct {
	Program       string    `json:"program"`
	Mechanism     string    `json:"mechanism"`
	Cycles        uint64    `json:"cycles"`
	HostInsts     uint64    `json:"host_insts"`
	MisalignTraps uint64    `json:"misalign_traps"`
	Translated    uint64    `json:"translated_blocks"`
	Interpreted   uint64    `json:"interpreted_insts"`
	CodeBytes     uint64    `json:"code_cache_bytes"`
	EAX           uint32    `json:"eax"`
	Attempts      int       `json:"attempts"`
	Worker        int       `json:"worker"`
	ElapsedMS     float64   `json:"elapsed_ms"`
	Regs          [8]uint32 `json:"regs"`
	// AOT tier counters (present on "aot"-mechanism runs): blocks
	// pre-translated offline, dispatches served from them, and dynamic
	// translations the engine still performed. A warm request on a known
	// image reports translated_blocks and jit_fallbacks of zero.
	AOTBlocks    uint64 `json:"aot_blocks,omitempty"`
	AOTHits      uint64 `json:"aot_hits,omitempty"`
	JITFallbacks uint64 `json:"jit_fallbacks,omitempty"`
	// Trace-tier telemetry. Host-side only: which traces exist never
	// changes the simulated counters above.
	TracesFormed       uint64 `json:"traces_formed,omitempty"`
	ChainFollows       uint64 `json:"chain_follows,omitempty"`
	TraceInvalidations uint64 `json:"trace_invalidations,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
	Class string `json:"class"`
	// GuestFault is set (with HTTP 422) when the guest program itself took
	// a memory fault: the run was served correctly, the program faulted.
	GuestFault *guestFaultBody `json:"guest_fault,omitempty"`
}

// guestFaultBody pins the faulting guest PC and access in the 422 body.
type guestFaultBody struct {
	PC       string `json:"pc"`
	Addr     string `json:"addr"`
	Size     int    `json:"size"`
	Write    bool   `json:"write"`
	Unmapped bool   `json:"unmapped"`
}

// app binds the HTTP handlers to one serving pool.
type app struct {
	srv      *serve.Server
	mech     core.Mechanism
	deadline time.Duration

	mu    sync.Mutex
	progs map[string]*benchModel // benchmark model cache

	// Cumulative serving counters (GET /statsz), updated atomically.
	runs         atomic.Uint64 // successful /run executions
	aotRuns      atomic.Uint64 // runs served under the aot mechanism
	aotHits      atomic.Uint64 // dispatches into pre-translated blocks
	jitFallbacks atomic.Uint64 // dynamic translations despite AOT

	// Trace-tier counters, summed across runs.
	tracesFormed       atomic.Uint64 // step-list traces built
	chainFollows       atomic.Uint64 // direct trace-to-trace transfers
	traceInvalidations atomic.Uint64 // traces dropped (SMC, flush, reset)
}

func newApp(srv *serve.Server, mech core.Mechanism, deadline time.Duration) *app {
	return &app{
		srv: srv, mech: mech, deadline: deadline,
		progs: make(map[string]*benchModel),
	}
}

// benchModel is one generated benchmark plus the warm-start artifacts
// made from it, each at most once per process: the ahead-of-time image
// (CFG recovery over the ref-loaded program) and the train-input trap
// profile.
type benchModel struct {
	prog *workload.Program

	imageOnce sync.Once
	image     *aot.Image
	profOnce  sync.Once
	profile   *store.TrapProfile // nil if training failed: the run stays cold
}

// build is the model's serve.WarmStart builder.
func (b *benchModel) build() *aot.Image {
	b.imageOnce.Do(func() {
		m := mem.New()
		b.prog.Load(m, workload.Ref)
		b.image = aot.BuildFromMemory(m, b.prog.Entry())
	})
	return b.image
}

// train is the model's serve.WarmStart trainer.
func (b *benchModel) train() *store.TrapProfile {
	b.profOnce.Do(func() {
		tp, err := serve.TrainBench(b.prog)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dbtserve: train profile: %v\n", err)
			return
		}
		b.profile = tp
	})
	return b.profile
}

// mux returns the HTTP routing table (shared by main and the tests).
func (a *app) mux() *http.ServeMux {
	m := http.NewServeMux()
	m.HandleFunc("/run", a.handleRun)
	m.HandleFunc("/healthz", a.handleHealth)
	m.HandleFunc("/statsz", a.handleStats)
	return m
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// errStatus maps the error taxonomy onto HTTP statuses.
func errStatus(err error) int {
	switch {
	case errors.Is(err, serve.ErrOverloaded), errors.Is(err, serve.ErrCircuitOpen):
		return http.StatusServiceUnavailable
	case errors.Is(err, serve.ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case core.IsInternal(err):
		return http.StatusInternalServerError
	case core.IsTransient(err):
		return http.StatusServiceUnavailable
	default:
		if _, ok := core.AsGuestFault(err); ok {
			// The serving layer did its job; the guest program faulted.
			return http.StatusUnprocessableEntity
		}
		return http.StatusBadRequest // Permanent: the request's own fault
	}
}

// errBody builds the JSON error body, attaching the precise guest fault
// (PC, address, access) when the run ended in one.
func errBody(err error) errorResponse {
	resp := errorResponse{Error: err.Error(), Class: core.Classify(err).String()}
	if gf, ok := core.AsGuestFault(err); ok {
		resp.GuestFault = &guestFaultBody{
			PC:       fmt.Sprintf("%#x", gf.PC),
			Addr:     fmt.Sprintf("%#x", gf.Mem.Addr),
			Size:     gf.Mem.Size,
			Write:    gf.Mem.Write,
			Unmapped: gf.Mem.Unmapped,
		}
	}
	return resp
}

func (a *app) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only", Class: "permanent"})
		return
	}
	var body runRequest
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad JSON: " + err.Error(), Class: "permanent"})
		return
	}

	mech := a.mech
	if body.Mech != "" {
		m, ok := core.MechanismByName(body.Mech)
		if !ok {
			writeJSON(w, http.StatusBadRequest, errorResponse{
				Error: fmt.Sprintf("unknown mechanism %q (have %s)", body.Mech, strings.Join(policy.AllNames(), ", ")),
				Class: "permanent",
			})
			return
		}
		mech = m
	}
	opt := core.DefaultOptions(mech)
	if body.Threshold != 0 {
		opt.HeatThreshold = body.Threshold
	}

	req := serve.Request{Options: &opt, Budget: body.Budget, Timeout: a.deadline}
	if body.DeadlineMS > 0 {
		req.Timeout = time.Duration(body.DeadlineMS) * time.Millisecond
	}
	var name string
	given := 0
	for _, s := range []string{body.Asm, body.Bench, body.FaultProg} {
		if s != "" {
			given++
		}
	}
	switch {
	case given > 1:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "give exactly one of asm, bench, faultprog", Class: "permanent"})
		return
	case body.FaultProg != "":
		fp, err := workload.FaultProgramByName(body.FaultProg)
		if errors.Is(err, workload.ErrUnknownFaultProgram) {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error(), Class: "permanent"})
			return
		}
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error(), Class: "internal"})
			return
		}
		name = fp.Name
		req.Load = func(m *mem.Memory) uint32 { fp.Load(m); return fp.Entry() }
	case body.Asm != "":
		img, err := guestasm.Assemble(body.Asm, guest.CodeBase)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error(), Class: "permanent"})
			return
		}
		name = "asm"
		req.Image = img
	case body.Bench != "":
		model, err := a.program(body.Bench)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error(), Class: "permanent"})
			return
		}
		in := workload.Ref // an omitted input runs ref
		if body.Input != "" {
			if in, err = workload.InputByName(body.Input); err != nil {
				writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error(), Class: "permanent"})
				return
			}
		}
		name = body.Bench
		req.Key = body.Bench
		req.StoreKey = workload.BenchStoreKey(body.Bench, in)
		req.Load = func(m *mem.Memory) uint32 { model.prog.Load(m, in); return model.prog.Entry() }
		// The AOT image and the static profile come from the store, else
		// from the model's cached builder and trainer (saved for the next
		// process), inside the pool and under the request's deadline.
		req.Build, req.Train = model.build, model.train
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "need asm, bench, or faultprog", Class: "permanent"})
		return
	}

	start := time.Now()
	res, err := a.srv.Do(r.Context(), req)
	if err != nil {
		writeJSON(w, errStatus(err), errBody(err))
		return
	}
	resp := runResponse{
		Program:       name,
		Mechanism:     opt.Mechanism.String(),
		Cycles:        res.Counters.Cycles,
		HostInsts:     res.Counters.Insts,
		MisalignTraps: res.Counters.MisalignTraps,
		Translated:    res.Stats.BlocksTranslated,
		Interpreted:   res.Stats.InterpretedInsts,
		CodeBytes:     res.CodeUsed,
		EAX:           res.CPU.R[guest.EAX],
		Attempts:      res.Attempts,
		Worker:        res.Worker,
		ElapsedMS:     float64(time.Since(start).Microseconds()) / 1000,
		AOTBlocks:     res.Stats.AOTBlocks,
		AOTHits:       res.Stats.AOTHits,
		JITFallbacks:  res.Stats.AOTFallbacks,

		TracesFormed:       res.Traces.Formed,
		ChainFollows:       res.Traces.ChainFollows,
		TraceInvalidations: res.Traces.Invalidations,
	}
	for i := range resp.Regs {
		resp.Regs[i] = res.CPU.R[guest.Reg(i)]
	}
	a.runs.Add(1)
	a.tracesFormed.Add(res.Traces.Formed)
	a.chainFollows.Add(res.Traces.ChainFollows)
	a.traceInvalidations.Add(res.Traces.Invalidations)
	if opt.AOT {
		a.aotRuns.Add(1)
		a.aotHits.Add(res.Stats.AOTHits)
		a.jitFallbacks.Add(res.Stats.AOTFallbacks)
		fmt.Fprintf(os.Stderr, "dbtserve: aot %s: %d blocks pre-translated, %d hits, %d jit fallbacks\n",
			name, res.Stats.AOTBlocks, res.Stats.AOTHits, res.Stats.AOTFallbacks)
	}
	writeJSON(w, http.StatusOK, resp)
}

// statsResponse is the GET /statsz body: cumulative serving counters. The
// aot_hits vs jit_fallbacks ratio is the cold-start win made observable —
// a warmed pool serving known images reports growing hits with zero
// fallbacks.
type statsResponse struct {
	Runs         uint64 `json:"runs"`
	AOTRuns      uint64 `json:"aot_runs"`
	AOTHits      uint64 `json:"aot_hits"`
	JITFallbacks uint64 `json:"jit_fallbacks"`
	// Trace-tier totals across runs: how much dispatch tax
	// the pool's engines avoided, and how often invalidation severed the
	// chains (SMC, flushes, engine resets).
	TracesFormed       uint64 `json:"traces_formed"`
	ChainFollows       uint64 `json:"chain_follows"`
	TraceInvalidations uint64 `json:"trace_invalidations"`
	// Store is the persistent artifact store's counter snapshot, present
	// only when the server runs with -store. hits vs misses is the
	// cross-restart warm-start win; corrupt/quarantined is the
	// degraded-but-correct path (every corrupt artifact was isolated and
	// its request served cold).
	Store *store.Stats `json:"store,omitempty"`
}

func (a *app) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{
		Runs:         a.runs.Load(),
		AOTRuns:      a.aotRuns.Load(),
		AOTHits:      a.aotHits.Load(),
		JITFallbacks: a.jitFallbacks.Load(),

		TracesFormed:       a.tracesFormed.Load(),
		ChainFollows:       a.chainFollows.Load(),
		TraceInvalidations: a.traceInvalidations.Load(),
	}
	if st, ok := a.srv.StoreStats(); ok {
		resp.Store = &st
	}
	writeJSON(w, http.StatusOK, resp)
}

func (a *app) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := a.srv.Health()
	status := http.StatusOK
	if h.Draining {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// program returns the (cached) benchmark model.
func (a *app) program(name string) (*benchModel, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if p, ok := a.progs[name]; ok {
		return p, nil
	}
	spec, ok := workload.SpecByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", name)
	}
	p, err := workload.Generate(spec)
	if err != nil {
		return nil, err
	}
	b := &benchModel{prog: p}
	a.progs[name] = b
	return b, nil
}

func main() {
	addr := flag.String("addr", ":8437", "listen address")
	workers := flag.Int("workers", 0, "engine pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "admission queue bound (0 = 2×workers)")
	retries := flag.Int("retries", 2, "retries on transient failures (-1 disables)")
	budget := flag.Uint64("budget", 4_000_000_000, "default host-instruction budget per request")
	deadline := flag.Duration("deadline", 30*time.Second, "default per-request deadline (0 = none)")
	mechName := flag.String("mech", "eh", "default MDA mechanism, by policy-registry name")
	chaosRate := flag.Float64("chaos-rate", 0, "arm every serving fault point with this probability")
	chaosSeed := flag.Int64("chaos-seed", 1, "serving fault-injection seed (with -chaos-rate)")
	drainWait := flag.Duration("drain", 30*time.Second, "max time to drain in-flight requests at shutdown")
	storeDir := flag.String("store", "", "persistent artifact store directory: AOT images and trap profiles survive restarts (empty = memory-only)")
	flag.Parse()

	mech, ok := core.MechanismByName(*mechName)
	if !ok {
		fmt.Fprintf(os.Stderr, "dbtserve: unknown mechanism %q (have %s)\n", *mechName, strings.Join(policy.AllNames(), ", "))
		os.Exit(1)
	}
	var chaos *faultinject.Plan
	if *chaosRate > 0 {
		chaos = faultinject.New(*chaosSeed).
			Rate(faultinject.ServeTransient, *chaosRate).
			Rate(faultinject.ServePanic, *chaosRate)
	}
	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dbtserve: open store: %v\n", err)
			os.Exit(1)
		}
	}
	srv := serve.NewServer(serve.ServerOptions{
		Pool: serve.Options{
			Workers: *workers,
			Queue:   *queue,
			Retries: *retries,
			Chaos:   chaos,
		},
		Budget: *budget,
		Store:  st,
	})
	a := newApp(srv, mech, *deadline)

	httpSrv := &http.Server{Addr: *addr, Handler: a.mux()}
	done := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "dbtserve: draining...")
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "dbtserve: %v\n", err)
		}
		httpSrv.Shutdown(ctx)
		srv.Close()
		close(done)
	}()

	fmt.Printf("dbtserve: listening on %s (%d workers, mechanism %v)\n",
		*addr, srv.Health().Workers, mech)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "dbtserve: %v\n", err)
		os.Exit(1)
	}
	<-done
}

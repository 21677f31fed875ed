package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"mdabt/internal/aot"
	"mdabt/internal/core"
	"mdabt/internal/faultinject"
	"mdabt/internal/guest"
	"mdabt/internal/machine"
	"mdabt/internal/mem"
	"mdabt/internal/store"
)

// Request describes one guest program execution.
type Request struct {
	// Key names the logical program for circuit breaking; requests sharing
	// a Key share a breaker. Empty opts out of circuit breaking.
	Key string

	// Image is a guest binary image, loaded at Base (default
	// guest.CodeBase); execution starts at Entry (default Base). Data, when
	// non-empty, is additionally loaded at DataBase (default
	// guest.DataBase).
	Image    []byte
	Base     uint32
	Entry    uint32
	Data     []byte
	DataBase uint32

	// Load, when non-nil, replaces the Image/Data path: it populates the
	// (freshly reset) guest address space itself and returns the entry PC.
	// It must be idempotent — a retried request calls it again on a reset
	// memory. Workload programs plug in here (Program.Load).
	Load func(m *mem.Memory) uint32

	// StoreKey names the program for the persistent artifact store
	// (ServerOptions.Store): requests sharing a StoreKey share warm-start
	// artifacts and aggregate into one trap profile. Empty derives it
	// from the Image/Data content hash; loader-hook requests without an
	// explicit StoreKey bypass the store (no stable content identity).
	StoreKey string

	// Build and Train, when non-nil, are WarmStart's builder and trainer
	// for this program: they make the AOT image and the static trap
	// profile the store lacks. They run inside the pool, under Timeout,
	// so a refused request never pays for them. Workers may call them at
	// once and a retried request calls them again, so a front end
	// memoizes them per program.
	Build func() *aot.Image
	Train func() *store.TrapProfile

	// Options configures the translator for this request; nil selects the
	// server default. The fault plan inside (if any) must be private to
	// this request — use faultinject.Plan.Fork per request.
	Options *core.Options

	// Budget bounds simulated host instructions (default: server default).
	Budget uint64

	// Timeout bounds wall-clock execution; the engine aborts within one
	// budget slice of the deadline. Zero inherits ctx's deadline only.
	Timeout time.Duration
}

// Result is the outcome of one completed request. Counters and Stats are
// the same values a dedicated single-engine run would produce: pooling,
// retries, and slicing are invisible to the simulation's accounting.
type Result struct {
	CPU      guest.CPU
	Counters machine.Counters
	Stats    core.Stats
	CodeUsed uint64 // code-cache bytes at completion
	Attempts int    // 1 unless transient failures were retried
	Worker   int    // worker that produced the result
	// Traces is the host-side trace-tier telemetry this request generated.
	// Engine reuse makes the machine's own counters cumulative, so this is
	// the per-request delta.
	Traces machine.TraceStats
}

// ServerOptions configures a Server.
type ServerOptions struct {
	// Pool configures the underlying worker pool.
	Pool Options
	// Run is the default translator configuration (nil: the paper-default
	// exception-handling mechanism).
	Run *core.Options
	// Budget is the default per-request host-instruction budget
	// (default 4e9, matching the dbtrun CLI).
	Budget uint64
	// Params is the host cost model (nil: machine.DefaultParams).
	Params *machine.Params
	// Store, when non-nil, is the persistent artifact store: workers
	// warm-start from its AOT images and trap profiles, and accumulated
	// per-site trap histories are merged back on Drain/Close. Any
	// artifact problem degrades the request to cold translation — it
	// never fails it (see store.go in this package).
	Store *store.Store
}

// Server runs guest programs on a pool of reusable engines. Each worker
// owns one engine built on first use and recycled with Engine.Reset
// between requests, so the simulated address space, code-cache arena, and
// decode caches are reused rather than reallocated.
type Server struct {
	pool   *Pool
	opt    core.Options
	budget uint64
	params machine.Params

	// store is the optional persistent artifact store; profiles holds the
	// per-(program, fingerprint) trap-history deltas accumulated since
	// the last flush, under profMu.
	store    *store.Store
	profMu   sync.Mutex
	profiles map[profKey]*store.TrapProfile
}

// engineBundle is the per-worker engine state stored in Worker.State.
type engineBundle struct {
	mem  *mem.Memory
	mach *machine.Machine
	eng  *core.Engine
}

// NewServer builds the server and starts its pool.
func NewServer(opt ServerOptions) *Server {
	s := &Server{
		pool:     NewPool(opt.Pool),
		budget:   opt.Budget,
		store:    opt.Store,
		profiles: make(map[profKey]*store.TrapProfile),
	}
	if s.budget == 0 {
		s.budget = 4_000_000_000
	}
	if opt.Run != nil {
		s.opt = *opt.Run
	} else {
		s.opt = core.DefaultOptions(core.ExceptionHandling)
	}
	if opt.Params != nil {
		s.params = *opt.Params
	} else {
		s.params = machine.DefaultParams()
	}
	return s
}

// Do executes one request and returns its result. Failures carry the core
// error taxonomy: bad programs and exhausted budgets are Permanent,
// injected serving faults and shedding are Transient (retried
// automatically up to the pool's retry budget), and engine bugs or worker
// panics are Internal.
func (s *Server) Do(ctx context.Context, req Request) (*Result, error) {
	var res *Result
	err := s.pool.Do(ctx, req.Key, func(ctx context.Context, w *Worker) error {
		r, err := s.attempt(ctx, w, req)
		if err != nil {
			return err
		}
		res = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// attempt runs req once on w's engine. It is the retry unit: every fault
// injected at the serve level fires before the engine touches any state,
// so a retried attempt replays on an engine indistinguishable from fresh.
func (s *Server) attempt(ctx context.Context, w *Worker, req Request) (*Result, error) {
	if w.Chaos.Should(faultinject.ServePanic) {
		panic(fmt.Sprintf("serve: injected panic (worker %d)", w.ID))
	}
	if w.Chaos.Should(faultinject.ServeTransient) {
		return nil, core.WithClass(core.Transient,
			fmt.Errorf("serve: injected transient fault (worker %d)", w.ID))
	}

	opt := s.opt
	if req.Options != nil {
		opt = *req.Options
	}
	if req.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, req.Timeout)
		defer cancel()
	}
	// Warm-start from the persistent store, then from the request's
	// builder and trainer: adopt an AOT schedule and/or trap profile for
	// this (program, options) pair. Misses and corrupt artifacts
	// (quarantined inside the store) leave opt cold. A failed save only
	// costs the next request its warmth; the store's ledger counts it.
	program := storeProgram(req)
	var fingerprint string
	if s.store != nil && program != "" || req.Build != nil || req.Train != nil {
		fingerprint, _ = WarmStart(s.store, program, &opt, req.Build, req.Train)
	}
	b, _ := w.State.(*engineBundle)
	if b == nil {
		b = &engineBundle{mem: mem.New()}
		b.mach = machine.New(b.mem, s.params)
		b.eng = core.NewEngine(b.mem, b.mach, opt)
		w.State = b
	} else {
		b.eng.Reset(opt)
	}
	// Snapshot after Reset so the delta excludes the reset's own trace
	// invalidations (they belong to the previous request's teardown).
	ts0 := b.eng.TraceStats()

	entry := req.Entry
	switch {
	case req.Load != nil:
		entry = req.Load(b.mem)
	case len(req.Image) > 0:
		base := req.Base
		if base == 0 {
			base = guest.CodeBase
		}
		if entry == 0 {
			entry = base
		}
		b.eng.LoadImage(base, req.Image)
		if len(req.Data) > 0 {
			dbase := req.DataBase
			if dbase == 0 {
				dbase = guest.DataBase
			}
			b.mem.WriteBytes(uint64(dbase), req.Data)
		}
	default:
		return nil, core.WithClass(core.Permanent, errors.New("serve: empty request: no image and no loader"))
	}

	budget := req.Budget
	if budget == 0 {
		budget = s.budget
	}
	if err := b.eng.RunContext(ctx, entry, budget); err != nil {
		return nil, err
	}
	// A completed request contributes its session's site history to the
	// pending store delta (flushed on Drain/Close).
	if s.store != nil && program != "" {
		s.accumulate(program, fingerprint, b.eng)
	}
	return &Result{
		CPU:      b.eng.FinalCPU(),
		Counters: b.mach.Counters(),
		Stats:    b.eng.Stats(),
		CodeUsed: b.eng.CodeCacheUsed(),
		Attempts: w.Attempt,
		Worker:   w.ID,
		Traces:   b.eng.TraceStats().Sub(ts0),
	}, nil
}

// Health returns the pool health snapshot.
func (s *Server) Health() Health { return s.pool.Health() }

// Drain stops admissions, waits for in-flight requests (or ctx), then
// flushes the accumulated trap-profile deltas into the persistent store —
// the point where per-worker profile knowledge stops dying with the
// worker. A failed flush requeues its delta for the next Drain/Close.
func (s *Server) Drain(ctx context.Context) error {
	return joinDrainErr(s.pool.Drain(ctx), s.flushProfiles())
}

// Close drains and stops the pool, flushing pending trap profiles.
func (s *Server) Close() error {
	return joinDrainErr(s.pool.Close(), s.flushProfiles())
}

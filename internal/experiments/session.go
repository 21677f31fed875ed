// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI) on the simulated Alpha host: one runner per artifact,
// sharing a Session that caches workload programs, censuses, and DBT runs
// across experiments (Figure 16 reuses Figure 11/12's runs, etc.).
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"mdabt/internal/core"
	"mdabt/internal/machine"
	"mdabt/internal/mem"
	"mdabt/internal/policy"
	"mdabt/internal/serve"
	"mdabt/internal/workload"
)

// RunResult is the outcome of one benchmark × configuration execution.
type RunResult struct {
	Counters machine.Counters
	Stats    core.Stats
	// Traces is the host-side trace-tier telemetry (zero for an untraced
	// run); it never feeds the simulated columns.
	Traces machine.TraceStats
}

// Cycles returns the simulated runtime.
func (r RunResult) Cycles() uint64 { return r.Counters.Cycles }

// Session caches generated programs, censuses and DBT runs. Methods are
// safe for concurrent use; the experiment runners fan benchmarks out over
// a worker pool.
type Session struct {
	// IterFloor overrides the workload generator's minimum iteration count
	// (tests use a small value for speed; 0 keeps the default).
	IterFloor int
	// Shrink divides each spec's MDA target (≥1; 0 means 1).
	Shrink float64
	// Parallelism bounds concurrent benchmark runs (0 = NumCPU).
	Parallelism int
	// Budget bounds host instructions per run.
	Budget uint64
	// Timeout bounds the wall-clock time of each benchmark run (0 = none);
	// a run that exceeds it fails with context.DeadlineExceeded instead of
	// wedging the whole experiment.
	Timeout time.Duration
	// MachineParams overrides the host cost model (nil = machine.DefaultParams).
	// The sensitivity tests use it to show the paper-shape conclusions are
	// robust to cost-model changes.
	MachineParams *machine.Params

	mu     sync.Mutex
	progs  map[string]*workload.Program
	cens   map[string]*core.Census
	runs   map[string]RunResult
	native map[string]uint64
}

// NewSession returns a session with full-scale defaults.
func NewSession() *Session {
	return &Session{
		Budget: 2_000_000_000,
		progs:  make(map[string]*workload.Program),
		cens:   make(map[string]*core.Census),
		runs:   make(map[string]RunResult),
		native: make(map[string]uint64),
	}
}

func (s *Session) adjust(spec workload.Spec) workload.Spec {
	if s.IterFloor > 0 {
		spec.IterFloor = s.IterFloor
	}
	if s.Shrink > 1 {
		spec.PaperMDAs /= s.Shrink
	}
	return spec
}

// Program returns the (cached) workload for a benchmark. variant selects
// the default build ("") or an alignment-optimized build ("psc"/"icc",
// Figure 1's two compilers, differing in padding aggressiveness).
func (s *Session) Program(name, variant string) (*workload.Program, error) {
	key := name + "|" + variant
	s.mu.Lock()
	p, ok := s.progs[key]
	s.mu.Unlock()
	if ok {
		return p, nil
	}
	spec, ok2 := workload.SpecByName(name)
	if !ok2 {
		return nil, fmt.Errorf("experiments: unknown benchmark %q", name)
	}
	spec = s.adjust(spec)
	var err error
	switch variant {
	case "":
		p, err = workload.Generate(spec)
	case "psc": // pathscale-style: aggressive padding
		p, err = workload.GenerateAligned(spec, 96)
	case "icc": // icc-style: tighter padding
		p, err = workload.GenerateAligned(spec, 80)
	default:
		return nil, fmt.Errorf("experiments: unknown variant %q", variant)
	}
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.progs[key] = p
	s.mu.Unlock()
	return p, nil
}

// Census returns the (cached) pure-interpretation census of a benchmark
// under the given input.
func (s *Session) Census(name string, in workload.Input) (*core.Census, error) {
	key := fmt.Sprintf("%s|%v", name, in)
	s.mu.Lock()
	c, ok := s.cens[key]
	s.mu.Unlock()
	if ok {
		return c, nil
	}
	p, err := s.Program(name, "")
	if err != nil {
		return nil, err
	}
	if c, err = serve.BenchCensus(p, in); err != nil {
		return nil, fmt.Errorf("experiments: census %s: %w", name, err)
	}
	s.mu.Lock()
	s.cens[key] = c
	s.mu.Unlock()
	return c, nil
}

// Run executes a benchmark (ref input) under opt on the simulated host,
// returning cached results on repeat calls. Every run is on the trace
// tier (DESIGN.md §14), which leaves the simulated results bit-identical,
// so runs are cached by the options' Fingerprint alone: it already equates
// a zero knob with its default and ignores Traces. A static-profile
// mechanism gets its StaticSites from the benchmark's train census.
func (s *Session) Run(name string, opt core.Options) (RunResult, error) {
	key := name + "|" + opt.Fingerprint()
	s.mu.Lock()
	r, ok := s.runs[key]
	s.mu.Unlock()
	if ok {
		return r, nil
	}
	r, err := s.execute(name, opt)
	if err != nil {
		return RunResult{}, err
	}
	s.mu.Lock()
	s.runs[key] = r
	s.mu.Unlock()
	return r, nil
}

// execute runs a benchmark (ref input) under opt exactly as given, with no
// caching.
func (s *Session) execute(name string, opt core.Options) (RunResult, error) {
	p, err := s.Program(name, "")
	if err != nil {
		return RunResult{}, err
	}
	if row, ok := policy.Lookup(int(opt.Mechanism)); ok && row.Static {
		// The train-input profile from the cached train census: the
		// census serve.TrainBench runs, so the same profile.
		c, err := s.Census(name, workload.Train)
		if err != nil {
			return RunResult{}, err
		}
		opt.StaticSites = c.Profile().StaticSites()
	}
	if err := opt.Validate(); err != nil {
		return RunResult{}, fmt.Errorf("experiments: %s under %v: %w", name, opt.Mechanism, err)
	}
	m := mem.New()
	p.Load(m, workload.Ref)
	params := machine.DefaultParams()
	if s.MachineParams != nil {
		params = *s.MachineParams
	}
	mach := machine.New(m, params)
	e := core.NewEngine(m, mach, opt)
	ctx := context.Background()
	if s.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.Timeout)
		defer cancel()
	}
	if err := e.RunContext(ctx, p.Entry(), s.Budget); err != nil {
		return RunResult{}, fmt.Errorf("experiments: %s under %v: %w", name, opt.Mechanism, err)
	}
	// Every run doubles as a verifier pass: the emitted code of every live
	// translation must lint clean.
	if findings := e.Lint(); len(findings) > 0 {
		return RunResult{}, fmt.Errorf("experiments: %s under %v: translation lint: %s (%d findings)",
			name, opt.Mechanism, findings[0], len(findings))
	}
	return RunResult{Counters: mach.Counters(), Stats: e.Stats(), Traces: e.TraceStats()}, nil
}

// forEach fans the benchmark list out over a serve.Pool, preserving the
// historical contract: every name runs, and the first error in name order
// is returned. Relative to the old bespoke WaitGroup fan-out, the pool
// adds panic isolation (a crashing benchmark surfaces as an Internal
// error, not a process abort); per-run deadlines come from
// Session.Timeout inside Run.
func (s *Session) forEach(names []string, fn func(name string) error) error {
	par := s.Parallelism
	if par <= 0 {
		par = runtime.NumCPU()
	}
	if par > len(names) {
		par = len(names)
	}
	if par < 1 {
		par = 1
	}
	pool := serve.NewPool(serve.Options{Workers: par, Retries: -1, BreakerThreshold: -1})
	defer pool.Close()
	return pool.Each(context.Background(), len(names), nil,
		func(ctx context.Context, i int, w *serve.Worker) error {
			return fn(names[i])
		})
}

// selectedNames returns the 21 performance benchmarks in Table I order.
func selectedNames() []string {
	var names []string
	for _, sp := range workload.SelectedSpecs() {
		names = append(names, sp.Name)
	}
	return names
}

// allNames returns all 54 benchmarks in Table I order.
func allNames() []string {
	var names []string
	for _, sp := range workload.Specs() {
		names = append(names, sp.Name)
	}
	return names
}

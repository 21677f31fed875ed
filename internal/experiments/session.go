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

// Config names one translator configuration under test. The mechanism is
// selected either by the Mech constant or — taking precedence when set —
// by Policy, a policy-registry name, so experiments can address
// registry-only mechanisms without new core constants.
type Config struct {
	Mech         core.Mechanism
	Policy       string // registry name/alias; overrides Mech when non-empty
	Threshold    uint64 // heating threshold; 0 selects the mechanism default
	Rearrange    bool
	Retranslate  bool
	MultiVersion bool
	MVBlock      bool // block-granularity multi-version (§IV-D preferred form)
	Adaptive     bool // §IV-D truly-adaptive sites (extension experiment)
	NoChain      bool // disable translation chaining (ablation)
	IBTC         bool // indirect-branch translation cache (ablation)
	Superblocks  bool // phase-2 trace formation (ablation)
	StaticAlign  bool // static alignment analysis layer (PR 3)
	AOT          bool // ahead-of-time whole-binary pre-translation (PR 8)
	Traces       bool // IR-less direct-chaining execution tier (simulation-invisible)
}

// mechanism resolves the configured mechanism ID (Policy wins over Mech).
func (c Config) mechanism() (core.Mechanism, error) {
	if c.Policy == "" {
		return c.Mech, nil
	}
	m, ok := core.MechanismByName(c.Policy)
	if !ok {
		return 0, fmt.Errorf("experiments: unknown mechanism policy %q", c.Policy)
	}
	return m, nil
}

func (c Config) key() string {
	return fmt.Sprintf("%d/%s/%d/%v%v%v%v%v%v%v%v%v%v%v", c.Mech, c.Policy, c.Threshold, c.Rearrange, c.Retranslate, c.MultiVersion, c.MVBlock, c.Adaptive, c.NoChain, c.IBTC, c.Superblocks, c.StaticAlign, c.AOT, c.Traces)
}

// String names the configuration for reports.
func (c Config) String() string {
	s := c.Mech.String()
	if m, err := c.mechanism(); err == nil {
		s = m.String()
	}
	if c.Threshold != 0 {
		s += fmt.Sprintf("(th=%d)", c.Threshold)
	}
	if c.Rearrange {
		s += "+rearrange"
	}
	if c.Retranslate {
		s += "+retrans"
	}
	if c.MultiVersion {
		s += "+multiver"
	}
	if c.MVBlock {
		s += "+mvblock"
	}
	if c.Adaptive {
		s += "+adaptive"
	}
	if c.NoChain {
		s += "+nochain"
	}
	if c.IBTC {
		s += "+ibtc"
	}
	if c.Superblocks {
		s += "+superblocks"
	}
	if c.StaticAlign {
		s += "+staticalign"
	}
	if c.AOT {
		s += "+aot"
	}
	return s
}

// RunResult is the outcome of one benchmark × configuration execution.
type RunResult struct {
	Counters machine.Counters
	Stats    core.Stats
	// Traces is the host-side trace-tier telemetry (zero unless
	// Config.Traces); it never feeds the simulated columns.
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
	m := mem.New()
	p.Load(m, in)
	c, err = core.RunCensus(m, p.Entry(), 300_000_000)
	if err != nil {
		return nil, fmt.Errorf("experiments: census %s: %w", name, err)
	}
	if !c.Halted {
		return nil, fmt.Errorf("experiments: census %s did not halt", name)
	}
	s.mu.Lock()
	s.cens[key] = c
	s.mu.Unlock()
	return c, nil
}

// Run executes a benchmark (ref input) under cfg on the simulated host,
// returning cached results on repeat calls.
func (s *Session) Run(name string, cfg Config) (RunResult, error) {
	key := name + "|" + cfg.key()
	s.mu.Lock()
	r, ok := s.runs[key]
	s.mu.Unlock()
	if ok {
		return r, nil
	}
	p, err := s.Program(name, "")
	if err != nil {
		return RunResult{}, err
	}
	mech, err := cfg.mechanism()
	if err != nil {
		return RunResult{}, err
	}
	opt := core.DefaultOptions(mech)
	if cfg.Threshold != 0 {
		opt.HeatThreshold = cfg.Threshold
	}
	opt.Rearrange = cfg.Rearrange
	opt.Retranslate = cfg.Retranslate
	opt.MultiVersion = cfg.MultiVersion
	opt.MVBlockGranularity = cfg.MVBlock
	opt.Adaptive = cfg.Adaptive
	opt.NoChain = cfg.NoChain
	opt.IBTC = cfg.IBTC
	opt.Superblocks = cfg.Superblocks
	opt.Traces = cfg.Traces
	// OR-preserving: DefaultOptions("aot") pre-sets StaticAlign and AOT;
	// the config flags add the layers over other bases without clearing
	// those defaults.
	opt.StaticAlign = cfg.StaticAlign || opt.StaticAlign
	opt.AOT = cfg.AOT || opt.AOT
	if opt.AOT {
		opt.StaticAlign = true
	}
	if pm, ok := policy.ByID(int(mech)); ok && pm.UsesStaticProfile() {
		// The train-input profile, from the cached train census (the same
		// Census.Profile core.TrainProfile returns).
		c, err := s.Census(name, workload.Train)
		if err != nil {
			return RunResult{}, err
		}
		opt.StaticSites = c.Profile().StaticSites()
	}
	if err := opt.Validate(); err != nil {
		return RunResult{}, fmt.Errorf("experiments: %s under %v: %w", name, cfg, err)
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
		return RunResult{}, fmt.Errorf("experiments: %s under %v: %w", name, cfg, err)
	}
	// Every run doubles as a verifier pass: the emitted code of every live
	// translation must lint clean (ISSUE 3 acceptance criterion).
	if findings := e.Lint(); len(findings) > 0 {
		return RunResult{}, fmt.Errorf("experiments: %s under %v: translation lint: %s (%d findings)",
			name, cfg, findings[0], len(findings))
	}
	r = RunResult{Counters: mach.Counters(), Stats: e.Stats(), Traces: e.TraceStats()}
	s.mu.Lock()
	s.runs[key] = r
	s.mu.Unlock()
	return r, nil
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

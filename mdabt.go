// Package mdabt is a reproduction of "An Evaluation of Misaligned Data
// Access Handling Mechanisms in Dynamic Binary Translation Systems"
// (Li, Wu, Hsu — CGO 2009): a complete dynamic binary translator from a
// 32-bit x86-like guest ISA (misaligned data accesses allowed) to a 64-bit
// Alpha-like host ISA (misaligned accesses trap), running on a simulated
// Alpha ES40 with a cycle cost model, together with the five MDA handling
// mechanisms the paper evaluates and the full experiment harness that
// regenerates its tables and figures.
//
// The package is a facade over the implementation packages:
//
//   - internal/guest — the source ISA: registers, variable-length
//     encoding, reference interpreter, program builder.
//   - internal/guestasm — a text assembler for the guest ISA.
//   - internal/host — the target ISA: Alpha-style encodings including the
//     LDQ_U/EXT/INS/MSK unaligned-access support instructions.
//   - internal/machine — the simulated host processor: cycle accounting,
//     ES40 cache hierarchy, misalignment traps, code patching.
//   - internal/core — the translator: two-phase interpretation and
//     translation, code cache, block linking, and the glue that drives the
//     configured MDA mechanism.
//   - internal/policy — the mechanism table (Table II as data: Direct,
//     StaticProfile, DynamicProfile, ExceptionHandling, DPEH, SPEH, AOT)
//     and the Policy value that adds rearrangement, retranslation,
//     multi-version, adaptive and static-align decisions to a row.
//   - internal/workload — 54 SPEC CPU2000/2006 benchmark models dialed to
//     the paper's Table I/III/IV and Figure 15 measurements.
//   - internal/experiments — one runner per paper table/figure.
//
// # Quick start
//
//	img, _ := mdabt.Assemble(`
//	        mov     ebx, 0x10000000
//	        mov     eax, dword [ebx+2]   ; misaligned!
//	        halt
//	`, mdabt.GuestCodeBase)
//	sys := mdabt.NewSystem(mdabt.MechanismOptions(mdabt.ExceptionHandling))
//	sys.LoadImage(mdabt.GuestCodeBase, img)
//	_ = sys.Run(mdabt.GuestCodeBase, 1<<24)
//	fmt.Println(sys.Machine.Counters().MisalignTraps) // 1: patched after the first trap
package mdabt

import (
	"context"

	"mdabt/internal/core"
	"mdabt/internal/experiments"
	"mdabt/internal/guest"
	"mdabt/internal/guestasm"
	"mdabt/internal/machine"
	"mdabt/internal/mem"
	"mdabt/internal/serve"
	"mdabt/internal/store"
	"mdabt/internal/workload"
)

// Mechanism selects an MDA handling mechanism.
type Mechanism = core.Mechanism

// The five mechanisms of the paper's evaluation, plus the SPEH hybrid
// (static profiling + exception handling), a row of the same mechanism
// table.
const (
	Direct            = core.Direct
	StaticProfile     = core.StaticProfile
	DynamicProfile    = core.DynamicProfile
	ExceptionHandling = core.ExceptionHandling
	DPEH              = core.DPEH
	SPEH              = core.SPEH
)

// MechanismByName resolves a mechanism name or alias ("direct", "eh",
// "dpeh", "speh", ...) from the mechanism table.
func MechanismByName(name string) (Mechanism, bool) { return core.MechanismByName(name) }

// Mechanisms lists every mechanism in table (ID) order.
func Mechanisms() []Mechanism { return core.Mechanisms() }

// Options configures the translator (see core.Options).
type Options = core.Options

// MechanismOptions returns the paper-default configuration for a mechanism.
func MechanismOptions(m Mechanism) Options { return core.DefaultOptions(m) }

// Guest address-space constants.
const (
	GuestCodeBase  = guest.CodeBase
	GuestDataBase  = guest.DataBase
	GuestSharedLib = guest.SharedLib
	GuestStackTop  = guest.StackTop
)

// MachineParams is the host cycle cost model.
type MachineParams = machine.Params

// DefaultMachineParams returns the ES40-flavored cost model.
func DefaultMachineParams() MachineParams { return machine.DefaultParams() }

// System bundles one simulated machine with one translator instance.
type System struct {
	Mem     *mem.Memory
	Machine *machine.Machine
	Engine  *core.Engine
}

// NewSystem builds a fresh machine (default cost model) and translator.
func NewSystem(opt Options) *System {
	return NewSystemWithParams(opt, machine.DefaultParams())
}

// NewSystemWithParams builds a system with an explicit cost model.
func NewSystemWithParams(opt Options, params MachineParams) *System {
	m := mem.New()
	mach := machine.New(m, params)
	eng := core.NewEngine(m, mach, opt)
	return &System{Mem: m, Machine: mach, Engine: eng}
}

// LoadImage places a guest binary image at base.
func (s *System) LoadImage(base uint32, image []byte) { s.Engine.LoadImage(base, image) }

// Run executes the guest program until HALT or until maxHostInsts host
// instructions have been simulated (core.ErrBudget on exhaustion).
func (s *System) Run(entry uint32, maxHostInsts uint64) error {
	return s.Engine.Run(entry, maxHostInsts)
}

// RunContext is Run with cooperative cancellation: execution proceeds in
// bounded budget slices and aborts shortly after ctx is cancelled or its
// deadline passes (errors.Is(err, ctx.Err()) reports the cause).
func (s *System) RunContext(ctx context.Context, entry uint32, maxHostInsts uint64) error {
	return s.Engine.RunContext(ctx, entry, maxHostInsts)
}

// Reset recycles the system for another program under a (possibly
// different) configuration: guest memory is zeroed and every engine and
// machine structure returns to its initial state, reusing the allocated
// arenas. A reset system is behaviourally indistinguishable from a new
// one.
func (s *System) Reset(opt Options) { s.Engine.Reset(opt) }

// Error taxonomy of the engine and serving layer (see core.ErrClass):
// Permanent errors are the request's own fault (bad program, exhausted
// budget, cancelled context), Transient errors are momentary conditions
// worth retrying (injected faults, overload shedding), and Internal
// errors are engine bugs (recovered panics, bad emitted host code).
type ErrClass = core.ErrClass

const (
	ErrPermanent = core.Permanent
	ErrTransient = core.Transient
	ErrInternal  = core.Internal
)

// ClassifyError reports an error's class (Permanent for unclassified).
func ClassifyError(err error) ErrClass { return core.Classify(err) }

// Serving layer: a pool of reusable engines running many guest programs
// concurrently with deadlines, retries, circuit breaking, and graceful
// drain (see internal/serve).
type (
	// Server runs guest programs over pooled, recycled engines.
	Server = serve.Server
	// ServerOptions configures NewServer.
	ServerOptions = serve.ServerOptions
	// ServeRequest describes one guest program execution.
	ServeRequest = serve.Request
	// ServeResult is a completed execution's state and statistics.
	ServeResult = serve.Result
	// PoolOptions tunes the worker pool inside a Server.
	PoolOptions = serve.Options
	// PoolHealth is a point-in-time serving health snapshot.
	PoolHealth = serve.Health
)

// Serving-layer sentinel errors.
var (
	ErrServeOverloaded = serve.ErrOverloaded
	ErrServeDraining   = serve.ErrDraining
	ErrServeCircuit    = serve.ErrCircuitOpen
)

// NewServer starts a serving pool (see Server.Do, Server.Drain).
func NewServer(opt ServerOptions) *Server { return serve.NewServer(opt) }

// GuestCPU returns the final guest architectural state.
func (s *System) GuestCPU() guest.CPU { return s.Engine.FinalCPU() }

// Assemble translates guest assembly text into a loadable image.
func Assemble(src string, base uint32) ([]byte, error) {
	return guestasm.Assemble(src, base)
}

// DisassembleGuest renders a guest image as assembly text.
func DisassembleGuest(img []byte, base uint32) (string, error) {
	return guestasm.DisasmImage(img, base)
}

// Census is a pure-interpretation misalignment census (Table I / Fig. 15
// data for a program).
type Census = core.Census

// RunCensus interprets the program at entry in m and returns its census.
func RunCensus(m *mem.Memory, entry uint32, maxInsts uint64) (*Census, error) {
	return core.RunCensus(m, entry, maxInsts)
}

// TrapProfile is the per-site alignment profile: a census's sites, the
// FX!32-style profile file behind the static-profiling mechanism (JSON),
// and the store's cross-session trap profile. StaticSites gives the
// static mechanism's site set.
type TrapProfile = store.TrapProfile

// TrainProfile censuses the program at entry (a training pre-execution)
// and returns its profile.
func TrainProfile(m *mem.Memory, entry uint32, maxInsts uint64) (*TrapProfile, error) {
	return core.TrainProfile(m, entry, maxInsts)
}

// BenchmarkSpec models one SPEC benchmark's MDA behaviour.
type BenchmarkSpec = workload.Spec

// Benchmarks returns all 54 Table I benchmark models.
func Benchmarks() []BenchmarkSpec { return workload.Specs() }

// SelectedBenchmarks returns the 21 benchmarks of the performance
// experiments.
func SelectedBenchmarks() []BenchmarkSpec { return workload.SelectedSpecs() }

// BenchmarkByName looks up one benchmark model.
func BenchmarkByName(name string) (BenchmarkSpec, bool) { return workload.SpecByName(name) }

// Workload is a generated benchmark program.
type Workload = workload.Program

// Input selects a benchmark input set.
type Input = workload.Input

// Benchmark input sets.
const (
	TrainInput = workload.Train
	RefInput   = workload.Ref
)

// GenerateWorkload builds the guest program modelling spec.
func GenerateWorkload(spec BenchmarkSpec) (*Workload, error) { return workload.Generate(spec) }

// ExperimentSession caches programs and runs across experiments.
type ExperimentSession = experiments.Session

// ExperimentResult is one regenerated table or figure.
type ExperimentResult = experiments.Result

// NewExperimentSession returns a full-scale experiment session.
func NewExperimentSession() *ExperimentSession { return experiments.NewSession() }

// RunExperiment regenerates one paper artifact by ID ("table1", "fig1",
// "fig10".."fig16", "table3", "table4").
func RunExperiment(s *ExperimentSession, id string) (*ExperimentResult, error) {
	run, ok := experiments.Lookup(id)
	if !ok {
		return nil, &UnknownExperimentError{ID: id}
	}
	return run(s)
}

// ExperimentIDs lists the available experiment IDs in paper order.
func ExperimentIDs() []string {
	var ids []string
	for _, e := range experiments.Registry() {
		ids = append(ids, e.ID)
	}
	return ids
}

// UnknownExperimentError reports an unrecognized experiment ID.
type UnknownExperimentError struct{ ID string }

func (e *UnknownExperimentError) Error() string {
	return "mdabt: unknown experiment " + e.ID
}

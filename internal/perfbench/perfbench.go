// Package perfbench measures the simulator's hot paths layer by layer: raw
// simulated-memory access, guest decode+execute, the interpreter loop, the
// translated-code dispatch loop, and an end-to-end DBT run reported in guest
// MIPS. The same per-op closures back both the standard `go test -bench`
// entry points (perfbench_test.go) and Collect, which runs the whole suite
// programmatically for the repository benchmark's per-layer rows
// (dbtbench). The checked-in BENCH_2–4.json files are earlier summaries of
// this suite.
//
// The suite is a measurement harness, not a correctness harness: the
// chaos/co-simulation tests prove the fast paths change cost, never results.
package perfbench

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"mdabt/internal/core"
	"mdabt/internal/guest"
	"mdabt/internal/machine"
	"mdabt/internal/mem"
)

// Bench is one microbenchmark: Make builds the per-op closure (setup cost is
// excluded from timing); UnitsPerOp is how many units one op performs, under
// the name Unit ("access", "guest-inst", ...).
type Bench struct {
	Name       string
	Unit       string
	UnitsPerOp uint64
	Make       func() (op func(), err error)
}

// Result is one benchmark's measurement (JSON-shaped as in the
// BENCH_2–4.json summaries).
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Unit        string  `json:"unit,omitempty"`
	UnitsPerOp  uint64  `json:"units_per_op,omitempty"`
	NsPerUnit   float64 `json:"ns_per_unit,omitempty"`
	// GuestMIPS is millions of guest instructions simulated per wall-clock
	// second; only set for benchmarks whose unit is guest instructions.
	GuestMIPS float64 `json:"guest_mips,omitempty"`
}

// Summary is the whole suite's output plus environment stamps.
type Summary struct {
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	When      string   `json:"when"`
	Note      string   `json:"note,omitempty"`
	Results   []Result `json:"results"`
}

// Suite returns the layer-by-layer benchmarks, bottom of the stack first.
func Suite() []Bench {
	return []Bench{
		MemReadWrite(),
		GuestExec(),
		InterpreterLoop(),
		DispatchLoop(),
		DispatchLoopTraced(),
		EndToEnd(),
	}
}

// Collect runs the suite via testing.Benchmark and assembles the summary.
func Collect(note string) (*Summary, error) {
	s := &Summary{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		When:      time.Now().UTC().Format(time.RFC3339),
		Note:      note,
	}
	for _, bench := range Suite() {
		op, err := bench.Make()
		if err != nil {
			return nil, fmt.Errorf("perfbench: %s: %w", bench.Name, err)
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
		res := Result{
			Name:        bench.Name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			Unit:        bench.Unit,
			UnitsPerOp:  bench.UnitsPerOp,
		}
		if bench.UnitsPerOp > 0 {
			res.NsPerUnit = res.NsPerOp / float64(bench.UnitsPerOp)
			if bench.Unit == "guest-inst" && res.NsPerOp > 0 {
				res.GuestMIPS = float64(bench.UnitsPerOp) / res.NsPerOp * 1e3
			}
		}
		s.Results = append(s.Results, res)
	}
	return s, nil
}

// ---------------------------------------------------------------------------
// Layer 1: simulated memory.

// memAccessesPerOp is the number of read/write pairs one MemReadWrite op
// performs, spread over a working set larger than one page so the two-level
// page walk and last-page cache are both exercised.
const memAccessesPerOp = 1024

// MemReadWrite measures internal/mem's Read/Write fast paths: mixed-size
// aligned and misaligned accesses over a multi-page working set. Steady
// state must be allocation-free (TestSteadyStateAllocs enforces it).
func MemReadWrite() Bench {
	return Bench{
		Name:       "mem-read-write",
		Unit:       "access",
		UnitsPerOp: 2 * memAccessesPerOp,
		Make: func() (func(), error) {
			m := mem.New()
			const base = uint64(guest.DataBase)
			const setMask = 2*mem.PageSize - 1 // two-page working set
			// Touch the working set (plus the page the +8/crossing accesses
			// can spill into) once so steady state allocates nothing.
			for i := uint64(0); i <= setMask+16; i += mem.PageSize {
				m.Write8(base+i, 0)
			}
			var sink uint64
			op := func() {
				addr := base
				for i := 0; i < memAccessesPerOp/2; i++ {
					// An odd stride walks both pages and keeps about half
					// the accesses misaligned (some crossing pages).
					m.Write32(addr, uint32(i))
					sink += uint64(m.Read32(addr))
					m.Write64(addr+8, sink)
					sink += m.Read64(addr + 8)
					addr = base + (addr-base+1029)&setMask
				}
			}
			return op, nil
		},
	}
}

// ---------------------------------------------------------------------------
// Layer 2: guest decode + execute.

// guestKernel builds a small self-contained guest loop: iters iterations of
// an 8-instruction body doing aligned and misaligned loads/stores plus ALU
// work, then HALT. It returns the image and the entry PC.
func guestKernel(iters int32) ([]byte, uint32, error) {
	b := guest.NewBuilder()
	b.MovImm(guest.EAX, int32(guest.DataBase))
	b.MovImm(guest.ECX, iters)
	b.Label("loop")
	b.Load(guest.LD4, guest.EBX, guest.MemRef{Base: guest.EAX, Disp: 0})
	b.ALUImm(guest.ADDri, guest.EBX, 3)
	b.Load(guest.LD4, guest.EDX, guest.MemRef{Base: guest.EAX, Disp: 1}) // misaligned
	b.ALU(guest.XORrr, guest.EBX, guest.EDX)
	b.Store(guest.ST4, guest.MemRef{Base: guest.EAX, Disp: 8}, guest.EBX)
	b.Store(guest.ST2, guest.MemRef{Base: guest.EAX, Disp: 13}, guest.EDX) // misaligned
	b.ALUImm(guest.SUBri, guest.ECX, 1)
	b.Jcc(guest.NE, "loop")
	b.Halt()
	img, err := b.Build(guest.CodeBase)
	return img, guest.CodeBase, err
}

// guestKernelInsts counts the guest instructions one full run of
// guestKernel(iters) executes (2 prologue + 8 per iteration + HALT).
func guestKernelInsts(iters uint64) uint64 { return 2 + 8*iters + 1 }

// GuestExec measures the reference CPU's decode-once/execute-many path: the
// guest kernel is predecoded into a guest.Code table and runs through the
// guest executor one straight line per call, so the op cost is the
// census's inner loop with its per-site profiling but without decode-cache
// probes.
func GuestExec() Bench {
	const iters = 256
	return Bench{
		Name:       "guest-exec",
		Unit:       "guest-inst",
		UnitsPerOp: guestKernelInsts(iters),
		Make: func() (func(), error) {
			img, entry, err := guestKernel(iters)
			if err != nil {
				return nil, err
			}
			m := mem.New()
			m.WriteBytes(uint64(entry), img)
			cpu := &guest.CPU{}
			// Predecode the whole image once.
			code := guest.Code[struct{}]{Dense: make([]guest.Slot[struct{}], len(img))}
			for off := 0; off < len(img); {
				inst, n, derr := guest.Decode(img[off:])
				if derr != nil {
					return nil, derr
				}
				code.Dense[off].Fill(inst, n)
				off += n
			}
			op := func() {
				cpu.Reset(entry)
				for !cpu.Halted {
					if _, err := code.Run(cpu, m, &code.Dense[cpu.EIP-entry], 1<<62); err != nil {
						panic(err)
					}
				}
			}
			return op, nil
		},
	}
}

// ---------------------------------------------------------------------------
// Layer 3: the interpreter loop (engine phase 1).

// InterpreterLoop measures the engine's interpreted path: heat threshold set
// above any reachable count, so every block execution goes through
// interpretBlock with full MDA profiling and cycle accounting.
func InterpreterLoop() Bench {
	const iters = 256
	return Bench{
		Name:       "interp-block",
		Unit:       "guest-inst",
		UnitsPerOp: guestKernelInsts(iters),
		Make: func() (func(), error) {
			img, entry, err := guestKernel(iters)
			if err != nil {
				return nil, err
			}
			m := mem.New()
			m.WriteBytes(uint64(entry), img)
			mach := machine.New(m, machine.DefaultParams())
			opt := core.DefaultOptions(core.DynamicProfile)
			opt.HeatThreshold = 1 << 62 // never translate: pure interpretation
			eng := core.NewEngine(m, mach, opt)
			op := func() {
				if err := eng.Run(entry, 1<<62); err != nil {
					panic(err)
				}
			}
			return op, nil
		},
	}
}

// ---------------------------------------------------------------------------
// Layer 4: the dispatch loop over translated code.

// DispatchLoop measures steady-state translated execution: the guest kernel
// is fully translated during a warm-up run, then each op re-enters Run and
// executes native blocks in the machine's trace executor, its only dispatch
// loop: every translated block runs as a step-list trace chained through
// the patched exits, so an op has no per-instruction fetch/decode and no
// dispatcher round trips beyond the kernel's own BRKBT exits. Steady state
// must be allocation-free (TestSteadyStateAllocs enforces it).
func DispatchLoop() Bench {
	const iters = 256
	return Bench{
		Name:       "dispatch-loop",
		Unit:       "guest-inst",
		UnitsPerOp: guestKernelInsts(iters),
		Make: func() (func(), error) {
			img, entry, err := guestKernel(iters)
			if err != nil {
				return nil, err
			}
			m := mem.New()
			m.WriteBytes(uint64(entry), img)
			mach := machine.New(m, machine.DefaultParams())
			// Direct translation: no profiling phase, no trap patching, so
			// after warm-up every op is dispatch + native execution only.
			eng := core.NewEngine(m, mach, core.DefaultOptions(core.Direct))
			if err := eng.Run(entry, 1<<62); err != nil { // warm-up: translate + trace everything
				return nil, err
			}
			op := func() {
				if err := eng.Run(entry, 1<<62); err != nil {
					panic(err)
				}
			}
			return op, nil
		},
	}
}

// DispatchLoopTraced is DispatchLoop under its earlier name for the traced
// configuration. Since the trace executor became the machine's only
// dispatch loop the two rows measure the same run; both stay because the
// repository benchmark's ledger maps each name to its own metric.
func DispatchLoopTraced() Bench {
	b := DispatchLoop()
	b.Name = "dispatch-loop-traced"
	return b
}

// ---------------------------------------------------------------------------
// Layer 5: end-to-end DBT throughput.

// EndToEnd measures a full DPEH run — interpret, heat, translate, trap,
// patch — on a fresh engine each op, reported in guest MIPS. This is the
// number the experiment suite's wall clock is made of.
func EndToEnd() Bench {
	const iters = 4096
	return Bench{
		Name:       "end-to-end-dpeh",
		Unit:       "guest-inst",
		UnitsPerOp: guestKernelInsts(iters),
		Make: func() (func(), error) {
			img, entry, err := guestKernel(iters)
			if err != nil {
				return nil, err
			}
			op := func() {
				m := mem.New()
				m.WriteBytes(uint64(entry), img)
				mach := machine.New(m, machine.DefaultParams())
				eng := core.NewEngine(m, mach, core.DefaultOptions(core.DPEH))
				if err := eng.Run(entry, 1<<62); err != nil {
					panic(err)
				}
			}
			return op, nil
		},
	}
}

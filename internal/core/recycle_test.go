package core

import (
	"runtime"
	"testing"

	"mdabt/internal/machine"
	"mdabt/internal/mem"
	"mdabt/internal/workload"
)

// recycledRequest returns a closure that serves one request the way
// serve.Server does on a warm worker: Reset the engine, load a fault
// program (which arms page protections, and whose run arms the code
// watch), and run it.
func recycledRequest(tb testing.TB) func() {
	tb.Helper()
	p, err := workload.GenerateStraddle(workload.StraddleOK)
	if err != nil {
		tb.Fatal(err)
	}
	opt := DefaultOptions(DPEH)
	m := mem.New()
	e := NewEngine(m, machine.New(m, machine.DefaultParams()), opt)
	return func() {
		e.Reset(opt)
		p.Load(m)
		if err := e.Run(p.Entry(), 50_000_000); err != nil {
			tb.Fatal(err)
		}
	}
}

// recycledRequestBudget bounds the bytes one recycled request may
// allocate. The engine's own per-run tables (block maps, translation
// records, profiles) are rebuilt each run; the trap table, the trace
// tables and trace steps must not be. Allocating a trap table for the
// whole protectable range costs 512 KiB alone. A request measured 2,770
// bytes in 47 allocations (Go 1.24, linux/amd64), with every unit and
// exception-handler stub emitted through the engine's one reused
// assembler and every patch rewriting its trace step in place; the budget
// leaves under 25% headroom, so a translate-path regression of a few
// allocations per unit fails it.
const recycledRequestBudget = 3_450

// TestRecycledRequestAllocs guards Engine.Reset's reuse of what the engine
// owns: after one warm-up request, every further request on the same
// engine must stay under recycledRequestBudget bytes allocated.
func TestRecycledRequestAllocs(t *testing.T) {
	serve := recycledRequest(t)
	serve() // warm-up: sizes the trap table, trace tables and step arena
	const n = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		serve()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > recycledRequestBudget {
		t.Fatalf("recycled request allocated %d bytes, budget %d", per, recycledRequestBudget)
	} else {
		t.Logf("recycled request allocated %d bytes (budget %d)", per, recycledRequestBudget)
	}
}

func BenchmarkRecycledRequest(b *testing.B) {
	serve := recycledRequest(b)
	serve()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}

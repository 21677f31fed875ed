package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"mdabt/internal/guest"
	"mdabt/internal/host"
	"mdabt/internal/machine"
	"mdabt/internal/mem"
)

// newTestEngine builds an engine over a fresh system with the program and
// pattern data loaded.
func newTestEngine(t *testing.T, img []byte, opt Options) *Engine {
	t.Helper()
	m := mem.New()
	m.WriteBytes(guest.CodeBase, img)
	m.WriteBytes(guest.DataBase, patternData(256))
	mach := machine.New(m, machine.DefaultParams())
	return NewEngine(m, mach, opt)
}

// TestImpossibleOpcodeIsError feeds the engine undecodable guest bytes:
// the run must fail with a Permanent classified error naming the bad
// block, never crash. Both the interpreter path (low threshold mechanisms
// heat blocks first) and the direct-translate path are covered.
func TestImpossibleOpcodeIsError(t *testing.T) {
	// 0xFF is not a defined guest opcode.
	img := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	for _, opt := range []Options{
		DefaultOptions(Direct),            // translates immediately
		DefaultOptions(ExceptionHandling), // translates immediately
		DefaultOptions(DPEH),              // interprets while cold
	} {
		e := newTestEngine(t, img, opt)
		err := e.Run(guest.CodeBase, 1<<24)
		if err == nil {
			t.Fatalf("%v: impossible opcode executed successfully", opt.Mechanism)
		}
		if got := Classify(err); got != Permanent {
			t.Errorf("%v: class = %v, want Permanent (%v)", opt.Mechanism, got, err)
		}
		var ce *ClassifiedError
		if !errors.As(err, &ce) {
			t.Fatalf("%v: error %v carries no ClassifiedError", opt.Mechanism, err)
		}
		if ce.BlockPC != guest.CodeBase {
			t.Errorf("%v: BlockPC = %#x, want %#x", opt.Mechanism, ce.BlockPC, uint32(guest.CodeBase))
		}
	}
}

// TestRecoveredPanicIsInternal poisons the engine so the dispatch loop
// panics (a stand-in for any impossible internal state, e.g. the bad-kind
// panics in mdaseq.go), and checks the Run boundary converts the panic
// into an Internal classified error with block context instead of
// crashing the process.
func TestRecoveredPanicIsInternal(t *testing.T) {
	e := newTestEngine(t, mdaLoopImg(t, 50), DefaultOptions(ExceptionHandling))
	e.cc = nil // the first translation now nil-panics
	err := e.Run(guest.CodeBase, 1<<24)
	if err == nil {
		t.Fatal("poisoned engine ran to completion")
	}
	if !IsInternal(err) {
		t.Fatalf("recovered panic classified %v, want Internal (%v)", Classify(err), err)
	}
	var ce *ClassifiedError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v carries no ClassifiedError", err)
	}
	if ce.BlockPC != guest.CodeBase {
		t.Errorf("BlockPC = %#x, want entry block %#x", ce.BlockPC, uint32(guest.CodeBase))
	}
	if !strings.Contains(err.Error(), "recovered panic") {
		t.Errorf("error text %q does not mention the recovered panic", err)
	}
}

// TestMDASeqBadKindPanics pins the invariant panics of the MDA sequence
// emitters themselves: an out-of-range kind must panic (so the Run
// boundary can classify it) rather than silently emit wrong code.
func TestMDASeqBadKindPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("emitPlain(bad kind) did not panic")
		}
		if !strings.Contains(r.(string), "bad kind") {
			t.Fatalf("panic %v, want bad-kind message", r)
		}
	}()
	emitPlain(host.NewAsm(0x1000), memKind(255), host.R1, host.R2, 0)
}

// TestRunContextDeadline checks cooperative cancellation: a deadline
// expiring mid-run aborts within one budget slice and surfaces as a
// Permanent error satisfying errors.Is(err, context.DeadlineExceeded).
func TestRunContextDeadline(t *testing.T) {
	opt := DefaultOptions(ExceptionHandling)
	opt.SliceInsts = 4096 // small slices keep the abort latency tight
	e := newTestEngine(t, mdaLoopImg(t, 1<<30), opt)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := e.RunContext(ctx, guest.CodeBase, 1<<62)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if Classify(err) != Permanent {
		t.Errorf("class = %v, want Permanent", Classify(err))
	}
	// Generous wall-clock bound: one 4096-inst slice simulates in well
	// under a second even on a slow CI machine.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
	// The machine stopped on a slice boundary: host instructions retired
	// since the deadline are bounded by one slice.
	if insts := e.Mach.Counters().Insts; insts == 0 {
		t.Error("no progress before the deadline")
	}
}

// TestRunContextPreCancelled: an already-cancelled context runs nothing.
func TestRunContextPreCancelled(t *testing.T) {
	e := newTestEngine(t, mdaLoopImg(t, 10), DefaultOptions(Direct))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := e.RunContext(ctx, guest.CodeBase, 1<<24)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if n := e.Stats().NativeBlockRuns; n != 0 {
		t.Errorf("pre-cancelled run dispatched %d blocks", n)
	}
}

// TestSlicingInvisible runs the same program with pathologically small
// slices and with the default slice and requires bit-identical counters
// and statistics: budget slicing must not be observable in results.
func TestSlicingInvisible(t *testing.T) {
	img := multiBlockLoopImg(t, 800)
	for _, mech := range []Mechanism{Direct, ExceptionHandling, DPEH} {
		base := DefaultOptions(mech)
		eRef := newTestEngine(t, img, base)
		if err := eRef.Run(guest.CodeBase, 500_000_000); err != nil {
			t.Fatalf("%v: %v", mech, err)
		}
		sliced := base
		sliced.SliceInsts = 257 // prime, guaranteed to split blocks mid-flight
		eSliced := newTestEngine(t, img, sliced)
		if err := eSliced.Run(guest.CodeBase, 500_000_000); err != nil {
			t.Fatalf("%v sliced: %v", mech, err)
		}
		if ref, got := equivalenceFingerprint(eRef), equivalenceFingerprint(eSliced); ref != got {
			t.Errorf("%v: slicing changed results\n  default %s\n  sliced  %s", mech, ref, got)
		}
	}
}

// TestEngineUsableAfterError: an engine that failed (deadline) is fully
// recyclable via Reset — the serving layer's reuse-after-failure path.
func TestEngineUsableAfterError(t *testing.T) {
	opt := DefaultOptions(ExceptionHandling)
	opt.SliceInsts = 1024
	e := newTestEngine(t, mdaLoopImg(t, 1<<30), opt)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	err := e.RunContext(ctx, guest.CodeBase, 1<<62)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("setup: err = %v, want DeadlineExceeded", err)
	}

	// Recycle onto a small, well-behaved program and compare to fresh.
	img := mdaLoopImg(t, 100)
	e.Reset(DefaultOptions(ExceptionHandling))
	e.LoadImage(guest.CodeBase, img)
	e.Mem.WriteBytes(guest.DataBase, patternData(256))
	if err := e.Run(guest.CodeBase, 1<<26); err != nil {
		t.Fatalf("recycled run: %v", err)
	}
	fresh := newTestEngine(t, img, DefaultOptions(ExceptionHandling))
	if err := fresh.Run(guest.CodeBase, 1<<26); err != nil {
		t.Fatalf("fresh run: %v", err)
	}
	if a, b := equivalenceFingerprint(e), equivalenceFingerprint(fresh); a != b {
		t.Errorf("recycled-after-error engine diverged\n  recycled %s\n  fresh    %s", a, b)
	}
}

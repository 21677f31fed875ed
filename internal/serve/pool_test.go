package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mdabt/internal/core"
)

func transientErr(msg string) error {
	return core.WithClass(core.Transient, errors.New(msg))
}

// TestPoolRunsTasks: the basic happy path, many tasks across workers.
func TestPoolRunsTasks(t *testing.T) {
	p := NewPool(Options{Workers: 4, Queue: 64})
	defer p.Close()
	var ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := p.Do(context.Background(), "", func(ctx context.Context, w *Worker) error {
				ran.Add(1)
				return nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
		}()
	}
	wg.Wait()
	if ran.Load() != 32 {
		t.Fatalf("ran %d tasks, want 32", ran.Load())
	}
	h := p.Health()
	if h.Completed != 32 || h.Failed != 0 {
		t.Errorf("health = %+v, want 32 completed", h)
	}
}

// TestPoolShedsWhenFull: with workers wedged and the queue full, Do sheds
// immediately with ErrOverloaded instead of blocking.
func TestPoolShedsWhenFull(t *testing.T) {
	p := NewPool(Options{Workers: 1, Queue: 1})
	defer p.Close()
	release := make(chan struct{})
	started := make(chan struct{})
	go p.Do(context.Background(), "", func(ctx context.Context, w *Worker) error {
		close(started)
		<-release
		return nil
	})
	<-started
	// Fill the single queue slot (it will wait behind the wedged worker).
	go p.Do(context.Background(), "", func(ctx context.Context, w *Worker) error { return nil })
	// Give the queued job a moment to occupy the slot.
	deadline := time.Now().Add(2 * time.Second)
	for len(p.jobs) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	err := p.Do(context.Background(), "", func(ctx context.Context, w *Worker) error { return nil })
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if !core.IsTransient(err) {
		t.Error("ErrOverloaded is not Transient")
	}
	close(release)
	if h := p.Health(); h.Shed == 0 {
		t.Errorf("health.Shed = 0 after shedding")
	}
}

// TestPoolRetriesTransient: transient failures retry on the same worker
// with attempt numbers ticking up; permanent failures do not retry.
func TestPoolRetriesTransient(t *testing.T) {
	p := NewPool(Options{Workers: 2, Retries: 3, RetryBase: time.Microsecond})
	defer p.Close()

	var attempts []int
	var workers []int
	err := p.Do(context.Background(), "", func(ctx context.Context, w *Worker) error {
		attempts = append(attempts, w.Attempt)
		workers = append(workers, w.ID)
		if len(attempts) < 3 {
			return transientErr("flaky")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do after retries: %v", err)
	}
	if len(attempts) != 3 || attempts[2] != 3 {
		t.Fatalf("attempts = %v, want [1 2 3]", attempts)
	}
	for _, w := range workers {
		if w != workers[0] {
			t.Fatalf("retries hopped workers: %v", workers)
		}
	}

	calls := 0
	err = p.Do(context.Background(), "", func(ctx context.Context, w *Worker) error {
		calls++
		return core.WithClass(core.Permanent, errors.New("bad program"))
	})
	if err == nil || calls != 1 {
		t.Fatalf("permanent error: calls=%d err=%v, want 1 call", calls, err)
	}

	calls = 0
	err = p.Do(context.Background(), "", func(ctx context.Context, w *Worker) error {
		calls++
		return transientErr("always")
	})
	if err == nil || calls != 4 {
		t.Fatalf("exhausted retries: calls=%d err=%v, want 4 calls (1+3 retries)", calls, err)
	}
	if !core.IsTransient(err) {
		t.Error("exhausted-retry error lost its Transient class")
	}
}

// TestPoolPanicIsolation: a panicking task yields an Internal error; the
// worker survives and keeps serving.
func TestPoolPanicIsolation(t *testing.T) {
	p := NewPool(Options{Workers: 1, Retries: 0})
	defer p.Close()
	err := p.Do(context.Background(), "", func(ctx context.Context, w *Worker) error {
		panic("boom")
	})
	if err == nil || !core.IsInternal(err) {
		t.Fatalf("panic surfaced as %v, want Internal error", err)
	}
	// Same (only) worker must still serve.
	err = p.Do(context.Background(), "", func(ctx context.Context, w *Worker) error { return nil })
	if err != nil {
		t.Fatalf("worker dead after panic: %v", err)
	}
	if h := p.Health(); h.Panics != 1 {
		t.Errorf("health.Panics = %d, want 1", h.Panics)
	}
}

// TestBreakerTripAndRecover: repeated failures for one key trip its
// circuit; other keys are unaffected; after the cooldown a half-open
// probe recloses the circuit on success.
func TestBreakerTripAndRecover(t *testing.T) {
	p := NewPool(Options{
		Workers: 1, Retries: -1,
		BreakerThreshold: 3, BreakerCooldown: 30 * time.Millisecond,
	})
	defer p.Close()
	fail := func(ctx context.Context, w *Worker) error {
		return core.WithClass(core.Permanent, errors.New("doomed"))
	}
	ok := func(ctx context.Context, w *Worker) error { return nil }

	for i := 0; i < 3; i++ {
		if err := p.Do(context.Background(), "prog-a", fail); err == nil {
			t.Fatal("failing task succeeded")
		}
	}
	if err := p.Do(context.Background(), "prog-a", ok); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("after trip: err = %v, want ErrCircuitOpen", err)
	}
	if err := p.Do(context.Background(), "prog-b", ok); err != nil {
		t.Fatalf("other key affected by prog-a's breaker: %v", err)
	}
	h := p.Health()
	if len(h.OpenCircuits) != 1 || h.OpenCircuits[0] != "prog-a" {
		t.Errorf("OpenCircuits = %v, want [prog-a]", h.OpenCircuits)
	}

	time.Sleep(35 * time.Millisecond)
	// Half-open: the probe is admitted and its success recloses the circuit.
	if err := p.Do(context.Background(), "prog-a", ok); err != nil {
		t.Fatalf("half-open probe rejected: %v", err)
	}
	if err := p.Do(context.Background(), "prog-a", ok); err != nil {
		t.Fatalf("circuit did not reclose: %v", err)
	}
}

// TestBreakerReopensOnFailedProbe: a failed half-open probe re-opens the
// circuit for another full cooldown.
func TestBreakerReopensOnFailedProbe(t *testing.T) {
	b := newBreaker(2, 50*time.Millisecond)
	t0 := time.Now()
	b.record(errors.New("x"), t0)
	b.record(errors.New("x"), t0)
	if b.allow(t0.Add(10 * time.Millisecond)) {
		t.Fatal("open circuit admitted a request inside the cooldown")
	}
	if !b.allow(t0.Add(60 * time.Millisecond)) {
		t.Fatal("half-open probe not admitted after cooldown")
	}
	// Concurrent second request while the probe is in flight is rejected.
	if b.allow(t0.Add(61 * time.Millisecond)) {
		t.Fatal("two concurrent half-open probes admitted")
	}
	b.record(errors.New("probe failed"), t0.Add(62*time.Millisecond))
	if b.allow(t0.Add(70 * time.Millisecond)) {
		t.Fatal("circuit closed after failed probe")
	}
	if !b.allow(t0.Add(115 * time.Millisecond)) {
		t.Fatal("second probe not admitted after re-cooldown")
	}
	b.record(nil, t0.Add(116*time.Millisecond))
	if !b.allow(t0.Add(117 * time.Millisecond)) {
		t.Fatal("circuit not closed after successful probe")
	}
}

// TestBreakerIgnoresContextErrors: caller cancellation is not evidence
// against the key.
func TestBreakerIgnoresContextErrors(t *testing.T) {
	b := newBreaker(1, time.Hour)
	now := time.Now()
	b.record(fmt.Errorf("wrapped: %w", context.DeadlineExceeded), now)
	b.record(context.Canceled, now)
	if !b.allow(now) {
		t.Fatal("context errors tripped the breaker")
	}
}

// TestPoolDrain: drain rejects new work, waits for queued and running
// jobs, and leaves completed counts intact.
func TestPoolDrain(t *testing.T) {
	p := NewPool(Options{Workers: 2, Queue: 8})
	release := make(chan struct{})
	var done atomic.Int64
	results := make(chan error, 6)
	for i := 0; i < 6; i++ {
		go func() {
			results <- p.Do(context.Background(), "", func(ctx context.Context, w *Worker) error {
				<-release
				done.Add(1)
				return nil
			})
		}()
	}
	// Wait until both workers are wedged and the rest are queued.
	deadline := time.Now().Add(2 * time.Second)
	for p.Health().InFlight < 6 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	drained := make(chan error, 1)
	go func() { drained <- p.Drain(context.Background()) }()
	time.Sleep(5 * time.Millisecond) // let Drain set the gate

	if err := p.Do(context.Background(), "", func(ctx context.Context, w *Worker) error { return nil }); !errors.Is(err, ErrDraining) {
		t.Fatalf("Do during drain: %v, want ErrDraining", err)
	}
	select {
	case <-drained:
		t.Fatal("Drain returned with jobs still wedged")
	default:
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if done.Load() != 6 {
		t.Fatalf("drain lost work: %d/6 jobs ran", done.Load())
	}
	for i := 0; i < 6; i++ {
		if err := <-results; err != nil {
			t.Errorf("admitted job failed during drain: %v", err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close after Drain: %v", err)
	}
}

// TestPoolDrainDeadline: a drain bounded by context gives up when jobs
// don't finish in time.
func TestPoolDrainDeadline(t *testing.T) {
	p := NewPool(Options{Workers: 1})
	release := make(chan struct{})
	go p.Do(context.Background(), "", func(ctx context.Context, w *Worker) error {
		<-release
		return nil
	})
	deadline := time.Now().Add(2 * time.Second)
	for p.Health().InFlight == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := p.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v, want DeadlineExceeded", err)
	}
	close(release)
	p.Close()
}

// TestEachOrderedErrors: Each runs every item even past failures and
// reports the first error in index order, mirroring the experiment
// session's contract.
func TestEachOrderedErrors(t *testing.T) {
	p := NewPool(Options{Workers: 3, Queue: 2, Retries: -1})
	defer p.Close()
	var ran atomic.Int64
	err := p.Each(context.Background(), 20, nil, func(ctx context.Context, i int, w *Worker) error {
		ran.Add(1)
		if i == 7 || i == 13 {
			return fmt.Errorf("item %d failed", i)
		}
		return nil
	})
	if err == nil || err.Error() != "item 7 failed" {
		t.Fatalf("err = %v, want first error in order (item 7)", err)
	}
	if ran.Load() != 20 {
		t.Fatalf("Each ran %d/20 items (queue smaller than batch must still admit all)", ran.Load())
	}
}

// TestDoRespectsContext: a task that honours ctx is cancelled and the
// error keeps errors.Is(err, context.DeadlineExceeded) through the
// classification wrapper.
func TestDoRespectsContext(t *testing.T) {
	p := NewPool(Options{Workers: 1, Retries: -1})
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	err := p.Do(ctx, "", func(ctx context.Context, w *Worker) error {
		<-ctx.Done()
		return core.WithClass(core.Permanent, ctx.Err())
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// TestPoolInstantTasksKeepWaitGroupBalanced: a worker that finishes a job
// before its submitter runs again must not drive the pool's job count
// negative (which panics with "sync: negative WaitGroup counter"). Instant
// tasks on a one-worker pool make that interleaving common; shed
// submissions must give their reservation back, so the pool ends idle and
// drains.
func TestPoolInstantTasksKeepWaitGroupBalanced(t *testing.T) {
	p := NewPool(Options{Workers: 1, Queue: 1, Retries: -1})
	const submitters, rounds = 3, 2000
	var ran, shed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				err := p.Do(context.Background(), "", func(ctx context.Context, w *Worker) error {
					ran.Add(1)
					return nil
				})
				switch {
				case errors.Is(err, ErrOverloaded):
					shed.Add(1)
				case err != nil:
					t.Errorf("Do: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := ran.Load() + shed.Load(); got != submitters*rounds {
		t.Fatalf("ran %d + shed %d = %d submissions, want %d", ran.Load(), shed.Load(), got, submitters*rounds)
	}
	if h := p.Health(); h.InFlight != 0 {
		t.Fatalf("InFlight = %d after every Do returned, want 0", h.InFlight)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := p.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

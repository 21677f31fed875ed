// Package serve is the resilient multi-session serving layer: it runs many
// guest programs concurrently over a small pool of reusable DBT engines.
//
// The package splits into two layers. Pool is the generic machinery — a
// fixed set of worker goroutines behind a bounded admission queue, with
// load shedding, per-request deadlines, retry with exponential backoff on
// transient errors, a per-key circuit breaker, panic isolation, and
// graceful drain. Server sits on top and owns the DBT specifics: each
// worker lazily builds one engine (memory + machine + translator) and
// reuses it across requests via Engine.Reset, so steady-state serving
// allocates no fresh address spaces.
//
// Error handling follows the core taxonomy (core.ErrClass): Transient
// failures are retried on the same worker with jittered backoff; Permanent
// and Internal failures are returned immediately; repeated failures for
// one request key trip that key's circuit breaker, shedding further work
// for the key until a cooldown passes.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"mdabt/internal/core"
	"mdabt/internal/faultinject"
)

// Sentinel errors of the serving layer. All three are classified (see
// core.Classify): shedding and breaker rejections are Transient — the
// request was never attempted and a later retry may succeed — while
// draining is Permanent for this pool instance.
var (
	// ErrOverloaded reports that the admission queue was full (load shed).
	ErrOverloaded error = core.WithClass(core.Transient, errors.New("serve: overloaded"))
	// ErrDraining reports that the pool no longer accepts work.
	ErrDraining error = core.WithClass(core.Permanent, errors.New("serve: draining"))
	// ErrCircuitOpen reports that the request key's circuit breaker is open.
	ErrCircuitOpen error = core.WithClass(core.Transient, errors.New("serve: circuit open"))
)

// Task is one unit of pooled work. It runs on a worker goroutine and may
// use the worker's per-worker state (engines, scratch buffers). A Task
// must honour ctx: the pool relies on cooperative cancellation to keep
// deadlines responsive. Tasks that may be retried must be idempotent.
type Task func(ctx context.Context, w *Worker) error

// Worker is the per-goroutine execution context handed to every Task.
type Worker struct {
	// ID is the worker index in [0, Options.Workers).
	ID int
	// Chaos is this worker's independent fork of Options.Chaos (nil when
	// chaos is disabled). Deterministic per (seed, ID).
	Chaos *faultinject.Plan
	// Attempt is the 1-based attempt number of the task currently running
	// (retries rerun on the same worker, preserving engine affinity).
	Attempt int
	// State is scratch space owned by the task layer; the Server stores
	// each worker's lazily-built engine bundle here.
	State any

	rng *rand.Rand // backoff jitter stream, deterministic per (seed, ID)
}

// Options configures a Pool. The zero value selects sensible defaults.
type Options struct {
	// Workers is the number of worker goroutines (default: GOMAXPROCS).
	Workers int
	// Queue bounds the admission queue (default: 2×Workers). A full queue
	// sheds new requests with ErrOverloaded.
	Queue int
	// Retries is the number of re-attempts after a Transient failure
	// (default 2; negative disables retry).
	Retries int
	// RetryBase is the first backoff delay; it doubles per attempt up to
	// RetryCap, with up to 50% deterministic jitter (defaults 1ms / 50ms).
	RetryBase, RetryCap time.Duration
	// BreakerThreshold trips a key's circuit after this many consecutive
	// failures (default 5; negative disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped circuit stays open before a
	// half-open probe is admitted (default 250ms).
	BreakerCooldown time.Duration
	// Chaos, when non-nil, arms fault injection: worker i consults
	// Chaos.Fork(i), so the schedule is deterministic per worker and the
	// parent plan is never shared across goroutines.
	Chaos *faultinject.Plan
	// Seed seeds the per-worker backoff jitter streams (default 1).
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Queue <= 0 {
		o.Queue = 2 * o.Workers
	}
	if o.Retries == 0 {
		o.Retries = 2
	} else if o.Retries < 0 {
		o.Retries = 0
	}
	if o.RetryBase <= 0 {
		o.RetryBase = time.Millisecond
	}
	if o.RetryCap <= 0 {
		o.RetryCap = 50 * time.Millisecond
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 250 * time.Millisecond
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Health is a point-in-time snapshot of pool activity.
type Health struct {
	Workers   int // worker goroutines
	QueueLen  int // requests waiting for a worker
	QueueCap  int // admission queue bound
	InFlight  int // requests admitted but not yet completed
	Draining  bool
	Submitted uint64 // requests admitted
	Completed uint64 // requests finished without error
	Failed    uint64 // requests finished with an error
	Shed      uint64 // requests rejected with ErrOverloaded
	Rejected  uint64 // requests rejected by an open circuit breaker
	Retries   uint64 // transient re-attempts performed
	Panics    uint64 // worker panics recovered into Internal errors
	// OpenCircuits lists keys whose breaker is currently open.
	OpenCircuits []string
}

type job struct {
	ctx  context.Context
	key  string
	task Task
	done chan error
}

// Pool runs Tasks on a fixed set of workers behind a bounded queue.
type Pool struct {
	opt  Options
	jobs chan *job

	mu       sync.RWMutex // admission gate: guards draining/closed vs enqueue
	draining bool
	closed   bool

	jobWG    sync.WaitGroup // in-flight jobs (admitted, not yet done)
	workerWG sync.WaitGroup // worker goroutines

	breakers sync.Map // key → *breaker

	inFlight  atomic.Int64
	submitted atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64
	shed      atomic.Uint64
	rejected  atomic.Uint64
	retries   atomic.Uint64
	panics    atomic.Uint64
}

// NewPool starts the worker goroutines and returns the pool.
func NewPool(opt Options) *Pool {
	opt = opt.withDefaults()
	p := &Pool{opt: opt, jobs: make(chan *job, opt.Queue)}
	p.workerWG.Add(opt.Workers)
	for i := 0; i < opt.Workers; i++ {
		w := &Worker{
			ID:    i,
			Chaos: opt.Chaos.Fork(i),
			rng:   rand.New(rand.NewSource(opt.Seed ^ int64(i+1)*-0x61c8864680b583eb)),
		}
		go p.worker(w)
	}
	return p
}

// Do submits a task and waits for its completion. key names the logical
// request class for circuit breaking ("" opts out). Do sheds immediately
// with ErrOverloaded when the queue is full, and rejects with ErrDraining
// after Drain or Close. The task's error (classified per core.ErrClass)
// is returned as-is; a worker panic surfaces as an Internal error.
func (p *Pool) Do(ctx context.Context, key string, task Task) error {
	return p.submit(ctx, key, task, false)
}

// DoWait is Do with a blocking admission: instead of shedding on a full
// queue it waits for a slot (or ctx). Batch drivers (Each) use it so a
// batch larger than the queue still admits every item.
func (p *Pool) DoWait(ctx context.Context, key string, task Task) error {
	return p.submit(ctx, key, task, true)
}

func (p *Pool) submit(ctx context.Context, key string, task Task, wait bool) error {
	if key != "" {
		if br := p.breakerFor(key); !br.allow(time.Now()) {
			p.rejected.Add(1)
			return ErrCircuitOpen
		}
	}
	j := &job{ctx: ctx, key: key, task: task, done: make(chan error, 1)}

	// Admission runs under the read lock so Drain's transition (write lock)
	// strictly orders against it: once draining is set, no new job can slip
	// into the queue, and every admitted job is already in jobWG.
	p.mu.RLock()
	if p.draining || p.closed {
		p.mu.RUnlock()
		return ErrDraining
	}
	// Reserve the job before the send: a worker may finish it and call
	// jobWG.Done before this goroutine runs again, so the Add must come
	// first. A job that is never sent gives its reservation back.
	p.jobWG.Add(1)
	p.inFlight.Add(1)
	if wait {
		// Blocking admission must not hold the lock across the channel
		// send; the reservation keeps Drain waiting for the job.
		p.mu.RUnlock()
		select {
		case p.jobs <- j:
		case <-ctx.Done():
			p.unreserve()
			return core.WithClass(core.Permanent, ctx.Err())
		}
	} else {
		select {
		case p.jobs <- j:
		default:
			p.unreserve()
			p.mu.RUnlock()
			p.shed.Add(1)
			return ErrOverloaded
		}
		p.mu.RUnlock()
	}
	p.submitted.Add(1)

	err := <-j.done
	if key != "" {
		p.breakerFor(key).record(err, time.Now())
	}
	if err != nil {
		p.failed.Add(1)
	} else {
		p.completed.Add(1)
	}
	return err
}

// unreserve gives back the reservation of a job that never reached a worker.
func (p *Pool) unreserve() {
	p.inFlight.Add(-1)
	p.jobWG.Done()
}

// Each runs fn for indices 0..n-1 on the pool and returns the first error
// in index order (all items run regardless). Admission blocks rather than
// sheds, so n may exceed the queue bound. key(i) names each item for
// circuit breaking; a nil key opts every item out.
func (p *Pool) Each(ctx context.Context, n int, key func(int) string, fn func(ctx context.Context, i int, w *Worker) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := ""
			if key != nil {
				k = key(i)
			}
			errs[i] = p.DoWait(ctx, k, func(ctx context.Context, w *Worker) error {
				return fn(ctx, i, w)
			})
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// worker is the per-goroutine service loop.
func (p *Pool) worker(w *Worker) {
	defer p.workerWG.Done()
	for j := range p.jobs {
		j.done <- p.runJob(w, j)
		p.inFlight.Add(-1)
		p.jobWG.Done()
	}
}

// runJob executes one job with panic isolation and transient-retry. All
// attempts run on the same worker so the task keeps its engine affinity.
func (p *Pool) runJob(w *Worker, j *job) error {
	for attempt := 1; ; attempt++ {
		if cerr := j.ctx.Err(); cerr != nil {
			return core.WithClass(core.Permanent, cerr)
		}
		w.Attempt = attempt
		err := p.runOnce(w, j)
		if err == nil {
			return nil
		}
		// Retry only transient failures, within budget, and never once the
		// request's own context is done (the caller has moved on).
		if attempt > p.opt.Retries || !core.IsTransient(err) || j.ctx.Err() != nil {
			return err
		}
		p.retries.Add(1)
		if !p.backoff(w, j.ctx, attempt) {
			return core.WithClass(core.Permanent, j.ctx.Err())
		}
	}
}

// runOnce runs the task once, converting a panic into an Internal error.
func (p *Pool) runOnce(w *Worker, j *job) (err error) {
	defer func() {
		if r := recover(); r != nil {
			p.panics.Add(1)
			err = core.WithClass(core.Internal,
				fmt.Errorf("serve: worker %d panic: %v\n%s", w.ID, r, debug.Stack()))
		}
	}()
	return j.task(j.ctx, w)
}

// backoff sleeps the exponential-with-jitter delay for attempt; it returns
// false if ctx expired first.
func (p *Pool) backoff(w *Worker, ctx context.Context, attempt int) bool {
	d := p.opt.RetryBase << uint(attempt-1)
	if d > p.opt.RetryCap || d <= 0 {
		d = p.opt.RetryCap
	}
	// Up to +50% jitter, from the worker's deterministic stream, so retry
	// herds decorrelate without losing replayability.
	d += time.Duration(w.rng.Int63n(int64(d)/2 + 1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

func (p *Pool) breakerFor(key string) *breaker {
	if br, ok := p.breakers.Load(key); ok {
		return br.(*breaker)
	}
	br, _ := p.breakers.LoadOrStore(key, newBreaker(p.opt.BreakerThreshold, p.opt.BreakerCooldown))
	return br.(*breaker)
}

// Health returns a snapshot of pool activity.
func (p *Pool) Health() Health {
	p.mu.RLock()
	draining := p.draining || p.closed
	p.mu.RUnlock()
	h := Health{
		Workers:   p.opt.Workers,
		QueueLen:  len(p.jobs),
		QueueCap:  p.opt.Queue,
		InFlight:  int(p.inFlight.Load()),
		Draining:  draining,
		Submitted: p.submitted.Load(),
		Completed: p.completed.Load(),
		Failed:    p.failed.Load(),
		Shed:      p.shed.Load(),
		Rejected:  p.rejected.Load(),
		Retries:   p.retries.Load(),
		Panics:    p.panics.Load(),
	}
	p.breakers.Range(func(k, v any) bool {
		if v.(*breaker).isOpen(time.Now()) {
			h.OpenCircuits = append(h.OpenCircuits, k.(string))
		}
		return true
	})
	return h
}

// Drain stops admitting work and waits until every already-admitted
// request (queued or running) has completed, or until ctx expires. The
// workers stay alive; Close ends them. Drain is idempotent.
func (p *Pool) Drain(ctx context.Context) error {
	p.mu.Lock()
	p.draining = true
	p.mu.Unlock()
	done := make(chan struct{})
	go func() {
		p.jobWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %w", ctx.Err())
	}
}

// Close drains the pool (unbounded wait) and stops the workers. It is
// idempotent and safe after Drain.
func (p *Pool) Close() error {
	if err := p.Drain(context.Background()); err != nil {
		return err
	}
	p.mu.Lock()
	already := p.closed
	p.closed = true
	p.mu.Unlock()
	if !already {
		close(p.jobs)
	}
	p.workerWG.Wait()
	return nil
}

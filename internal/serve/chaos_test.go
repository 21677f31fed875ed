package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mdabt/internal/core"
	"mdabt/internal/faultinject"
	"mdabt/internal/guest"
	"mdabt/internal/guestasm"
	"mdabt/internal/machine"
	"mdabt/internal/mem"
	"mdabt/internal/workload"
)

// chaosSeed pins the whole suite: the same fault schedules replay on
// every run (and in CI's serve-chaos job).
const chaosSeed = 20260806

// chaosProgram is one guest program of the chaos mix.
type chaosProgram struct {
	name string
	load func(m *mem.Memory) uint32
	opt  core.Options
}

func asmProgram(t *testing.T, src string) func(m *mem.Memory) uint32 {
	t.Helper()
	img, err := guestasm.Assemble(src, guest.CodeBase)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 512)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	return func(m *mem.Memory) uint32 {
		m.WriteBytes(guest.CodeBase, img)
		m.WriteBytes(guest.DataBase, data)
		return guest.CodeBase
	}
}

const mdaLoopSrc = `
        mov     ebx, 0x10000000
        mov     ecx, 0
        mov     eax, 0
loop:   mov     edx, dword [ebx+2]
        add     eax, edx
        movzx   esi, word [ebx+7]
        add     eax, esi
        add     ecx, 1
        cmp     ecx, 400
        jl      loop
        halt
`

const mixedSrc = `
        mov     ebx, 0x10000000
        mov     ecx, 0
        mov     eax, 0
outer:  mov     edx, dword [ebx]
        add     eax, edx
        mov     edx, dword [ebx+6]
        add     eax, edx
        mov     dword [ebx+10], eax
        add     ecx, 1
        cmp     ecx, 350
        jl      outer
        halt
`

// chaosPrograms builds the program × mechanism mix the chaos requests
// cycle through: hand-written loops plus generated SPEC workload models.
func chaosPrograms(t *testing.T) []chaosProgram {
	t.Helper()
	dpeh := core.DefaultOptions(core.DPEH)
	dpeh.HeatThreshold = 3
	dpeh.Retranslate = true
	dpeh.RetransThreshold = 2
	dynp := core.DefaultOptions(core.DynamicProfile)
	dynp.HeatThreshold = 3

	progs := []chaosProgram{
		{"asm-mdaloop|eh", asmProgram(t, mdaLoopSrc), core.DefaultOptions(core.ExceptionHandling)},
		{"asm-mdaloop|direct", asmProgram(t, mdaLoopSrc), core.DefaultOptions(core.Direct)},
		{"asm-mixed|dpeh", asmProgram(t, mixedSrc), dpeh},
		{"asm-mixed|dynprof", asmProgram(t, mixedSrc), dynp},
	}
	for _, name := range []string{"164.gzip", "429.mcf"} {
		spec, ok := workload.SpecByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %s", name)
		}
		spec.PaperMDAs /= 100
		spec.IterFloor = 300
		prog, err := workload.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, chaosProgram{
			name: "bench-" + name + "|eh",
			load: func(m *mem.Memory) uint32 { prog.Load(m, workload.Ref); return prog.Entry() },
			opt:  core.DefaultOptions(core.ExceptionHandling),
		})
	}
	return progs
}

// chaosEnginePlan returns the per-request engine fault parent: every
// engine- and machine-level injection point armed.
func chaosEnginePlan() *faultinject.Plan {
	p := faultinject.New(chaosSeed)
	for _, pt := range []faultinject.Point{
		faultinject.AllocBlock, faultinject.AllocStub, faultinject.Translate,
		faultinject.PatchRange, faultinject.ForcedFlush,
		faultinject.SpuriousTrap, faultinject.DuplicateTrap,
		faultinject.SpuriousAccessFault,
	} {
		p.Rate(pt, 0.02)
	}
	// Guarantee early occurrences regardless of how short a run is.
	p.At(faultinject.Translate, 1)
	p.At(faultinject.ForcedFlush, 2)
	p.At(faultinject.SpuriousAccessFault, 3)
	p.At(faultinject.DuplicateTrap, 1)
	return p
}

// serialBaseline replays request i on a dedicated fresh system with an
// identically-forked fault plan and returns its result fingerprint.
func serialBaseline(t *testing.T, progs []chaosProgram, i int) string {
	t.Helper()
	p := progs[i%len(progs)]
	opt := p.opt
	opt.FaultPlan = chaosEnginePlan().Fork(i)
	m := mem.New()
	mach := machine.New(m, machine.DefaultParams())
	e := core.NewEngine(m, mach, opt)
	entry := p.load(m)
	if err := e.RunContext(context.Background(), entry, 500_000_000); err != nil {
		t.Fatalf("serial baseline %d (%s): %v", i, p.name, err)
	}
	return fmt.Sprintf("cpu=%+v counters=%+v stats=%+v", e.FinalCPU(), mach.Counters(), e.Stats())
}

// TestChaosPoolMatchesSerial is the headline chaos acceptance test: ≥8
// concurrent sessions hammer the server while faults fire at every
// defined injection point — engine faults from per-request forked plans,
// serving faults (transient failures, worker panics) from per-worker
// forks. Every request must get a classified response (zero lost, zero
// escaped panics), and every completed request's guest CPU state, machine
// counters, and engine statistics must be bit-identical to a serial
// replay of the same request on a dedicated fresh engine.
func TestChaosPoolMatchesSerial(t *testing.T) {
	const sessions = 8
	perSession := 12
	if testing.Short() {
		perSession = 3 // still 8 concurrent sessions, smaller batches
	}
	numRequests := sessions * perSession
	progs := chaosPrograms(t)

	serveChaos := faultinject.New(chaosSeed+1).
		Rate(faultinject.ServeTransient, 0.20).
		Rate(faultinject.ServePanic, 0.06).
		At(faultinject.ServeTransient, 2).
		At(faultinject.ServePanic, 4)

	srv := NewServer(ServerOptions{
		Pool: Options{
			Workers: 8, Queue: 16, Retries: 2,
			RetryBase: 100 * time.Microsecond, RetryCap: time.Millisecond,
			BreakerThreshold: -1, // breaker behaviour is pinned in pool_test
			Chaos:            serveChaos,
			Seed:             chaosSeed,
		},
		Budget: 500_000_000,
	})
	defer srv.Close()

	// Build every request up front so the engine fault-plan forks are
	// indexed identically to the serial baseline.
	plans := make([]*faultinject.Plan, numRequests)
	reqs := make([]Request, numRequests)
	engineParent := chaosEnginePlan()
	for i := range reqs {
		p := progs[i%len(progs)]
		opt := p.opt
		plans[i] = engineParent.Fork(i)
		opt.FaultPlan = plans[i]
		reqs[i] = Request{Load: p.load, Options: &opt}
	}

	type outcome struct {
		res *Result
		err error
	}
	outcomes := make([]outcome, numRequests)
	responded := make([]bool, numRequests)
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for k := 0; k < perSession; k++ {
				i := s*perSession + k
				res, err := srv.Do(context.Background(), reqs[i])
				outcomes[i] = outcome{res, err}
				responded[i] = true
			}
		}(s)
	}
	wg.Wait()

	completed := 0
	for i, o := range outcomes {
		if !responded[i] {
			t.Fatalf("request %d lost: no response", i)
		}
		if o.err != nil {
			// Failures must be the injected kinds, classified.
			switch {
			case core.IsInternal(o.err) && strings.Contains(o.err.Error(), "injected panic"):
			case core.IsTransient(o.err) && strings.Contains(o.err.Error(), "injected transient"):
			default:
				t.Errorf("request %d: unexpected failure %v", i, o.err)
			}
			continue
		}
		completed++
		if want := serialBaseline(t, progs, i); fingerprintOf(o.res) != want {
			t.Errorf("request %d (%s): pooled result diverged from serial replay\n pooled %s\n serial %s",
				i, progs[i%len(progs)].name, fingerprintOf(o.res), want)
		}
	}
	if completed < numRequests/2 {
		t.Errorf("only %d/%d requests completed; chaos rates drowned the suite", completed, numRequests)
	}

	// Every defined injection point fired somewhere in the run: the seven
	// engine/machine points across the per-request plans, the two serving
	// points visible through pool health (each transient fire causes a
	// retry or a transient failure; each panic is recovered and counted).
	fired := make(map[faultinject.Point]uint64)
	for _, pl := range plans {
		for pt, n := range pl.Counts() {
			fired[pt] += n
		}
	}
	for _, pt := range []faultinject.Point{
		faultinject.AllocBlock, faultinject.AllocStub, faultinject.Translate,
		faultinject.PatchRange, faultinject.ForcedFlush,
		faultinject.SpuriousTrap, faultinject.DuplicateTrap,
		faultinject.SpuriousAccessFault,
	} {
		if fired[pt] == 0 {
			t.Errorf("engine point %s never fired", pt)
		}
	}
	h := srv.Health()
	if h.Retries == 0 {
		t.Error("serve.transient never fired (no retries recorded)")
	}
	if h.Panics == 0 {
		t.Error("serve.worker-panic never fired (no recovered panics)")
	}
	if h.Submitted != uint64(numRequests) {
		t.Errorf("health.Submitted = %d, want %d", h.Submitted, numRequests)
	}
	if h.Completed+h.Failed != uint64(numRequests) {
		t.Errorf("health: completed %d + failed %d != %d", h.Completed, h.Failed, numRequests)
	}
	t.Logf("chaos: %d/%d completed, %d retries, %d recovered panics, engine faults %v",
		completed, numRequests, h.Retries, h.Panics, fired)
}

func fingerprintOf(r *Result) string {
	return fmt.Sprintf("cpu=%+v counters=%+v stats=%+v", r.CPU, r.Counters, r.Stats)
}

// faultEnginePlan is the engine fault parent for the guest-fault serve
// suite: a thinner mix than chaosEnginePlan (the fault workloads are
// longer-running), with guaranteed spurious access faults so the
// protection-trap disambiguation path fires alongside real guest faults.
func faultEnginePlan() *faultinject.Plan {
	p := faultinject.New(chaosSeed + 3)
	for _, pt := range []faultinject.Point{
		faultinject.Translate, faultinject.ForcedFlush,
		faultinject.SpuriousTrap, faultinject.DuplicateTrap,
		faultinject.SpuriousAccessFault,
	} {
		p.Rate(pt, 0.01)
	}
	p.At(faultinject.SpuriousAccessFault, 2, 6)
	return p
}

// TestServeGuestFaults drives the guest-fault workload set (page-straddling
// MDA against protected/unmapped pages, the self-modifying rewriter)
// through the pooled serving layer under serve- and engine-level chaos.
// Every request gets a response; a faulting guest surfaces as a Permanent
// classified error carrying the precise guest PC and fault address —
// identical to a dedicated serial engine's — and never as an Internal
// error or an escaped panic. Success-expected programs must produce
// fingerprints bit-identical to serial replays on the recycled engines.
func TestServeGuestFaults(t *testing.T) {
	fps, err := workload.FaultPrograms()
	if err != nil {
		t.Fatal(err)
	}
	type mech struct {
		name string
		opt  core.Options
	}
	dpeh := core.DefaultOptions(core.DPEH)
	dpeh.HeatThreshold = 3
	mechs := []mech{
		{"eh", core.DefaultOptions(core.ExceptionHandling)},
		{"direct", core.DefaultOptions(core.Direct)},
		{"dpeh", dpeh},
	}
	type fcase struct {
		name string
		prog *workload.FaultProgram
		opt  core.Options
	}
	var cases []fcase
	for _, p := range fps {
		for _, m := range mechs {
			cases = append(cases, fcase{p.Name + "|" + m.name, p, m.opt})
		}
	}

	const sessions = 6
	perSession := 8
	if testing.Short() {
		perSession = 2
	}
	numRequests := sessions * perSession

	serveChaos := faultinject.New(chaosSeed+2).
		Rate(faultinject.ServeTransient, 0.15).
		Rate(faultinject.ServePanic, 0.05).
		At(faultinject.ServeTransient, 1).
		At(faultinject.ServePanic, 3)

	srv := NewServer(ServerOptions{
		Pool: Options{
			Workers: 6, Queue: 16, Retries: 2,
			RetryBase: 100 * time.Microsecond, RetryCap: time.Millisecond,
			BreakerThreshold: -1,
			Chaos:            serveChaos,
			Seed:             chaosSeed + 2,
		},
		Budget: 500_000_000,
	})
	defer srv.Close()

	parent := faultEnginePlan()
	reqs := make([]Request, numRequests)
	for i := range reqs {
		c := cases[i%len(cases)]
		opt := c.opt
		opt.FaultPlan = parent.Fork(i)
		p := c.prog
		reqs[i] = Request{
			Load:    func(m *mem.Memory) uint32 { p.Load(m); return p.Entry() },
			Options: &opt,
		}
	}

	// serial replays request i on a dedicated fresh engine with an
	// identically-forked fault plan.
	serial := func(i int) (string, *guest.Fault, error) {
		c := cases[i%len(cases)]
		opt := c.opt
		opt.FaultPlan = faultEnginePlan().Fork(i)
		m := mem.New()
		mach := machine.New(m, machine.DefaultParams())
		e := core.NewEngine(m, mach, opt)
		c.prog.Load(m)
		rerr := e.RunContext(context.Background(), c.prog.Entry(), 500_000_000)
		fp := fmt.Sprintf("cpu=%+v counters=%+v stats=%+v", e.FinalCPU(), mach.Counters(), e.Stats())
		gf, _ := core.AsGuestFault(rerr)
		return fp, gf, rerr
	}

	type outcome struct {
		res *Result
		err error
	}
	outcomes := make([]outcome, numRequests)
	responded := make([]bool, numRequests)
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for k := 0; k < perSession; k++ {
				i := s*perSession + k
				res, err := srv.Do(context.Background(), reqs[i])
				outcomes[i] = outcome{res, err}
				responded[i] = true
			}
		}(s)
	}
	wg.Wait()

	faulted, completed := 0, 0
	for i, o := range outcomes {
		if !responded[i] {
			t.Fatalf("request %d lost: no response", i)
		}
		c := cases[i%len(cases)]
		label := fmt.Sprintf("request %d (%s)", i, c.name)
		if o.err != nil {
			switch {
			case core.IsInternal(o.err) && strings.Contains(o.err.Error(), "injected panic"):
				continue
			case core.IsTransient(o.err) && strings.Contains(o.err.Error(), "injected transient"):
				continue
			}
			if !c.prog.ExpectFault {
				t.Errorf("%s: unexpected failure %v", label, o.err)
				continue
			}
			if core.IsInternal(o.err) {
				t.Errorf("%s: guest fault surfaced as Internal: %v", label, o.err)
			}
			if core.Classify(o.err) != core.Permanent {
				t.Errorf("%s: guest fault classified %v, want Permanent", label, core.Classify(o.err))
			}
			gf, ok := core.AsGuestFault(o.err)
			if !ok {
				t.Errorf("%s: error %v carries no guest fault", label, o.err)
				continue
			}
			if gf.Mem.Addr != c.prog.FaultAddr || gf.Mem.Write != c.prog.FaultWrite {
				t.Errorf("%s: fault %v, want addr %#x write %v", label, o.err, c.prog.FaultAddr, c.prog.FaultWrite)
			}
			_, refGF, rerr := serial(i)
			if refGF == nil {
				t.Fatalf("%s: serial replay ended with %v, want a guest fault", label, rerr)
			}
			if gf.PC != refGF.PC || gf.Mem != refGF.Mem {
				t.Errorf("%s: pooled fault %v, serial replay %v", label, o.err, rerr)
			}
			faulted++
			continue
		}
		if c.prog.ExpectFault {
			t.Errorf("%s: run completed, want guest fault at %#x", label, c.prog.FaultAddr)
			continue
		}
		completed++
		fp, _, serr := serial(i)
		if serr != nil {
			t.Fatalf("%s: serial replay failed: %v", label, serr)
		}
		if got := fingerprintOf(o.res); got != fp {
			t.Errorf("%s: pooled result diverged from serial replay\n pooled %s\n serial %s", label, got, fp)
		}
	}
	if faulted == 0 {
		t.Error("no request surfaced a guest fault; the mix never exercised the fault path")
	}
	if completed == 0 {
		t.Error("no success-expected request completed")
	}
	h := srv.Health()
	if h.Submitted != uint64(numRequests) {
		t.Errorf("health.Submitted = %d, want %d", h.Submitted, numRequests)
	}
	if h.Completed+h.Failed != uint64(numRequests) {
		t.Errorf("health: completed %d + failed %d != %d", h.Completed, h.Failed, numRequests)
	}
	t.Logf("guest-fault chaos: %d faulted, %d completed, %d retries, %d recovered panics",
		faulted, completed, h.Retries, h.Panics)
}

// TestServeDeadline: a request deadline aborts within one budget slice
// and reports context.DeadlineExceeded through the server path.
func TestServeDeadline(t *testing.T) {
	srv := NewServer(ServerOptions{Pool: Options{Workers: 1, Retries: -1}})
	defer srv.Close()
	opt := core.DefaultOptions(core.ExceptionHandling)
	opt.SliceInsts = 4096
	_, err := srv.Do(context.Background(), Request{
		Load: asmProgram(t, `
        mov     ebx, 0x10000000
        mov     ecx, 0
spin:   mov     edx, dword [ebx+2]
        add     ecx, 1
        cmp     ecx, 2000000000
        jl      spin
        halt
`),
		Options: &opt,
		Budget:  1 << 62,
		Timeout: 10 * time.Millisecond,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if core.Classify(err) != core.Permanent {
		t.Errorf("deadline failure classified %v, want Permanent", core.Classify(err))
	}
}

// TestServeEngineReuseAcrossPrograms: one worker serves different
// programs and mechanisms back to back; each result matches a fresh
// serial engine, proving Reset-based recycling leaks no state between
// tenants.
func TestServeEngineReuseAcrossPrograms(t *testing.T) {
	progs := chaosPrograms(t)
	srv := NewServer(ServerOptions{
		Pool:   Options{Workers: 1, Retries: -1}, // one worker: every request reuses one engine
		Budget: 500_000_000,
	})
	defer srv.Close()
	for round := 0; round < 2; round++ {
		for i, p := range progs {
			opt := p.opt
			res, err := srv.Do(context.Background(), Request{Load: p.load, Options: &opt})
			if err != nil {
				t.Fatalf("round %d %s: %v", round, p.name, err)
			}
			if res.Worker != 0 {
				t.Fatalf("expected single-worker pool, got worker %d", res.Worker)
			}
			m := mem.New()
			mach := machine.New(m, machine.DefaultParams())
			e := core.NewEngine(m, mach, p.opt)
			entry := p.load(m)
			if err := e.Run(entry, 500_000_000); err != nil {
				t.Fatalf("serial %s: %v", p.name, err)
			}
			want := fmt.Sprintf("cpu=%+v counters=%+v stats=%+v", e.FinalCPU(), mach.Counters(), e.Stats())
			if got := fingerprintOf(res); got != want {
				t.Errorf("round %d request %d (%s): recycled engine diverged\n got %s\nwant %s",
					round, i, p.name, got, want)
			}
		}
	}
}

// TestServeImageRequest: the simple Image/Data request form works end to
// end and returns the guest's architectural result.
func TestServeImageRequest(t *testing.T) {
	img, err := guestasm.Assemble(`
        mov     ebx, 0x10000000
        mov     eax, dword [ebx+2]
        halt
`, guest.CodeBase)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ServerOptions{Pool: Options{Workers: 2}})
	defer srv.Close()
	res, err := srv.Do(context.Background(), Request{
		Image: img,
		Data:  []byte{0, 0, 0x11, 0x22, 0x33, 0x44, 0, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.CPU.R[guest.EAX], uint32(0x44332211); got != want {
		t.Errorf("EAX = %#x, want %#x", got, want)
	}
	if res.Counters.MisalignTraps == 0 {
		t.Error("misaligned load did not trap under exception handling")
	}
	if _, err := srv.Do(context.Background(), Request{}); err == nil || core.Classify(err) != core.Permanent {
		t.Errorf("empty request: err = %v, want Permanent error", err)
	}
}

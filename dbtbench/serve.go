package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mdabt/internal/aot"
	"mdabt/internal/core"
	"mdabt/internal/guest"
	"mdabt/internal/machine"
	"mdabt/internal/mem"
	"mdabt/internal/serve"
	"mdabt/internal/store"
	"mdabt/internal/workload"
)

// The serve workload is dbtserve after a restart: a serve.Server over a
// persistent store, driven in a closed loop by serveClients clients (each
// sends its next request only when the previous one has completed)
// against serveWorkers pool workers. Set-up is the cold pass over every
// (program, mechanism, traces) combination, after the AOT images are saved
// into the store as dbtserve does, ending with Close flushing the trap
// profiles. The timed phase is a restarted Server on the same store.
const (
	serveShrink     = 2000
	serveIterFloor  = 20
	serveFaultProgs = 4
	serveClients    = 2
	serveWorkers    = 2
	serveBudget     = 4_000_000_000
	replaySample    = 200
)

var serveMechs = []string{"eh", "dpeh", "speh", "aot", "direct"}

// serveProg is one program the workload requests, with the outcome the
// reference interpreter (core.RunCensus) gives it.
type serveProg struct {
	name     string
	model    *workload.Program      // a benchmark model, or
	fault    *workload.FaultProgram // a fault program ("tiny")
	ref      guest.CPU
	refFault *guest.Fault
}

func (p *serveProg) load(m *mem.Memory) uint32 {
	if p.fault != nil {
		p.fault.Load(m)
		return p.fault.Entry()
	}
	p.model.Load(m, workload.Ref)
	return p.model.Entry()
}

func (p *serveProg) class() string {
	if p.fault != nil {
		return "tiny"
	}
	return "model"
}

type serveReq struct {
	prog   int
	mech   string
	traces bool
}

type serveWL struct {
	seed        int64
	tmp         string
	rng         *rand.Rand
	stream      []serveReq // the timed phase's requests; each pass runs them all in a new order
	progs       []*serveProg
	st          *store.Store
	dir         string
	nstores     int
	censusInsts float64
}

// newServe builds the request stream: every (program, mechanism, traces)
// combination of a fault program appears once per model, and every one of
// a model once per fault program, so fault programs and models each make
// half the stream and every seed does the same work. The seed shuffles
// the order, anew for each pass.
func newServe(seed int64, tmp string) *serveWL {
	models := len(workload.SelectedSpecs())
	w := &serveWL{seed: seed, tmp: tmp, rng: rand.New(rand.NewSource(seed))}
	for prog := 0; prog < serveFaultProgs+models; prog++ {
		reps := serveFaultProgs
		if prog < serveFaultProgs {
			reps = models
		}
		for _, mech := range serveMechs {
			for i := 0; i < reps; i++ {
				w.stream = append(w.stream, serveReq{prog, mech, false}, serveReq{prog, mech, true})
			}
		}
	}
	return w
}

func storeKey(name string) string { return "bench-" + name + "-ref" }

// serveKey names a request's pinned digest. Traced and untraced requests
// share it: the trace tier is simulation-invisible.
func serveKey(p *serveProg, r serveReq) string {
	return fmt.Sprintf("serve|%s|%s", p.name, r.mech)
}

// combos lists every (program, mechanism, traces) combination once.
func (w *serveWL) combos() []serveReq {
	var out []serveReq
	for p := range w.progs {
		for _, m := range serveMechs {
			out = append(out, serveReq{p, m, false}, serveReq{p, m, true})
		}
	}
	return out
}

func (w *serveWL) request(r serveReq) serve.Request {
	p := w.progs[r.prog]
	opt := mechOptions(r.mech, r.traces)
	req := serve.Request{Options: &opt, Budget: serveBudget, Load: p.load}
	if p.model != nil {
		// Fault programs go through the loader hook without a store key,
		// so they bypass the store, as dbtserve's faultprog requests do.
		req.Key = p.name
		req.StoreKey = storeKey(p.name)
	}
	return req
}

// setup generates the programs, runs each on the reference interpreter,
// saves the models' AOT images into a fresh store, and runs the cold pass.
func (w *serveWL) setup(rec *recorder, chk *checker) error {
	if err := w.programs(rec, chk); err != nil {
		return err
	}
	if w.st != nil {
		os.RemoveAll(w.dir)
	}
	w.nstores++
	w.dir = filepath.Join(w.tmp, fmt.Sprintf("serve-store-%d-%d", os.Getpid(), w.nstores))
	if err := os.RemoveAll(w.dir); err != nil {
		return err
	}
	st, err := store.Open(w.dir)
	if err != nil {
		return err
	}
	w.st = st
	fp := mechOptions("aot", false).Fingerprint()
	for _, p := range w.progs {
		if p.model == nil {
			continue
		}
		im, err := buildImage(rec, p.model)
		if err == nil {
			id := rec.begin("store.save", rec.topID(), -1)
			err = st.Save(store.Key{Program: storeKey(p.name), Fingerprint: fp, Kind: store.KindAOTImage}, im)
			rec.end(id)
		}
		chk.op("aot image "+p.name, err)
	}
	srv, stop := w.startServer(st)
	w.loop(srv, w.combos(), rec, rec.topID(), chk, nil, false)
	id := rec.begin("serve.close", rec.topID(), -1)
	err = stop()
	rec.end(id)
	chk.op("serve close after the cold pass", err)
	return nil
}

// startServer starts a serve.Server on st with serveWorkers workers for
// the clients plus one parked worker per client, each holding a sentinel
// request until stop is called. The sentinels work around a race in
// serve.Pool.submit: it hands a job to a worker before counting it in the
// pool's WaitGroup, so a worker that finishes the job before its
// submitter is scheduled again drives the count negative and the process
// panics ("sync: negative WaitGroup counter"). With a sentinel in flight
// per client the count cannot drop below zero; startServer returns only
// once the pool has counted every sentinel as submitted, which it does
// after adding it to the WaitGroup. The parked workers run no guest code
// while the clients are active. stop releases the sentinels, waits for
// them and closes the server.
func (w *serveWL) startServer(st *store.Store) (srv *serve.Server, stop func() error) {
	srv = serve.NewServer(serve.ServerOptions{Pool: serve.Options{Workers: serveWorkers + serveClients}, Store: st})
	gate := make(chan struct{})
	var parked, done sync.WaitGroup
	p := w.progs[0]
	for i := 0; i < serveClients; i++ {
		parked.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			srv.Do(context.Background(), serve.Request{Budget: serveBudget, Load: func(m *mem.Memory) uint32 {
				parked.Done()
				<-gate
				return p.load(m)
			}})
		}()
	}
	parked.Wait()
	for srv.Health().Submitted < serveClients {
		time.Sleep(50 * time.Microsecond)
	}
	return srv, func() error {
		close(gate)
		done.Wait()
		return srv.Close()
	}
}

// programs generates the fault programs and models and records each
// one's reference outcome.
func (w *serveWL) programs(rec *recorder, chk *checker) error {
	id := rec.begin("workload.generate", rec.topID(), -1)
	var faults []*workload.FaultProgram
	err := protect(func() (err error) { faults, err = workload.FaultPrograms(); return err })
	rec.end(id)
	if err == nil && len(faults) != serveFaultProgs {
		err = fmt.Errorf("workload.FaultPrograms returned %d programs, the stream assumes %d", len(faults), serveFaultProgs)
	}
	chk.op("generate fault programs", err)
	if err != nil {
		return err
	}
	var progs []*serveProg
	for _, f := range faults {
		progs = append(progs, &serveProg{name: f.Name, fault: f})
	}
	for _, sp := range workload.SelectedSpecs() {
		p, err := generateModel(rec, sp.Name, serveShrink, serveIterFloor)
		chk.op("generate "+sp.Name, err)
		if err != nil {
			return err
		}
		progs = append(progs, &serveProg{name: sp.Name, model: p})
	}
	w.censusInsts = 0
	for _, p := range progs {
		chk.op("reference run "+p.name, w.reference(rec, p))
	}
	w.progs = progs
	return nil
}

// reference interprets the program and records its final registers, or
// the fault it must end in.
func (w *serveWL) reference(rec *recorder, p *serveProg) error {
	m := mem.New()
	entry := p.load(m)
	id := rec.begin("core.census", rec.topID(), -1)
	c, err := core.RunCensus(m, entry, 300_000_000)
	rec.end(id)
	if c == nil {
		return fmt.Errorf("reference run: %w", err)
	}
	rec.work("core.census", float64(c.Insts))
	w.censusInsts += float64(c.Insts)
	p.ref = c.FinalCPU
	if p.fault != nil && p.fault.ExpectFault {
		gf, ok := core.AsGuestFault(err)
		if !ok || gf.Mem.Addr != p.fault.FaultAddr || gf.Mem.Write != p.fault.FaultWrite {
			return fmt.Errorf("reference ended with %v, want a fault at %#x (write %v)", err, p.fault.FaultAddr, p.fault.FaultWrite)
		}
		p.refFault = gf
		return nil
	}
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	if !c.Halted {
		return fmt.Errorf("reference run did not halt")
	}
	return nil
}

// check compares one execution with the reference: a fault program must
// end in its declared fault at the reference's PC, anything else must end
// with the reference's registers. With pinned set the simulated counters
// must also match the digest pinned for the combination.
func (w *serveWL) check(r serveReq, cpu *guest.CPU, c machine.Counters, s core.Stats, err error, pinned bool, chk *checker) error {
	p := w.progs[r.prog]
	if p.refFault != nil {
		gf, ok := core.AsGuestFault(err)
		if !ok {
			return fmt.Errorf("ended with %v, want a guest fault at %#x", err, p.fault.FaultAddr)
		}
		if gf.Mem.Addr != p.fault.FaultAddr || gf.Mem.Write != p.fault.FaultWrite || gf.PC != p.refFault.PC {
			return fmt.Errorf("fault %v at pc %#x, want addr %#x write %v at pc %#x",
				&gf.Mem, gf.PC, p.fault.FaultAddr, p.fault.FaultWrite, p.refFault.PC)
		}
		return nil
	}
	if err != nil {
		return err
	}
	if cpu.R != p.ref.R || cpu.F != p.ref.F {
		return fmt.Errorf("final registers differ from the reference interpreter's")
	}
	if !pinned {
		return nil
	}
	return chk.digest(serveKey(p, r), runDigest(c, s, cpu))
}

type reqResult struct {
	at       time.Time
	ms       float64
	attempts int
	res      *serve.Result
}

// loop sends reqs through srv from serveClients closed-loop clients; a
// client calls cal.tick after each request.
func (w *serveWL) loop(srv *serve.Server, reqs []serveReq, rec *recorder, parent int32, chk *checker, cal *calibrator, pinned bool) []reqResult {
	out := make([]reqResult, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				req := w.request(r)
				t0 := time.Now()
				id := rec.begin("serve.do", parent, int32(i))
				var res *serve.Result
				err := protect(func() (err error) { res, err = srv.Do(context.Background(), req); return err })
				rec.end(id)
				o := reqResult{at: t0, ms: msSince(t0), attempts: 1, res: res}
				if res != nil {
					o.attempts = res.Attempts
					err = w.check(r, &res.CPU, res.Counters, res.Stats, nil, pinned, chk)
				} else {
					err = w.check(r, nil, machine.Counters{}, core.Stats{}, err, pinned, chk)
				}
				chk.op(fmt.Sprintf("request %s under %s (traces %v)", w.progs[r.prog].name, r.mech, r.traces), err)
				out[i] = o
				cal.tick()
			}
		}()
	}
	wg.Wait()
	return out
}

// pass restarts the server on the set-up store and runs the stream in
// the next order the seed draws. An operation's key is its index in the
// stream.
func (w *serveWL) pass(rec *recorder, chk *checker, cal *calibrator) passStats {
	ps := passStats{clients: serveClients, counts: map[string]float64{}}
	c := ps.counts
	order := w.rng.Perm(len(w.stream))
	reqs := make([]serveReq, len(order))
	for k, i := range order {
		reqs[k] = w.stream[i]
	}
	srv, stop := w.startServer(w.st)
	st0 := w.st.Stats()
	win := startWindow()
	top := rec.begin("bench.pass", -1, -1)
	out := w.loop(srv, reqs, rec, top, chk, cal, true)
	rec.end(top)
	win.stop(&ps)
	st1 := w.st.Stats()
	chk.op("serve close", stop())

	var attempts float64
	for k, o := range out {
		ps.ops = append(ps.ops, opTime{key: fmt.Sprint(order[k]), class: w.progs[reqs[k].prog].class(), at: o.at, ms: o.ms})
		attempts += float64(o.attempts)
		if o.res != nil {
			ps.insts += o.res.Counters.Insts
			addRunCounts(c, o.res.Counters.Insts, o.res.Counters.MisalignTraps, o.res.Counters.Brks, o.res.Stats)
		}
	}
	n := float64(len(out))
	c["serve.attempts_per_req"] = attempts / n
	c["core.blocks_translated_per_req"] = c["core.blocks_translated"] / n
	loads := float64(st1.Loads - st0.Loads)
	c["store.loads"] = loads
	c["store.misses"] = float64(st1.Misses - st0.Misses)
	c["store.quarantined"] = float64(st1.Quarantined - st0.Quarantined)
	if loads > 0 {
		c["store.hit_ratio"] = float64(st1.Hits-st0.Hits) / loads
	}
	return ps
}

// extras reports the request latencies by class, the set-up's store and
// close timings, and the serial replay's per-request split.
func (w *serveWL) extras(rec *recorder, chk *checker, m metricSet, traced []passStats) {
	lat := map[string][]float64{}
	for _, p := range traced {
		for _, o := range p.ops {
			lat[o.class] = append(lat[o.class], o.ms)
		}
	}
	for _, class := range []string{"tiny", "model"} {
		m.set("serve.do_ms.p50."+class, percentile(lat[class], 0.50))
		m.set("serve.do_ms.p99."+class, percentile(lat[class], 0.99))
	}
	m.set("serve.close_ms", rec.total("serve.close")/1e6)
	m.set("store.save_ms", median(rec.durations("store.save"))/1e6)
	m.set("core.census_guest_insts", w.censusInsts)
	w.replay(rec, chk, m, traced[0])
}

// replay re-runs a seeded sample of the stream serially on one recycled
// engine, timing Engine.Reset, the program load and Engine.RunContext
// apart, with the warm-start artifacts loaded from the store the way the
// server loads them. It then merges the replayed sessions' trap histories
// into the store, timing each merge.
func (w *serveWL) replay(rec *recorder, chk *checker, m metricSet, timed passStats) {
	rng := rand.New(rand.NewSource(w.seed + 1))
	sample := rng.Perm(len(w.stream))[:replaySample]
	gm := mem.New()
	mach := machine.New(gm, machine.DefaultParams())
	var e *core.Engine
	var resets, resetKB, totals, doMs []float64
	timedMs := map[string]float64{}
	for _, o := range timed.ops {
		timedMs[o.key] = o.ms
	}
	runs := map[string][]float64{}
	pending := map[store.Key]*store.TrapProfile{}
	top := rec.begin("bench.replay", -1, -1)
	for k, i := range sample {
		r := w.stream[i]
		p := w.progs[r.prog]
		opt := mechOptions(r.mech, r.traces)
		if p.model != nil {
			w.warm(rec, top, int32(i), &opt, storeKey(p.name), r.mech == "speh")
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		id := rec.begin("core.reset", top, int32(i))
		if e == nil {
			e = core.NewEngine(gm, mach, opt)
		} else {
			e.Reset(opt)
		}
		rec.end(id)
		reset := time.Since(t0)
		runtime.ReadMemStats(&after)
		t1 := time.Now()
		id = rec.begin("core.load", top, int32(i))
		entry := p.load(gm)
		rec.end(id)
		t2 := time.Now()
		id = rec.begin("core.run_request", top, int32(i))
		err := protect(func() error { return e.RunContext(context.Background(), entry, serveBudget) })
		rec.end(id)
		run := time.Since(t2)
		cpu := e.FinalCPU()
		chk.op(fmt.Sprintf("replay %s under %s", p.name, r.mech), w.check(r, &cpu, mach.Counters(), e.Stats(), err, true, chk))
		if k == 0 {
			continue // the first request builds the engine instead of resetting it
		}
		resets = append(resets, float64(reset.Nanoseconds()))
		resetKB = append(resetKB, float64(after.TotalAlloc-before.TotalAlloc)/1024)
		runs[p.class()] = append(runs[p.class()], float64(run.Nanoseconds()))
		totals = append(totals, float64(reset.Nanoseconds()+t2.Sub(t1).Nanoseconds()+run.Nanoseconds()))
		doMs = append(doMs, timedMs[fmt.Sprint(i)])
		if p.model != nil && err == nil {
			pk := store.Key{Program: storeKey(p.name), Fingerprint: opt.Fingerprint(), Kind: store.KindTrapProfile}
			tp := pending[pk]
			if tp == nil {
				tp = &store.TrapProfile{}
				pending[pk] = tp
			}
			tp.Sessions++
			for pc, h := range e.SiteHistory() {
				tp.Add(pc, h.MDA, h.Aligned)
			}
		}
	}
	keys := make([]store.Key, 0, len(pending))
	for k := range pending {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a].Program+keys[a].Fingerprint < keys[b].Program+keys[b].Fingerprint })
	for _, k := range keys {
		id := rec.begin("store.merge", top, -1)
		err := w.st.MergeTrapProfile(k, pending[k])
		rec.end(id)
		chk.op("merge trap profile "+k.Program, err)
	}
	rec.end(top)

	m.set("core.reset_us", median(resets)/1e3)
	m.set("core.reset_alloc_kb", mean(resetKB))
	m.set("core.run_us.tiny", median(runs["tiny"])/1e3)
	m.set("core.run_us.model", median(runs["model"])/1e3)
	m.set("serve.overhead_us", median(doMs)*1e3-median(totals)/1e3)
	m.set("store.load_us", median(rec.durations("store.load"))/1e3)
	m.set("store.merge_ms", median(rec.durations("store.merge"))/1e6)
}

// warm adopts the store's AOT image and, for a mechanism that consumes a
// static profile, its trap profile, as the server's warm start does: an artifact that fails to load or verify
// leaves the options cold.
func (w *serveWL) warm(rec *recorder, parent, req int32, opt *core.Options, program string, staticProfile bool) {
	fp := opt.Fingerprint()
	if opt.AOT && opt.AOTBlocks == nil {
		var im aot.Image
		id := rec.begin("store.load", parent, req)
		err := w.st.Load(store.Key{Program: program, Fingerprint: fp, Kind: store.KindAOTImage}, &im)
		if err == nil {
			err = im.Verify()
		}
		rec.end(id)
		if err == nil {
			opt.AOTBlocks = im.Blocks
		}
	}
	if staticProfile && opt.StaticSites == nil {
		var tp store.TrapProfile
		id := rec.begin("store.load", parent, req)
		err := w.st.Load(store.Key{Program: program, Fingerprint: fp, Kind: store.KindTrapProfile}, &tp)
		rec.end(id)
		if err == nil {
			opt.StaticSites = tp.StaticSites()
		}
	}
}

func (w *serveWL) close() {
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}

// pin runs every combination once on a restarted server, recording the
// digests the timed passes are checked against.
func (w *serveWL) pin(chk *checker) {
	srv, stop := w.startServer(w.st)
	w.loop(srv, w.combos(), nil, -1, chk, nil, true)
	chk.op("serve close", stop())
}

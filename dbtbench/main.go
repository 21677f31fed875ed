// Command dbtbench is the repository benchmark. It drives the simulator's
// public entry points (experiments, core, serve, store, aot, workload and
// perfbench) through three workloads, checks every simulated result for
// correctness, and prints its metrics by name with their units. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with span
// recording off. With --trace 1 the same workload runs again with spans
// recorded around every call into a layer, and the metrics are the
// per-layer ones (layers.json lists every name, its unit, and the
// end-to-end metric and workload it should move).
//
// Usage (from the repository root; dbtbench/run.sh builds and runs it):
//
//	dbtbench --workload fig16|traced|serve --seed N --seconds S --trace 0|1
//	dbtbench --selfcheck --workload W --seed N --seconds S   (determinism check)
//	dbtbench --pin dbtbench/golden.json                      (re-pin digests)
//	dbtbench --benchmark-json                                (print BENCHMARK.json)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Each untraced run performs at least minSetups complete set-ups, and more
// (up to maxSetups) while they have taken less than setupTime, so a cheap
// set-up is still timed over many repetitions; setup_s is their median.
const (
	minSetups = 3
	maxSetups = 200
	setupTime = time.Second
	// setupCalibLoops calibration loops run before the first set-up and
	// after each one.
	setupCalibLoops = 4
)

// bench is one workload. setup performs one complete set-up and keeps its
// state for the next pass; pass runs the workload's fixed operation list
// once and times it, calling cal.tick between operations; extras adds the
// workload's own per-layer metrics after the traced passes; pin runs every
// configuration the passes can reach once, so each gets a pinned digest.
type bench interface {
	setup(rec *recorder, chk *checker) error
	pass(rec *recorder, chk *checker, cal *calibrator) passStats
	extras(rec *recorder, chk *checker, m metricSet, traced []passStats)
	pin(chk *checker)
	close()
}

func newBench(name string, seed int64, tmp string) (bench, error) {
	switch name {
	case "fig16":
		return newFig16(seed), nil
	case "traced":
		return newTraced(seed), nil
	case "serve":
		return newServe(seed, tmp), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have fig16, traced, serve)", name)
}

// opTime is one operation's latency and when it started. key names a
// serve request by its index in the stream; class splits the serve
// workload's requests into fault programs ("tiny") and benchmark models
// ("model").
type opTime struct {
	key   string
	class string
	at    time.Time
	ms    float64
}

// passStats is what one timed pass measured.
type passStats struct {
	start   time.Time
	wall    time.Duration
	clients int // operations in flight at once (0 means 1)
	ops     []opTime
	insts   uint64 // machine.Counters.Insts summed over the pass
	alloc   uint64 // runtime.MemStats.TotalAlloc delta
	gc      uint32
	gcPause uint64  // ns
	cpu     float64 // process user+system CPU seconds
	// counts are the pass's exact per-layer counts; two passes over the
	// same operation list must report identical values.
	counts map[string]float64
}

// window times one pass: it starts from a collected heap and records
// wall time and the allocator's deltas.
type window struct {
	t0  time.Time
	cpu float64
	ms  runtime.MemStats
}

func startWindow() *window {
	runtime.GC()
	w := &window{}
	runtime.ReadMemStats(&w.ms)
	w.cpu = cpuSeconds()
	w.t0 = time.Now()
	return w
}

func (w *window) stop(ps *passStats) {
	ps.start = w.t0
	ps.wall = time.Since(w.t0)
	ps.cpu = cpuSeconds() - w.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ps.alloc = ms.TotalAlloc - w.ms.TotalAlloc
	ps.gc = ms.NumGC - w.ms.NumGC
	ps.gcPause = ms.PauseTotalNs - w.ms.PauseTotalNs
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	wl := flag.String("workload", "", "workload: fig16, traced or serve")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "minimum length of the timed phase")
	trace := flag.Int("trace", 0, "1: record spans and print the per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for span dumps and the serve workload's store")
	selfcheck := flag.Bool("selfcheck", false, "run the traced workload twice at --seed and once at --seed+1 and compare every exact count")
	pin := flag.String("pin", "", "write the golden digests of every workload to this file and exit")
	benchJSON := flag.Bool("benchmark-json", false, "print BENCHMARK.json as derived from layers.json and exit")
	flag.Parse()

	var err error
	switch {
	case *benchJSON:
		err = printBenchmarkJSON(os.Stdout)
	case *pin != "":
		err = pinAll(*pin, *out)
	case *selfcheck:
		err = runSelfcheck(*wl, *seed, *seconds, *out)
	default:
		err = run(*wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dbtbench:", err)
		os.Exit(1)
	}
}

// run executes one benchmark run and prints its result.
func run(name string, seed int64, seconds time.Duration, traced bool, out string) error {
	tmp := filepath.Join(out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	b, err := newBench(name, seed, tmp)
	if err != nil {
		return err
	}
	defer b.close()
	chk := newChecker(golden)
	m := newMetricSet(traced)
	if traced {
		if err := runTraced(b, name, seed, seconds, chk, m, out); err != nil {
			return err
		}
	} else {
		runUntraced(b, seconds, chk, m)
	}
	if err := m.complete(); err != nil {
		return err
	}
	m.print(os.Stdout, chk)
	return emit(os.Stdout, chk, m)
}

// runUntraced measures the end-to-end metrics: repeated set-ups, then
// timed passes until the timed phase has lasted at least seconds. Each
// metric is a median over the passes, and the latency percentiles are
// taken over every operation of every pass.
//
// Every time is reported at the reference host speed (calib.go): a pass's
// wall, less the calibration loops run inside it, is scaled by calibRef
// over the median of those loops; an operation's latency or a set-up's
// time by calibRef over the median of the calibNear loops nearest to it.
// The measured times are printed unscaled in the report's notes.
func runUntraced(b bench, seconds time.Duration, chk *checker, m metricSet) {
	cal := &calibrator{}
	cal.run(setupCalibLoops)
	type setupRun struct {
		start time.Time
		d     time.Duration
	}
	var setups []setupRun
	for start := time.Now(); len(setups) < minSetups || len(setups) < maxSetups && time.Since(start) < setupTime; {
		t0 := time.Now()
		if err := b.setup(nil, chk); err != nil {
			chk.fail("setup", err)
		}
		setups = append(setups, setupRun{t0, time.Since(t0)})
		cal.run(setupCalibLoops)
	}
	var passes []passStats
	for start := time.Now(); len(passes) == 0 || time.Since(start) < seconds; {
		passes = append(passes, b.pass(nil, chk, cal))
	}
	checkRepeat(chk, passes)
	loops := cal.sorted()
	var setupS, rawSetupS, walls, raw, allocs, cpus, lat []float64
	for _, s := range setups {
		rawSetupS = append(rawSetupS, s.d.Seconds())
		setupS = append(setupS, s.d.Seconds()*scaleAt(loops, s.start.Add(s.d/2)))
	}
	for _, p := range passes {
		in, med := within(loops, p.start, p.start.Add(p.wall))
		k := float64(calibRef) / float64(med)
		if med == 0 {
			k = scaleAt(loops, p.start.Add(p.wall/2))
		}
		work := p.wall - in/time.Duration(max(p.clients, 1))
		walls = append(walls, work.Seconds()*k)
		raw = append(raw, work.Seconds())
		allocs = append(allocs, float64(p.alloc)/(1<<20))
		cpus = append(cpus, p.cpu)
		for _, o := range p.ops {
			d := time.Duration(o.ms * 1e6)
			lat = append(lat, o.ms*scaleAt(loops, o.at.Add(d/2)))
		}
	}
	w := median(walls)
	m.set("setup_s", median(setupS))
	m.set("wall_s", w)
	m.set("sim_mips", float64(passes[0].insts)/w/1e6)
	m.set("alloc_mb", median(allocs))
	m.set("req_per_s", float64(len(passes[0].ops))/w)
	m.set("req_p50_ms", percentile(lat, 0.50))
	m.set("req_p99_ms", percentile(lat, 0.99))
	var loopMs []float64
	for _, l := range loops {
		loopMs = append(loopMs, float64(l.d.Nanoseconds())/1e6)
	}
	m.notes = append(m.notes, fmt.Sprintf("measured pass walls less calibration (s): %.4g", raw))
	m.notes = append(m.notes, fmt.Sprintf("pass walls at the reference speed (s): %.4g", walls))
	m.note("measured median wall_s less calibration", median(raw))
	m.note("measured median setup_s", median(rawSetupS))
	m.note(fmt.Sprintf("median of %d calibration loops (ms, reference %v)", len(loops), calibRef), median(loopMs))
	m.note("median CPU seconds per pass", median(cpus))
	m.note("latency samples", float64(len(lat)))
	m.note("setups", float64(len(setups)))
}

// runTraced measures the per-layer metrics: one set-up and alternating
// untraced and traced passes (at least one of each), so the tracing
// overhead is the difference of their median walls in one process.
func runTraced(b bench, name string, seed int64, seconds time.Duration, chk *checker, m metricSet, out string) error {
	rec := newRecorder()
	rec.top = rec.begin("bench.setup", -1, -1)
	if err := b.setup(rec, chk); err != nil {
		chk.fail("setup", err)
	}
	rec.end(rec.top)
	var plain, traced []passStats
	for start := time.Now(); len(traced) == 0 || time.Since(start) < seconds; {
		plain = append(plain, b.pass(nil, chk, nil))
		traced = append(traced, b.pass(rec, chk, nil))
	}
	checkRepeat(chk, append(append([]passStats{}, plain...), traced...))

	var pw, tw, gc, pause []float64
	for i := range plain {
		pw = append(pw, plain[i].wall.Seconds())
		tw = append(tw, traced[i].wall.Seconds())
		gc = append(gc, float64(traced[i].gc))
		pause = append(pause, float64(traced[i].gcPause)/1e6)
	}
	m.set("bench.trace_overhead_s", median(tw)-median(pw))
	m.set("runtime.gc_cycles", median(gc))
	m.set("runtime.gc_pause_ms", median(pause))
	m.set("workload.generate_ms", rec.total("workload.generate")/1e6)
	m.set("aot.build_ms", rec.total("aot.build")/1e6)
	m.set("core.census_ns_per_guest_inst", rec.perUnit("core.census"))
	for _, s := range spec.PerLayer {
		if suffix, ok := strings.CutPrefix(s.Name, "core.run_ns_per_host_inst."); ok {
			m.set(s.Name, rec.perUnit("core.run."+suffix))
		}
	}
	for k, v := range traced[0].counts {
		m.set(k, v)
	}
	b.extras(rec, chk, m, traced)
	runMicro(rec, chk, m)
	for layer, ns := range rec.selfByLayer() {
		m.set("self_ms."+layer, ns/1e6)
	}
	m.note("traced passes", float64(len(traced)))
	m.note("untraced wall_s", median(pw))
	m.note("traced wall_s", median(tw))

	dir := filepath.Join(out, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return rec.write(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed)))
}

// checkRepeat is the in-run determinism gate: every pass runs the same
// operation list, so every exact count must repeat. A count that does not
// is named and fails the run's correctness.
func checkRepeat(chk *checker, passes []passStats) {
	for i := 1; i < len(passes); i++ {
		var bad []string
		for k, v := range passes[0].counts {
			if passes[i].counts[k] != v {
				bad = append(bad, fmt.Sprintf("%s %v != %v", k, passes[i].counts[k], v))
			}
		}
		var err error
		if len(bad) > 0 {
			sort.Strings(bad)
			err = fmt.Errorf("counts differ: %s", strings.Join(bad, "; "))
		}
		chk.op(fmt.Sprintf("pass %d counts repeat pass 0", i), err)
	}
}

func emit(w *os.File, chk *checker, m metricSet) error {
	o := output{
		Correct:   chk.failed == 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   map[string]metric{},
	}
	for name, v := range m.values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", name, v)
		}
		o.Metrics[name] = metric{Value: v, Unit: m.units[name]}
	}
	data, err := json.Marshal(o)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile is the nearest-rank percentile (0 for no samples); the median
// of an even count averages the two middle values.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

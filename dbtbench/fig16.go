package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"mdabt/internal/core"
	"mdabt/internal/experiments"
	"mdabt/internal/workload"
)

// The fig16 workload regenerates Figure 16 (the overall mechanism
// comparison): 21 benchmarks x 5 mechanisms plus the 21 train-input
// censuses behind static profiling, on a fresh Session with Parallelism 1.
// The scale is that of the repository's BenchmarkFigure16 (Shrink 40) at
// half its IterFloor, so that a run holds several passes.
const (
	fig16Shrink    = 40
	fig16IterFloor = 400
)

// fig16Geomeans are the Figure 16 geomeans recorded at this scale.
var fig16Geomeans = map[string]string{
	"DPEH":             "0.9458",
	"DynamicProfiling": "1.245",
	"StaticProfiling":  "0.9607",
	"Direct":           "2.02",
}

// fig16Short names each Figure 16 series in span and metric names.
var fig16Short = map[string]string{
	"ExceptionHandling": "eh",
	"DPEH":              "dpeh",
	"DynamicProfiling":  "dynprof",
	"StaticProfiling":   "staticprof",
	"Direct":            "direct",
}

// fig16Row is one benchmark's row of Figure 16: its train census followed
// by its five Session.Run calls, each call one timed operation.
type fig16Row struct {
	name   string
	series []string
}

type fig16 struct {
	rng    *rand.Rand
	names  []string
	series []string
	gen    []string // Session.Program order
	sess   *experiments.Session
}

// newFig16 fixes the operation list; the seed only permutes the order in
// which the harness pre-issues Session.Program, Census and Run.
func newFig16(seed int64) *fig16 {
	f := &fig16{rng: rand.New(rand.NewSource(seed))}
	for _, sp := range workload.SelectedSpecs() {
		f.names = append(f.names, sp.Name)
	}
	for s := range experiments.Fig16Configs() {
		f.series = append(f.series, s)
	}
	sort.Strings(f.series)
	f.gen = permuted(f.rng, f.names)
	return f
}

// order draws the next pass's Session.Census/Run order. Each pass of a
// run takes a new permutation, so the latencies pooled over the passes do
// not hinge on what one order ran before each operation.
func (f *fig16) order() []fig16Row {
	var rows []fig16Row
	for _, n := range permuted(f.rng, f.names) {
		rows = append(rows, fig16Row{n, permuted(f.rng, f.series)})
	}
	return rows
}

func permuted(rng *rand.Rand, xs []string) []string {
	out := append([]string(nil), xs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// setup generates every benchmark program into a fresh Session.
func (f *fig16) setup(rec *recorder, chk *checker) error {
	s := experiments.NewSession()
	s.Shrink = fig16Shrink
	s.IterFloor = fig16IterFloor
	s.Parallelism = 1
	for _, n := range f.gen {
		id := rec.begin("workload.generate", rec.topID(), -1)
		err := protect(func() error { _, err := s.Program(n, ""); return err })
		rec.end(id)
		chk.op("generate "+n, err)
	}
	f.sess = s
	return nil
}

// pass computes every census and run on the set-up Session, then
// assembles Figure 16 from the Session's cache and checks its geomeans.
// Each pass consumes its Session; a second pass sets up a new one first,
// outside the timed window.
func (f *fig16) pass(rec *recorder, chk *checker, cal *calibrator) passStats {
	if f.sess == nil {
		f.setup(nil, chk)
	}
	s := f.sess
	f.sess = nil
	ps := passStats{counts: map[string]float64{}}
	c := ps.counts
	w := startWindow()
	top := rec.begin("bench.pass", -1, -1)
	cfgs := experiments.Fig16Configs()
	for i, row := range f.order() {
		t0 := time.Now()
		id := rec.begin("core.census", top, int32(i))
		var cen *core.Census
		err := protect(func() (err error) { cen, err = s.Census(row.name, workload.Train); return err })
		rec.end(id)
		ps.ops = append(ps.ops, opTime{at: t0, ms: msSince(t0)})
		cal.tick()
		if err == nil {
			rec.work("core.census", float64(cen.Insts))
			c["core.census_guest_insts"] += float64(cen.Insts)
			err = chk.digest("fig16|census|"+row.name, censusDigest(cen))
		}
		chk.op("census "+row.name, err)
		for _, series := range row.series {
			span := "core.run." + fig16Short[series]
			t0 := time.Now()
			id := rec.begin(span, top, int32(i))
			var res experiments.RunResult
			err := protect(func() (err error) { res, err = s.Run(row.name, cfgs[series]); return err })
			rec.end(id)
			ps.ops = append(ps.ops, opTime{at: t0, ms: msSince(t0)})
			cal.tick()
			if err == nil {
				rec.work(span, float64(res.Counters.Insts))
				ps.insts += res.Counters.Insts
				addRunCounts(c, res.Counters.Insts, res.Counters.MisalignTraps, res.Counters.Brks, res.Stats)
				err = chk.digest("fig16|"+row.name+"|"+fig16Short[series], runDigest(res.Counters, res.Stats, nil))
			}
			chk.op(fmt.Sprintf("run %s under %s", row.name, series), err)
		}
	}
	id := rec.begin("experiments.figure16", top, -1)
	var fig *experiments.Result
	err := protect(func() (err error) { fig, err = experiments.Figure16(s); return err })
	rec.end(id)
	if err == nil {
		for series, want := range fig16Geomeans {
			if got := fmt.Sprintf("%.4g", fig.Geomean(series)); got != want && err == nil {
				err = fmt.Errorf("geomean %s = %s, recorded %s", series, got, want)
			}
		}
	}
	chk.op("figure16 geomeans", err)
	rec.end(top)
	w.stop(&ps)
	return ps
}

func (f *fig16) extras(*recorder, *checker, metricSet, []passStats) {}

func (f *fig16) close() {}

// pin records the digest of every census and run.
func (f *fig16) pin(chk *checker) { f.pass(nil, chk, nil) }

// addRunCounts adds one engine run to the per-layer work counts every
// workload reports.
func addRunCounts(c map[string]float64, insts, traps, brks uint64, s core.Stats) {
	c["machine.host_insts"] += float64(insts)
	c["machine.misalign_traps"] += float64(traps)
	c["machine.brks"] += float64(brks)
	c["core.interp_insts"] += float64(s.InterpretedInsts)
	c["core.blocks_translated"] += float64(s.BlocksTranslated)
	c["core.patches"] += float64(s.Patches)
	c["core.aot_hits"] += float64(s.AOTHits)
	c["core.aot_fallbacks"] += float64(s.AOTFallbacks)
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

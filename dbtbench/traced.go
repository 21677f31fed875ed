package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"mdabt/internal/aot"
	"mdabt/internal/core"
	"mdabt/internal/guest"
	"mdabt/internal/machine"
	"mdabt/internal/mem"
	"mdabt/internal/workload"
)

// The traced workload runs the 21 selected models under four mechanisms
// with the direct-chaining trace tier on, one fresh engine per run as
// `dbtrun -traces` does. The aot runs adopt an image built offline by
// aot.BuildFromMemory (the AOT-warm path). The models run at half the
// iterations of the fig16 scale so that a run holds several passes.
const (
	tracedShrink    = 40
	tracedIterFloor = 400
	tracedBudget    = 2_000_000_000
)

var tracedMechs = []string{"eh", "dpeh", "direct", "aot"}

// tracedRow is one model and the order of its mechanisms; each engine run
// is one timed operation.
type tracedRow struct {
	name  string
	mechs []string
}

type traced struct {
	rng    *rand.Rand
	names  []string
	gen    []string
	progs  map[string]*workload.Program
	images map[string]*aot.Image
}

// newTraced fixes the run list; the seed shuffles its order.
func newTraced(seed int64) *traced {
	t := &traced{rng: rand.New(rand.NewSource(seed))}
	for _, sp := range workload.SelectedSpecs() {
		t.names = append(t.names, sp.Name)
	}
	t.gen = permuted(t.rng, t.names)
	return t
}

// order draws the next pass's run order; as in fig16, each pass of a run
// takes a new permutation.
func (t *traced) order() []tracedRow {
	var rows []tracedRow
	for _, n := range permuted(t.rng, t.names) {
		rows = append(rows, tracedRow{n, permuted(t.rng, tracedMechs)})
	}
	return rows
}

// setup generates the programs and builds each one's AOT image.
func (t *traced) setup(rec *recorder, chk *checker) error {
	t.progs = map[string]*workload.Program{}
	t.images = map[string]*aot.Image{}
	for _, n := range t.gen {
		p, err := generateModel(rec, n, tracedShrink, tracedIterFloor)
		chk.op("generate "+n, err)
		if err != nil {
			continue
		}
		t.progs[n] = p
		im, err := buildImage(rec, p)
		chk.op("aot build "+n, err)
		t.images[n] = im
	}
	return nil
}

// generateModel generates one benchmark model at a reduced scale.
func generateModel(rec *recorder, name string, shrink float64, iterFloor int) (*workload.Program, error) {
	sp, ok := workload.SpecByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", name)
	}
	sp.IterFloor = iterFloor
	sp.PaperMDAs /= shrink
	id := rec.begin("workload.generate", rec.topID(), -1)
	defer rec.end(id)
	var p *workload.Program
	err := protect(func() (err error) { p, err = workload.Generate(sp); return err })
	return p, err
}

// buildImage runs CFG recovery over the program's ref-input image.
func buildImage(rec *recorder, p *workload.Program) (*aot.Image, error) {
	id := rec.begin("aot.build", rec.topID(), -1)
	defer rec.end(id)
	var im *aot.Image
	err := protect(func() error {
		m := mem.New()
		p.Load(m, workload.Ref)
		im = aot.BuildFromMemory(m, p.Entry())
		return im.Verify()
	})
	return im, err
}

// mechOptions returns the default options of a registry mechanism.
func mechOptions(mech string, traces bool) core.Options {
	id, ok := core.MechanismByName(mech)
	if !ok {
		panic("dbtbench: unknown mechanism " + mech)
	}
	opt := core.DefaultOptions(id)
	opt.Traces = traces
	return opt
}

type engineRun struct {
	c   machine.Counters
	s   core.Stats
	ts  machine.TraceStats
	cpu guest.CPU
}

// runOne executes one model under mech on a fresh engine.
func (t *traced) runOne(name, mech string, traces bool) (engineRun, error) {
	var r engineRun
	err := protect(func() error {
		p := t.progs[name]
		if p == nil {
			return fmt.Errorf("%s was not generated", name)
		}
		opt := mechOptions(mech, traces)
		if mech == "aot" {
			t.images[name].Apply(&opt)
		}
		m := mem.New()
		p.Load(m, workload.Ref)
		mach := machine.New(m, machine.DefaultParams())
		e := core.NewEngine(m, mach, opt)
		if err := e.RunContext(context.Background(), p.Entry(), tracedBudget); err != nil {
			return err
		}
		r = engineRun{mach.Counters(), e.Stats(), e.TraceStats(), e.FinalCPU()}
		return nil
	})
	return r, err
}

// pass runs every (model, mechanism) pair traced and checks each against
// the pinned digest of the same configuration untraced: the trace tier is
// simulation-invisible.
func (t *traced) pass(rec *recorder, chk *checker, cal *calibrator) passStats {
	ps := passStats{counts: map[string]float64{}}
	c := ps.counts
	tracedInsts, insts := map[string]float64{}, map[string]float64{}
	w := startWindow()
	top := rec.begin("bench.pass", -1, -1)
	for i, row := range t.order() {
		for _, mech := range row.mechs {
			span := "core.run.traced." + mech
			t0 := time.Now()
			id := rec.begin(span, top, int32(i))
			res, err := t.runOne(row.name, mech, true)
			rec.end(id)
			ps.ops = append(ps.ops, opTime{at: t0, ms: msSince(t0)})
			cal.tick()
			if err == nil {
				rec.work(span, float64(res.c.Insts))
				ps.insts += res.c.Insts
				addRunCounts(c, res.c.Insts, res.c.MisalignTraps, res.c.Brks, res.s)
				c["machine.traces_formed"] += float64(res.ts.Formed)
				c["machine.trace_invalidations"] += float64(res.ts.Invalidations)
				c["machine.chain_follows"] += float64(res.ts.ChainFollows)
				tracedInsts[mech] += float64(res.ts.TracedInsts)
				insts[mech] += float64(res.c.Insts)
				err = chk.digest(tracedKey(row.name, mech), runDigest(res.c, res.s, &res.cpu))
			}
			chk.op(fmt.Sprintf("traced run %s under %s", row.name, mech), err)
		}
	}
	rec.end(top)
	w.stop(&ps)
	for m, n := range insts {
		c["machine.trace_coverage."+m] = tracedInsts[m] / n
	}
	return ps
}

func tracedKey(name, mech string) string { return "traced|" + name + "|" + mech }

func (t *traced) extras(*recorder, *checker, metricSet, []passStats) {}

func (t *traced) close() {}

// pin records every configuration's digest with the trace tier off.
func (t *traced) pin(chk *checker) {
	for _, row := range t.order() {
		for _, mech := range row.mechs {
			res, err := t.runOne(row.name, mech, false)
			if err == nil {
				err = chk.digest(tracedKey(row.name, mech), runDigest(res.c, res.s, &res.cpu))
			}
			chk.op("pin "+tracedKey(row.name, mech), err)
		}
	}
}

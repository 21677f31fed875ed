package main

import (
	"errors"

	"mdabt/internal/perfbench"
)

// microRows names each perfbench.Suite row's per-layer metrics: its time
// per unit and, for the rows whose allocation count has drifted before,
// its allocations per op.
var microRows = map[string]struct{ ns, allocs string }{
	"mem-read-write":       {"mem.ns_per_access", ""},
	"guest-exec":           {"guest.exec_ns_per_guest_inst", ""},
	"interp-block":         {"core.interp_ns_per_guest_inst", ""},
	"dispatch-loop":        {"machine.dispatch_ns_per_guest_inst", "machine.dispatch_allocs_per_op"},
	"dispatch-loop-traced": {"machine.traced_ns_per_guest_inst", ""},
	"end-to-end-dpeh":      {"core.dpeh_cold_ns_per_guest_inst", "core.dpeh_cold_allocs_per_op"},
}

// runMicro runs the perfbench suite through perfbench.Collect, the method
// behind BENCH_2.json and BENCH_3.json, so the micro metrics compare with
// those files, and reports each row under its metric names.
func runMicro(rec *recorder, chk *checker, m metricSet) {
	id := rec.begin("perfbench.collect", -1, -1)
	var sum *perfbench.Summary
	err := protect(func() (err error) { sum, err = perfbench.Collect(""); return err })
	rec.end(id)
	chk.op("perfbench.Collect", err)
	if err != nil {
		return
	}
	for _, r := range sum.Results {
		row, ok := microRows[r.Name]
		if !ok {
			chk.fail("micro row "+r.Name, errors.New("perfbench row has no metric name"))
			continue
		}
		m.set(row.ns, r.NsPerUnit)
		if row.allocs != "" {
			m.set(row.allocs, float64(r.AllocsPerOp))
		}
	}
}

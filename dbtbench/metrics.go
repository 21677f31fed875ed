package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// layers.json is the benchmark's definition: each workload's reason and
// the layers it loads and bypasses, every end-to-end metric with its
// regression bound, and every per-layer metric with the end-to-end metric
// and workload it should move. BENCHMARK.json is derived from it
// (`dbtbench --benchmark-json`); the harness refuses to emit any name it
// does not list.
//
//go:embed layers.json
var layersJSON []byte

// specMetric and specWorkload hold the layers.json fields the harness
// reads; the rest (what, layer, moves, runs, loads, bypasses) is
// documentation for readers.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Exact marks a count that must repeat exactly between runs of one seed.
	Exact bool `json:"exact,omitempty"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

var spec = func() benchSpec {
	var s benchSpec
	if err := json.Unmarshal(layersJSON, &s); err != nil {
		panic("dbtbench: layers.json: " + err.Error())
	}
	return s
}()

// metricSet holds one run's metric values; set refuses names the spec
// does not list for the run's mode.
type metricSet = *metricTable

type metricTable struct {
	order  []string
	units  map[string]string
	values map[string]float64
	notes  []string
}

// newMetricSet lists the end-to-end metrics (untraced run) or the
// per-layer ones (traced run). Per-layer metrics start at zero: a layer a
// workload bypasses reads 0.
func newMetricSet(traced bool) metricSet {
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	m := &metricTable{units: map[string]string{}, values: map[string]float64{}}
	for _, s := range list {
		m.order = append(m.order, s.Name)
		m.units[s.Name] = s.Unit
		if traced {
			m.values[s.Name] = 0
		}
	}
	return m
}

func (m *metricTable) set(name string, v float64) {
	if _, ok := m.units[name]; !ok {
		panic("dbtbench: metric " + name + " is not defined in layers.json")
	}
	m.values[name] = v
}

// note adds a line to the human-readable report (not to the JSON result).
func (m *metricTable) note(what string, v float64) {
	m.notes = append(m.notes, fmt.Sprintf("%s: %g", what, v))
}

// complete reports any listed metric the run did not measure.
func (m *metricTable) complete() error {
	for _, n := range m.order {
		if _, ok := m.values[n]; !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
	}
	return nil
}

// print writes the human-readable report: every metric with its unit,
// the error rate, and the run's notes.
func (m *metricTable) print(w io.Writer, chk *checker) {
	for _, n := range m.order {
		fmt.Fprintf(w, "%-44s %16.6g %s\n", n, m.values[n], m.units[n])
	}
	rate := 0.0
	if chk.attempted > 0 {
		rate = float64(chk.failed) / float64(chk.attempted)
	}
	fmt.Fprintf(w, "%-44s %16.6g ratio (%d of %d operations failed)\n", "error_rate", rate, chk.failed, chk.attempted)
	for _, n := range m.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
}

// exactNames lists the per-layer counts that must repeat exactly.
func exactNames() []string {
	var out []string
	for _, s := range spec.PerLayer {
		if s.Exact {
			out = append(out, s.Name)
		}
	}
	sort.Strings(out)
	return out
}

// printBenchmarkJSON writes BENCHMARK.json: the subset of layers.json
// that describes how to run the benchmark and which metrics it reports.
func printBenchmarkJSON(w io.Writer) error {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var f struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []specWorkload `json:"workloads"`
		EndToEnd   []e2e          `json:"end_to_end"`
		PerLayer   []layer        `json:"per_layer"`
	}
	f.Command, f.Paths, f.RunSeconds, f.Workloads = spec.Command, spec.Paths, spec.RunSeconds, spec.Workloads
	for _, x := range spec.EndToEnd {
		f.EndToEnd = append(f.EndToEnd, e2e{x.Name, x.Unit, x.Better, x.Bound})
	}
	for _, x := range spec.PerLayer {
		f.PerLayer = append(f.PerLayer, layer{x.Name, x.Unit, x.Better})
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

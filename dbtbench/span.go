package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Names are "<layer>.<call>[.<detail>]"
// so the layer is the first dot-separated element.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the enclosing span, -1 for a root
	Req    int32  `json:"req"`    // request id, -1 outside per-request work
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory for the whole run; they are written out
// only when the run ends. A nil recorder records nothing, which is how the
// untraced runs that give the end-to-end metrics execute.
type recorder struct {
	t0    time.Time
	top   int32 // parent of set-up spans
	mu    sync.Mutex
	spans []span
	units map[string]float64 // work units (instructions) done under each span name
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), top: -1, units: map[string]float64{}}
}

// topID returns the span set-up work nests under (-1 on a nil recorder).
func (r *recorder) topID() int32 {
	if r == nil {
		return -1
	}
	return r.top
}

// work credits n units of work to the spans named name, so their time can
// be reported per unit.
func (r *recorder) work(name string, n float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.units[name] += n
	r.mu.Unlock()
}

// perUnit returns the time (ns) of the spans named name per unit of work
// credited to them, 0 when none was.
func (r *recorder) perUnit(name string) float64 {
	if r.units[name] == 0 {
		return 0
	}
	return r.total(name) / r.units[name]
}

// begin opens a span and returns its id (-1 on a nil recorder).
func (r *recorder) begin(name string, parent, req int32) int32 {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{Name: name, Start: now, End: now, Parent: parent, Req: req})
	r.mu.Unlock()
	return id
}

// end closes the span id.
func (r *recorder) end(id int32) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// durations returns the durations (ns) of every span named name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// total returns the summed duration (ns) of every span named name.
func (r *recorder) total(name string) float64 {
	var t float64
	for _, d := range r.durations(name) {
		t += d
	}
	return t
}

// selfByLayer returns each layer's self time in ns: every span's duration
// minus the part of its interval that its child spans cover (children of
// one parent may overlap when clients run concurrently), summed per layer.
func (r *recorder) selfByLayer() map[string]float64 {
	children := make(map[int32][][2]int64)
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]float64)
	for i, s := range r.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += float64(s.dur() - covered(children[int32(i)]))
	}
	return out
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var n int64
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			n += hi - lo
			lo, hi = x[0], x[1]
		} else if x[1] > hi {
			hi = x[1]
		}
	}
	return n + hi - lo
}

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

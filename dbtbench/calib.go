package main

import (
	"sort"
	"sync"
	"time"
)

// The host the benchmark runs on is shared: its speed drifts by a fifth to
// a third over minutes, and within a pass it has stretches of half a
// second or more in which every operation runs 1.3-1.6 times slower. No
// statistic over one run's passes removes either. So the untraced run
// interleaves a short calibration loop with the workload's operations and
// reports every time at the reference host speed: scaled by calibRef over
// the median duration of the calibration loops run around it.

// calibTable is the memory the calibration program loads from. With the
// program it fits a core's own caches, so how much of them the workload's
// operations evicted barely moves a loop's duration.
var calibTable = func() []uint32 {
	t := make([]uint32, 1<<14)
	for i := range t {
		t[i] = uint32(i) * 2654435761
	}
	return t
}()

var calibSink uint64

const (
	// calibIters is one calibration loop's length in instructions.
	calibIters = 250_000
	// calibRef is one calibration loop's duration at the reference host
	// speed: about its median, run between the workloads' operations, on
	// the 2-vCPU shared host the benchmark was defined on.
	calibRef = 2500 * time.Microsecond
	// calibPeriod is how often tick runs a loop, so calibration takes
	// about a tenth of the timed phase.
	calibPeriod = 25 * time.Millisecond
	// calibNear is how many loops nearest in time to an operation set the
	// operation's scale.
	calibNear = 16
)

// calibOp is one instruction of the calibration program: an opcode, two
// of its 16 registers and an immediate.
type calibOp struct {
	op, a, b uint8
	imm      uint32
}

// calibProg is the calibration program: 4096 instructions drawn from a
// fixed xorshift sequence.
var calibProg = func() []calibOp {
	x := uint32(2463534242)
	p := make([]calibOp, 4096)
	for i := range p {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		p[i] = calibOp{uint8(x % 8), uint8(x>>3) % 16, uint8(x>>7) % 16, x >> 11}
	}
	return p
}()

// calibrate interprets calibIters instructions of calibProg, none of it
// repository code, and returns how long it took: a switch-dispatched
// interpreter loop with register operands, table loads and data-dependent
// forward branches, the shape of the simulator's own dispatch loops. A
// change to the simulator cannot move it; a change in the host's speed
// (other tenants on the shared cores and caches) moves it as it moves the
// workloads. Over four traced runs whose median pass wall spread 0.137 of
// its median, the wall counted in these loops (over a 4 MiB table) spread
// 0.034, and counted in loops of dependent loads over the same table,
// 0.112.
func calibrate() time.Duration {
	t0 := time.Now()
	var r [16]uint32
	for i := range r {
		r[i] = uint32(i) * 7919
	}
	pc := 0
	for n := 0; n < calibIters; n++ {
		in := &calibProg[pc]
		pc++
		switch in.op {
		case 0:
			r[in.a] += r[in.b] + in.imm
		case 1:
			r[in.a] ^= r[in.b] << (in.imm & 7)
		case 2:
			r[in.a] = calibTable[(r[in.b]+in.imm)&uint32(len(calibTable)-1)]
		case 3:
			r[in.a] = r[in.b]*in.imm | 1
		case 4:
			r[in.a] -= r[in.b] >> 3
		case 5:
			if r[in.a]&1 != 0 {
				pc += int(in.imm % 8)
			}
		case 6:
			r[in.a] = r[in.a]<<1 | r[in.a]>>31
		default:
			r[in.a] &= r[in.b] | in.imm
		}
		if pc >= len(calibProg) {
			pc = 0
		}
	}
	calibSink += uint64(r[0] + r[5])
	return time.Since(t0)
}

// calibLoop is one calibration loop: when it ran and how long it took.
type calibLoop struct {
	start time.Time
	d     time.Duration
}

// calibrator records the calibration loops of one run. A nil calibrator
// (traced runs, pinning) does nothing. It is safe for concurrent use.
type calibrator struct {
	mu    sync.Mutex
	last  time.Time
	loops []calibLoop
}

// tick runs a calibration loop if calibPeriod has passed since the last
// one. Workloads call it between operations, outside any operation's
// timing; of concurrent callers only one runs the loop.
func (c *calibrator) tick() {
	if c == nil {
		return
	}
	c.mu.Lock()
	due := time.Since(c.last) >= calibPeriod
	if due {
		c.last = time.Now()
	}
	c.mu.Unlock()
	if due {
		c.run(1)
	}
}

// run runs n calibration loops.
func (c *calibrator) run(n int) {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		d := calibrate()
		c.mu.Lock()
		c.loops = append(c.loops, calibLoop{t0, d})
		c.last = time.Now()
		c.mu.Unlock()
	}
}

// sorted returns the loops in the order they started.
func (c *calibrator) sorted() []calibLoop {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]calibLoop(nil), c.loops...)
	sort.Slice(out, func(i, j int) bool { return out[i].start.Before(out[j].start) })
	return out
}

// within returns the time spent in calibration loops that started in
// [from, to) and the median duration of those loops.
func within(loops []calibLoop, from, to time.Time) (total, med time.Duration) {
	var ds []float64
	for _, l := range loops {
		if !l.start.Before(from) && l.start.Before(to) {
			total += l.d
			ds = append(ds, float64(l.d))
		}
	}
	return total, time.Duration(median(ds))
}

// scaleAt is the factor that takes a time measured around at to the
// reference host speed: calibRef over the median of the calibNear loops
// nearest to at.
func scaleAt(loops []calibLoop, at time.Time) float64 {
	i := sort.Search(len(loops), func(i int) bool { return !loops[i].start.Before(at) })
	lo, hi := i, i // the nearest loops are loops[lo:hi]
	for hi-lo < calibNear && (lo > 0 || hi < len(loops)) {
		if hi == len(loops) || lo > 0 && at.Sub(loops[lo-1].start) < loops[hi].start.Sub(at) {
			lo--
		} else {
			hi++
		}
	}
	var ds []float64
	for _, l := range loops[lo:hi] {
		ds = append(ds, float64(l.d))
	}
	return float64(calibRef) / median(ds)
}

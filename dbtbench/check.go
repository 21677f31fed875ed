package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"

	"mdabt/internal/core"
	"mdabt/internal/guest"
	"mdabt/internal/machine"
)

// golden.json pins, per (workload, program, configuration), a digest of
// the simulated counters and final guest registers taken at the commit
// that defined the benchmark. Simulated results must never move, so any
// difference is a failed operation. `dbtbench --pin` regenerates it.
//
//go:embed golden.json
var goldenJSON []byte

var golden = func() map[string]string {
	g := map[string]string{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic("dbtbench: golden.json: " + err.Error())
	}
	return g
}()

// checker counts operations and failed operations. An operation fails
// when it returns an unexpected error, panics, or breaks a correctness
// check.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	logged    int
	pinned    map[string]string
	record    map[string]string // non-nil in pin mode: digests are recorded, not compared
}

func newChecker(pinned map[string]string) *checker { return &checker{pinned: pinned} }

// op records one operation; a non-nil err marks it failed.
func (c *checker) op(label string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err == nil {
		return
	}
	c.failed++
	if c.logged < 20 {
		c.logged++
		fmt.Fprintf(os.Stderr, "dbtbench: FAILED %s: %v\n", label, err)
	}
}

// fail records one failed operation.
func (c *checker) fail(label string, err error) {
	if err == nil {
		err = errors.New("failed")
	}
	c.op(label, err)
}

// digest compares got against the pinned digest for key (or records it in
// pin mode).
func (c *checker) digest(key, got string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.record != nil {
		if prev, ok := c.record[key]; ok && prev != got {
			return fmt.Errorf("%s: digest %s differs from an earlier run's %s", key, got, prev)
		}
		c.record[key] = got
		return nil
	}
	want, ok := c.pinned[key]
	if !ok {
		return fmt.Errorf("%s: no pinned digest", key)
	}
	if got != want {
		return fmt.Errorf("%s: simulated result digest %s, pinned %s", key, got, want)
	}
	return nil
}

// protect runs fn, turning a panic into an error.
func protect(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}

// runDigest hashes the simulated outcome of one engine run: every machine
// counter, the translator's core event counts and, when given, the final
// guest registers. The trace-tier counts are left out because they are
// host-side telemetry, not simulated state: a traced run must match the
// digest of the same configuration untraced. On a fresh engine they are
// deterministic, so the harness gates them as exact counts instead.
func runDigest(c machine.Counters, s core.Stats, cpu *guest.CPU) string {
	h := sha256.New()
	fmt.Fprintf(h, "cyc=%d insts=%d ld=%d st=%d mis=%d acc=%d brk=%d trapcyc=%d|",
		c.Cycles, c.Insts, c.Loads, c.Stores, c.MisalignTraps, c.AccessFaults, c.Brks, c.TrapCycles)
	fmt.Fprintf(h, "xl=%d interp=%d patch=%d stubs=%d native=%d aothit=%d aotfb=%d|",
		s.BlocksTranslated, s.InterpretedInsts, s.Patches, s.MDAStubs, s.NativeBlockRuns, s.AOTHits, s.AOTFallbacks)
	if cpu != nil {
		fmt.Fprintf(h, "r=%x f=%x", cpu.R, cpu.F)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// censusDigest hashes a reference-interpreter census.
func censusDigest(c *core.Census) string {
	h := sha256.New()
	fmt.Fprintf(h, "insts=%d refs=%d mdas=%d halted=%v sites=%d r=%x f=%x",
		c.Insts, c.MemRefs, c.MDAs, c.Halted, len(c.Sites), c.FinalCPU.R, c.FinalCPU.F)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// pinAll runs every workload's full configuration set once, untraced, and
// writes the digests to path.
func pinAll(path, out string) error {
	chk := newChecker(nil)
	chk.record = map[string]string{}
	for _, name := range []string{"fig16", "traced", "serve"} {
		b, err := newBench(name, 1, out+"/tmp")
		if err != nil {
			return err
		}
		if err := b.setup(nil, chk); err != nil {
			return err
		}
		b.pin(chk)
		b.close()
	}
	if chk.failed > 0 {
		return fmt.Errorf("%d operations failed while pinning", chk.failed)
	}
	data, err := json.MarshalIndent(chk.record, "", " ")
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "dbtbench: pinned %d digests\n", len(chk.record))
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

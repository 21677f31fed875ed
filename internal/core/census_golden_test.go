package core

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"mdabt/internal/guest"
	"mdabt/internal/mem"
	"mdabt/internal/workload"
)

// censusGoldenPath pins the reference interpreter's census, one line per
// program: every selected benchmark model on both inputs and every guest
// fault program. Each line carries the counts, the halt and fault identity
// (PC, address, write) and a digest of the per-site profile and the final
// CPU, so any change to what the interpreter executes or counts shows.
const censusGoldenPath = "testdata/census_golden.txt"

// The models are generated at 1/censusGoldenShrink of their MDA target with
// an iteration floor of censusGoldenIterFloor: every model still runs its
// whole code (flips, gated groups, shared-library calls) on both inputs,
// and the suite stays around a second.
const (
	censusGoldenShrink    = 2000
	censusGoldenIterFloor = 200
)

// censusGoldenLines runs every pinned census and renders its line.
func censusGoldenLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, sp := range workload.SelectedSpecs() {
		sp.PaperMDAs /= censusGoldenShrink
		sp.IterFloor = censusGoldenIterFloor
		p, err := workload.Generate(sp)
		if err != nil {
			t.Fatalf("generate %s: %v", sp.Name, err)
		}
		for _, in := range []workload.Input{workload.Train, workload.Ref} {
			m := mem.New()
			p.Load(m, in)
			c, err := RunCensus(m, p.Entry(), 100_000_000)
			lines = append(lines, censusGoldenLine(t, sp.Name+"/"+in.String(), c, err))
		}
	}
	progs, err := workload.FaultPrograms()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range progs {
		m := mem.New()
		p.Load(m)
		c, err := RunCensus(m, p.Entry(), 50_000_000)
		lines = append(lines, censusGoldenLine(t, p.Name, c, err))
	}
	return lines
}

func censusGoldenLine(t *testing.T, name string, c *Census, err error) string {
	t.Helper()
	fault := "none"
	if err != nil {
		var gf *guest.Fault
		if !errors.As(err, &gf) {
			t.Fatalf("census %s: %v", name, err)
		}
		fault = fmt.Sprintf("pc=%#x addr=%#x write=%v", gf.PC, gf.Mem.Addr, gf.Mem.Write)
	}
	h := sha256.New()
	for _, s := range c.Sites {
		fmt.Fprintf(h, "%#x:%d:%d;", s.PC, s.MDA, s.Aligned)
	}
	fmt.Fprintf(h, "|%+v", c.FinalCPU)
	return fmt.Sprintf("%s insts=%d refs=%d mdas=%d sites=%d halted=%v fault=%s digest=%s",
		name, c.Insts, c.MemRefs, c.MDAs, len(c.Sites), c.Halted, fault, hex.EncodeToString(h.Sum(nil))[:16])
}

// TestCensusGolden checks every pinned census against the golden file.
func TestCensusGolden(t *testing.T) {
	raw, err := os.ReadFile(censusGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	got := censusGoldenLines(t)
	if len(got) != len(want) {
		t.Fatalf("%d census lines, %s has %d", len(got), censusGoldenPath, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s line %d:\n got: %s\nwant: %s", censusGoldenPath, i+1, got[i], want[i])
		}
	}
}

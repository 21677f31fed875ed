package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestMain lets the tests run this package's main as a subprocess: the test
// binary re-executes itself with DBTRUN_TEST_MAIN=1 and dbtrun's arguments.
func TestMain(m *testing.M) {
	if os.Getenv("DBTRUN_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

var trapsRE = regexp.MustCompile(`(?m)^misalign traps:\s+(\d+) `)

// dbtrun runs the command with args and returns the reported trap count.
func dbtrun(t *testing.T, args ...string) (traps int, out string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DBTRUN_TEST_MAIN=1")
	raw, err := cmd.CombinedOutput()
	out = string(raw)
	if err != nil {
		t.Fatalf("dbtrun %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	if m := trapsRE.FindStringSubmatch(out); m != nil {
		traps, _ = strconv.Atoi(m[1])
	} else {
		traps = -1
	}
	return traps, out
}

// TestProfileSmoke runs the README's sum.gasm flows: a training run's
// profile file and a store warmed by one cold run each leave a later SPEH
// run with no misalignment traps.
func TestProfileSmoke(t *testing.T) {
	const prog = "testdata/sum.gasm"
	dir := t.TempDir()

	prof := filepath.Join(dir, "sum.prof")
	if _, out := dbtrun(t, "-profile-out", prof, prog); !strings.Contains(out, ": 1 MDA sites profiled") {
		t.Fatalf("-profile-out: %s", out)
	}
	if traps, out := dbtrun(t, "-mech", "speh", "-profile-in", prof, prog); traps != 0 {
		t.Fatalf("speh -profile-in: %d traps, want 0\n%s", traps, out)
	}

	st := filepath.Join(dir, "store")
	if traps, out := dbtrun(t, "-mech", "speh", "-store", st, prog); traps <= 0 {
		t.Fatalf("cold speh -store run: %d traps, want the site discovered by trapping\n%s", traps, out)
	}
	if traps, out := dbtrun(t, "-mech", "speh", "-store", st, prog); traps != 0 {
		t.Fatalf("warm speh -store run: %d traps, want 0\n%s", traps, out)
	}
}

// TestUnknownInputFails: a misspelled -input is an error naming the valid
// input sets, not a silent run of the ref input.
func TestUnknownInputFails(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-bench", "429.mcf", "-input", "trian")
	cmd.Env = append(os.Environ(), "DBTRUN_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("dbtrun -input trian succeeded:\n%s", out)
	}
	if !strings.Contains(string(out), `unknown input "trian" (have train, ref)`) {
		t.Fatalf("dbtrun -input trian: error does not name the valid inputs:\n%s", out)
	}
}

// TestTracesFlagIgnored: -traces stays accepted for existing scripts but
// changes nothing — every run executes on the trace tier, so the output
// with -traces=false, trace-tier line included, equals the default's.
func TestTracesFlagIgnored(t *testing.T) {
	const prog = "testdata/sum.gasm"
	_, def := dbtrun(t, "-mech", "dpeh", prog)
	_, off := dbtrun(t, "-mech", "dpeh", "-traces=false", prog)
	if off != def {
		t.Fatalf("-traces=false output differs from the default:\n%s\nvs\n%s", off, def)
	}
	if !strings.Contains(def, "trace tier:") {
		t.Fatalf("no trace-tier line:\n%s", def)
	}
}

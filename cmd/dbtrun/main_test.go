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

// TestBenchStoreWarm runs the benchmark store paths: a cold -store run
// trains the static profile or builds the AOT image and saves it, and a
// second run on the same directory loads every artifact from the store
// and prints the same results.
func TestBenchStoreWarm(t *testing.T) {
	storeRE := regexp.MustCompile(`(?m)^store:\s+hits=(\d+) misses=(\d+) .*\n`)
	for _, mech := range []string{"static", "aot"} {
		st := filepath.Join(t.TempDir(), "store")
		args := []string{"-store", st, "-bench", "470.lbm", "-mech", mech}
		_, cold := dbtrun(t, args...)
		_, warm := dbtrun(t, args...)
		m := storeRE.FindStringSubmatch(warm)
		if m == nil {
			t.Fatalf("%s: warm run printed no store line:\n%s", mech, warm)
		}
		if m[1] == "0" || m[2] != "0" {
			t.Errorf("%s: warm run hits=%s misses=%s, want every load a hit", mech, m[1], m[2])
		}
		if c, w := storeRE.ReplaceAllString(cold, ""), storeRE.ReplaceAllString(warm, ""); c != w {
			t.Errorf("%s: warm output differs from cold beyond the store line:\n%s\nvs\n%s", mech, c, w)
		}
	}
}

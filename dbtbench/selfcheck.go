package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// runSelfcheck is the determinism self-check. It runs the traced
// workload as a child process twice at seed and once at seed+1, and
// compares every per-layer count layers.json marks exact: simulated
// counters, trace coverage, store hits and misses of the timed phase,
// blocks translated per request. Counts that differ between the two
// same-seed runs are named and fail the check; the second seed's column
// shows which counts the seed moves.
func runSelfcheck(wl string, seed int64, seconds int, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	seeds := []int64{seed, seed, seed + 1}
	var res []output
	for _, s := range seeds {
		cmd := exec.Command(exe, "--workload", wl, "--seed", fmt.Sprint(s),
			"--seconds", fmt.Sprint(seconds), "--trace", "1", "--out", out)
		cmd.Stderr = os.Stderr
		data, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("traced run at seed %d: %w", s, err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		var o output
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &o); err != nil {
			return fmt.Errorf("traced run at seed %d: result line: %w", s, err)
		}
		res = append(res, o)
	}
	fmt.Printf("%-36s %20s %20s %20s\n", "exact count ("+wl+")",
		fmt.Sprintf("seed %d", seed), fmt.Sprintf("seed %d again", seed), fmt.Sprintf("seed %d", seed+1))
	var bad []string
	for _, n := range exactNames() {
		a, b, c := res[0].Metrics[n].Value, res[1].Metrics[n].Value, res[2].Metrics[n].Value
		mark := ""
		if a != b {
			mark = "  NOT REPEATED"
			bad = append(bad, n)
		}
		fmt.Printf("%-36s %20.10g %20.10g %20.10g%s\n", n, a, b, c, mark)
	}
	for i, o := range res {
		if !o.Correct {
			bad = append(bad, fmt.Sprintf("run %d (seed %d) failed %d of %d operations", i, seeds[i], o.Failed, o.Attempted))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("determinism self-check failed: %s", strings.Join(bad, ", "))
	}
	fmt.Println("determinism self-check: every exact count repeated")
	return nil
}

package core

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"mdabt/internal/align"
	"mdabt/internal/policy"
)

// TestPolicyDecisionTable pins every decision the engine's MDA policy can
// make: for every mechanism × every combination of the §IV extensions
// (MultiVersion, Adaptive, Retranslate, Rearrange, StaticAlign) that
// Validate accepts, the site policy over the whole SiteCtx grid and the
// trap action for BlockTraps 1–5. The golden file was generated from the
// decorator-chain implementation the mechanism table replaced, so it proves
// the table and the Policy value decide exactly as the chain did.
// Regenerate (only for an intended decision change) with
//
//	go test ./internal/core -run TestPolicyDecisionTable -update_policy
var updatePolicy = flag.Bool("update_policy", false,
	"rewrite testdata/policy_golden.txt from the current implementation")

const policyGoldenPath = "testdata/policy_golden.txt"

// policySiteGrid is the site side of the table, in golden-column order:
// StaticMarked × KnownMDA × ProfMDA × ProfAligned × Reverted × verdict,
// the last varying fastest. The profile counts straddle the multi-version
// band edges (5/104 < 0.05, 99/104 > 0.95).
func policySiteGrid() []policy.SiteCtx {
	counts := []uint64{0, 1, 5, 99}
	var grid []policy.SiteCtx
	for _, marked := range []bool{false, true} {
		for _, known := range []bool{false, true} {
			for _, mda := range counts {
				for _, aligned := range counts {
					for _, rev := range []bool{false, true} {
						for _, v := range []align.Verdict{align.Unknown, align.Aligned, align.Misaligned} {
							grid = append(grid, policy.SiteCtx{
								GuestPC: 0x1000, StaticMarked: marked, KnownMDA: known,
								ProfMDA: mda, ProfAligned: aligned, Reverted: rev, AlignVerdict: v,
							})
						}
					}
				}
			}
		}
	}
	return grid
}

// policyTableLines renders one golden line per accepted configuration. Site
// columns are p(lain), s(eq), m(ixed), a(daptive); trap columns f(ixup),
// p(atch), t (retranslate), r(earrange).
func policyTableLines() []string {
	grid := policySiteGrid()
	trapRow := func(trap func(policy.TrapCtx) policy.Action) string {
		var sb strings.Builder
		for n := 1; n <= 5; n++ {
			sb.WriteByte("fptr"[trap(policy.TrapCtx{GuestPC: 0x1000, BlockPC: 0x0ff0, BlockTraps: n})])
		}
		return sb.String()
	}
	exts := []string{"mv", "adaptive", "retrans", "rearrange", "align"}
	var lines []string
	seen := map[string]bool{}
	for _, m := range Mechanisms() {
		for mask := 0; mask < 1<<len(exts); mask++ {
			o := DefaultOptions(m)
			o.MultiVersion = mask&1 != 0
			o.Adaptive = mask&2 != 0
			o.Retranslate = mask&4 != 0
			o.Rearrange = mask&8 != 0
			o.StaticAlign = mask&16 != 0
			if o.Validate() != nil {
				continue
			}
			o.Normalize()
			name := m.String()
			for i, on := range []bool{o.MultiVersion, o.Adaptive, o.Retranslate, o.Rearrange, o.StaticAlign} {
				if on {
					name += "+" + exts[i]
				}
			}
			if seen[name] {
				continue // the aot mechanism forces StaticAlign on
			}
			seen[name] = true
			p := o.newPolicy()
			var sites strings.Builder
			for _, c := range grid {
				sites.WriteByte("psma"[p.Site(c)])
			}
			traps := trapRow(p.Trap)
			if o.Retranslate {
				// Thresholds at or below one retranslate on the first trap.
				for _, th := range []int{2, -1} {
					o.RetransThreshold = th
					q := o.newPolicy()
					traps += "/" + trapRow(q.Trap)
				}
			}
			lines = append(lines, fmt.Sprintf("%s interp=%v static=%v heat=%d trap=%s site=%s",
				name, p.Interp, p.Static, o.HeatThreshold, traps, sites.String()))
		}
	}
	return lines
}

func TestPolicyDecisionTable(t *testing.T) {
	got := strings.Join(policyTableLines(), "\n") + "\n"
	if *updatePolicy {
		if err := os.WriteFile(policyGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d policy configurations", strings.Count(got, "\n"))
		return
	}
	want, err := os.ReadFile(policyGoldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update_policy)", err)
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	if len(wl) != len(gl) {
		t.Errorf("%d configurations, golden has %d", len(gl)-1, len(wl)-1)
	}
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			t.Errorf("configuration %d differs:\n got  %s\n want %s", i, gl[i], wl[i])
		}
	}
}

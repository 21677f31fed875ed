// Command mdaeval regenerates the paper's tables and figures on the
// simulated Alpha host.
//
// Usage:
//
//	mdaeval [-exp table1,fig16] [-quick] [-par N] [-budget N]
//
// With no -exp flag every experiment runs in paper order. -quick shrinks
// the workloads (~10x) for a fast sanity pass; the full run regenerates the
// scaled experiments exactly as reported in EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mdabt/internal/experiments"
	"mdabt/internal/profiling"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment IDs (table1, fig1, fig10..fig16, table3, table4, speh, aot, faults, ...) or 'all'")
	quick := flag.Bool("quick", false, "shrink workloads ~10x for a fast pass")
	par := flag.Int("par", 0, "max concurrent benchmark runs (0 = NumCPU)")
	budget := flag.Uint64("budget", 0, "per-run host-instruction budget (0 = default)")
	csvDir := flag.String("csv", "", "also write each result as CSV into this directory")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	sitehist := flag.Bool("sitehist", false, "shorthand for -exp sitehist (per-benchmark alignment verdict histogram)")
	flag.Parse()
	if *sitehist {
		*exp = "sitehist"
	}

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mdaeval: %v\n", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(os.Stderr, "mdaeval: %v\n", err)
		}
	}()

	s := experiments.NewSession()
	s.Parallelism = *par
	if *quick {
		s.Shrink = 10
		s.IterFloor = 1500
	}
	if *budget > 0 {
		s.Budget = *budget
	}

	var ids []string
	if *exp == "all" {
		for _, e := range experiments.Registry() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*exp, ",")
	}

	for _, id := range ids {
		id = strings.TrimSpace(id)
		run, ok := experiments.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "mdaeval: unknown experiment %q (have %s)\n",
				id, strings.Join(allIDs(), ", "))
			os.Exit(2)
		}
		start := time.Now()
		r, err := run(s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mdaeval: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println(r.Render())
		fmt.Printf("(%s took %.1fs)\n\n", id, time.Since(start).Seconds())
		if *csvDir != "" {
			path := fmt.Sprintf("%s/%s.csv", *csvDir, id)
			if err := os.WriteFile(path, []byte(r.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "mdaeval: %v\n", err)
				os.Exit(1)
			}
		}
	}
}

func allIDs() []string {
	var ids []string
	for _, e := range experiments.Registry() {
		ids = append(ids, e.ID)
	}
	return ids
}

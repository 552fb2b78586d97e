// Command chaos runs the deterministic stress engine against the clipping
// pipeline: generated adversarial workloads, optional fault injection into
// the pipeline's guard sites, and metamorphic invariant checking over the
// results. Exit status 0 means the robustness contract held for every
// case; 1 means at least one violation (details on stderr).
//
// Usage:
//
//	chaos -seed 1 -cases 200                  # clean invariant sweep
//	chaos -seed 1 -cases 200 -faults          # with injected panics/corruption
//	chaos -seed 1 -cases 200 -faults -budget 2s  # plus deadlines and hangs
//	chaos -seed 7 -cases 300 -family degenerate  # Foster–Overfelt degeneracy taxonomy only
//	chaos -seed 5 -cases 120 -family tiles       # pyramid tiling partition invariants only
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"polyclip/internal/chaos"
)

func main() {
	seed := flag.Int64("seed", 1, "run seed (same seed, same run)")
	cases := flag.Int("cases", 100, "number of generated workloads")
	family := flag.String("family", "", "restrict workloads to one family group (adversarial, degenerate, tiles) or one family name; empty = all")
	faults := flag.Bool("faults", false, "inject one fault per case (panics, hangs, result corruption)")
	budget := flag.Duration("budget", 0, "per-clip deadline (0 = none); enables hang faults with -faults")
	threads := flag.Int("threads", 0, "clip parallelism (0 = 4, not the CPU count, so that a one-core host still forks)")
	reltol := flag.Float64("reltol", 0, "relative area tolerance (0 = default 1e-6)")
	verbose := flag.Bool("v", false, "log each failure as it happens")
	flag.Parse()

	cfg := chaos.Config{
		Seed:    *seed,
		Cases:   *cases,
		Family:  *family,
		Threads: *threads,
		Faults:  *faults,
		Budget:  *budget,
		RelTol:  *reltol,
	}
	if *verbose {
		cfg.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	start := time.Now()
	rep := chaos.Run(cfg)
	fmt.Printf("%s\n  wall: %v\n", rep.Summary(), time.Since(start).Round(time.Millisecond))

	if rep.Failed() {
		for _, f := range rep.Failures {
			fmt.Fprintf(os.Stderr, "FAIL case %d [%s] %s: %s\n", f.Case, f.Workload, f.Invariant, f.Detail)
		}
		if n := len(rep.Failures); n < rep.InvariantFailures+rep.Crashes+rep.UnstructuredErrors {
			fmt.Fprintf(os.Stderr, "(failure list truncated at %d records)\n", n)
		}
		os.Exit(1)
	}
}

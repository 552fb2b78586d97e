// Command bench regenerates the paper's tables and figures. Each experiment
// prints the same rows/series the paper reports (see DESIGN.md for the
// per-experiment index and EXPERIMENTS.md for paper-vs-measured results).
//
// Usage:
//
//	bench -exp all                 # run everything at default scale
//	bench -exp fig10 -scale 0.01   # one experiment at a chosen data scale
//	bench -exp table1,table2,pram
//
// Experiments: table1 table2 table3 fig7 fig8 fig9 fig10 fig11 fig12 pram
// ablations resilience. With -json each experiment is emitted as one JSON
// object per line ({name, rows, counters}); the resilience experiment's
// counters are the aggregated Stats.Resilience totals, so a perf trajectory
// recorded from this output also tracks degradation frequency.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"polyclip/internal/harness"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiments, or 'all'")
	scale := flag.Float64("scale", 0.005, "dataset scale for Table III workloads (1.0 = full paper size)")
	seed := flag.Int64("seed", 42, "random seed")
	threads := flag.String("threads", "1,2,4,8,16,32,64", "thread counts for scaling experiments")
	asJSON := flag.Bool("json", false, "emit one JSON object per experiment instead of formatted text")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after the experiments) to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	var ts []int
	for _, f := range strings.Split(*threads, ",") {
		var v int
		if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &v); err == nil && v > 0 {
			ts = append(ts, v)
		}
	}
	if len(ts) == 0 {
		ts = []int{1, 2, 4, 8}
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	enc := json.NewEncoder(os.Stdout)
	run := func(name string, fn func() harness.Result) {
		if !all && !want[name] {
			return
		}
		r := fn()
		if *asJSON {
			if err := enc.Encode(r); err != nil {
				fmt.Fprintf(os.Stderr, "encode %s: %v\n", name, err)
				os.Exit(1)
			}
			return
		}
		fmt.Println(r.Text)
	}

	run("table1", harness.TableI)
	run("table2", harness.TableII)
	run("table3", func() harness.Result { return harness.TableIII(*scale, *seed) })
	run("fig7", func() harness.Result {
		return harness.Fig7([]int{1000, 2000, 4000, 8000, 16000, 32000}, *seed)
	})
	run("fig8", func() harness.Result {
		return harness.Fig8([]int{2000, 8000, 32000}, ts, *seed)
	})
	run("fig9", func() harness.Result {
		return harness.Fig9(ts, []int{8000, 32000}, *seed)
	})
	run("fig10", func() harness.Result { return harness.Fig10(ts, *scale, *seed) })
	run("fig11", func() harness.Result {
		p := ts[len(ts)-1]
		return harness.Fig11(p, *scale, *seed)
	})
	run("fig12", func() harness.Result {
		p := ts[len(ts)-1]
		return harness.Fig12(p, *scale, *seed)
	})
	run("pram", func() harness.Result {
		return harness.PramValidation([]int{256, 1024, 4096}, *seed)
	})
	run("ablations", func() harness.Result { return harness.Ablations(*seed) })
	run("resilience", func() harness.Result { return harness.ResilienceSummary(105, *seed) })

	if !all {
		for e := range want {
			switch e {
			case "table1", "table2", "table3", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "pram", "ablations", "resilience":
			default:
				fmt.Fprintf(os.Stderr, "unknown experiment %q\n", e)
				os.Exit(2)
			}
		}
	}
}

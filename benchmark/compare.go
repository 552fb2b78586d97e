package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchConfig is the part of BENCHMARK.json that compare reads.
type benchConfig struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// absFloor is, per metric, the smallest worsening that counts as a
// regression whatever the relative bound: below it a change is noise.
var absFloor = map[string]float64{
	"setup_s":         0.02,
	"latency_p50_ms":  0.1,
	"latency_tail_ms": 0.5,
	"peak_rss_mib":    8,
}

// Verdicts of a comparison.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	worse      = "worse"
	unresolved = "unresolved"
)

// comparison is one workload × metric compared across two sets of runs.
type comparison struct {
	baseMed, baseQ1, baseQ3 float64
	headMed, headQ1, headQ3 float64
	wins                    float64 // share of run pairs the head side wins
	verdict                 string
}

// judge compares head runs against base runs of one metric. It claims a
// gain only when the head side wins at least nine pairs in ten and the
// medians differ by more than the base side's own spread (quartile
// distance); it calls a worsening past the bound (or the floor) worse, and
// unresolved where the spread is wider than the bound, unless every head run
// beats or loses to every base run.
func judge(base, head []float64, lowerBetter bool, bound, floor float64) comparison {
	c := comparison{baseMed: median(base), headMed: median(head)}
	c.baseQ1, c.baseQ3 = quartiles(base)
	c.headQ1, c.headQ3 = quartiles(head)
	better := func(h, b float64) bool {
		if lowerBetter {
			return h < b
		}
		return h > b
	}
	pairs := len(base)
	if len(head) < pairs {
		pairs = len(head)
	}
	won := 0
	for i := 0; i < pairs; i++ {
		if better(head[i], base[i]) {
			won++
		}
	}
	if pairs > 0 {
		c.wins = float64(won) / float64(pairs)
	}
	allBetter, allWorse := true, true
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
			allWorse = allWorse && better(b, h)
		}
	}
	loss := c.headMed - c.baseMed // how much worse the head side reads
	if !lowerBetter {
		loss = -loss
	}
	allowed := math.Max(bound*math.Abs(c.baseMed), floor)
	spread := math.Max(c.baseQ3-c.baseQ1, c.headQ3-c.headQ1)
	switch {
	case c.wins >= 0.9 && -loss > c.baseQ3-c.baseQ1:
		c.verdict = improved
	case loss > allowed && (spread <= allowed || allWorse):
		c.verdict = worse
	case loss > allowed || (spread > allowed && !allBetter):
		c.verdict = unresolved
	default:
		c.verdict = unchanged
	}
	return c
}

// runSet is one side of a comparison: per workload, per metric, the values
// of its runs in file order.
type runSet map[string]map[string][]float64

// loadRuns reads every untraced run-NN.json in dir.
func loadRuns(dir string) (runSet, int, error) {
	files, err := filepath.Glob(filepath.Join(dir, "run-*.json"))
	if err != nil {
		return nil, 0, err
	}
	sort.Strings(files)
	set := runSet{}
	n := 0
	for _, fn := range files {
		b, err := os.ReadFile(fn)
		if err != nil {
			return nil, 0, err
		}
		var rf runFile
		if err := json.Unmarshal(b, &rf); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", fn, err)
		}
		if rf.Traced {
			continue
		}
		n++
		for name, res := range rf.Workloads {
			if set[name] == nil {
				set[name] = map[string][]float64{}
			}
			for m, v := range res.Metrics {
				set[name][m] = append(set[name][m], v.Value)
			}
			set[name]["fail_ratio"] = append(set[name]["fail_ratio"], res.Info["fail_ratio"])
		}
	}
	if n == 0 {
		return nil, 0, fmt.Errorf("no untraced run-*.json in %s", dir)
	}
	return set, n, nil
}

// compareMain is `benchmark compare`: it judges every workload × end-to-end
// metric of two sets of runs by the bounds in BENCHMARK.json, and exits 1
// when any reads worse.
func compareMain(args []string, w io.Writer) int {
	fl := flag.NewFlagSet("compare", flag.ContinueOnError)
	baseDir := fl.String("base", "", "directory of the base side's run-NN.json files")
	headDir := fl.String("head", "", "directory of the head side's run-NN.json files")
	if err := fl.Parse(args); err != nil || *baseDir == "" || *headDir == "" {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare -base DIR -head DIR")
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	var bc benchConfig
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(b, &bc)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: reading bounds:", err)
		return 2
	}
	base, nb, err := loadRuns(*baseDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	head, nh, err := loadRuns(*headDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Fprintf(w, "base: %d runs in %s; head: %d runs in %s\n", nb, *baseDir, nh, *headDir)
	fmt.Fprintf(w, "%-16s %-16s %12s %25s %12s %25s %6s  %s\n", "workload", "metric",
		"base median", "base [q1, q3]", "head median", "head [q1, q3]", "wins", "verdict")
	anyWorse := false
	for _, wl := range workloads {
		bm, hm := base[wl.name], head[wl.name]
		if bm == nil || hm == nil {
			continue
		}
		for _, d := range bc.EndToEnd {
			c := judge(bm[d.Name], hm[d.Name], d.Better == "lower", d.Bound, absFloor[d.Name])
			anyWorse = anyWorse || c.verdict == worse
			fmt.Fprintf(w, "%-16s %-16s %12.5g [%11.5g, %11.5g] %12.5g [%11.5g, %11.5g] %5.0f%%  %s\n", wl.name, d.Name,
				c.baseMed, c.baseQ1, c.baseQ3, c.headMed, c.headQ1, c.headQ3, 100*c.wins, c.verdict)
		}
		// Failures have a bound of zero: any failed operation is worse.
		v := unchanged
		for _, f := range hm["fail_ratio"] {
			if f > 0 {
				v = worse
			}
		}
		anyWorse = anyWorse || v == worse
		fmt.Fprintf(w, "%-16s %-16s %12.5g %25s %12.5g %25s %6s  %s\n", wl.name, "fail_ratio",
			median(bm["fail_ratio"]), "", median(hm["fail_ratio"]), "", "", v)
	}
	if anyWorse {
		return 1
	}
	return 0
}

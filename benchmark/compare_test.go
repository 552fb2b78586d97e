package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

var tenRuns = []float64{100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100}

func TestJudgeVerdicts(t *testing.T) {
	wide := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name        string
		base, head  []float64
		lowerBetter bool
		floor       float64
		want        string
	}{
		{"same runs", tenRuns, tenRuns, true, 0, unchanged},
		{"within the bound", tenRuns, scaled(tenRuns, 1.05), true, 0, unchanged},
		{"slower past the bound", tenRuns, scaled(tenRuns, 1.2), true, 0, worse},
		{"lower throughput past the bound", tenRuns, scaled(tenRuns, 0.8), false, 0, worse},
		{"faster in every pair", tenRuns, scaled(tenRuns, 0.9), true, 0, improved},
		{"higher throughput in every pair", tenRuns, scaled(tenRuns, 1.1), false, 0, improved},
		{"spread wider than the bound", tenRuns, wide, true, 0, unresolved},
		{"worse median but spread too wide", wide, scaled(wide, 1.15), true, 0, unresolved},
		{"below the absolute floor", tenRuns, scaled(tenRuns, 1.2), true, 50, unchanged},
	} {
		c := judge(tc.base, tc.head, tc.lowerBetter, 0.1, tc.floor)
		if c.verdict != tc.want {
			t.Errorf("%s: verdict %s (wins %.0f%%), want %s", tc.name, c.verdict, 100*c.wins, tc.want)
		}
	}
}

func TestJudgeCountsPairWins(t *testing.T) {
	base := []float64{10, 10, 10, 10}
	head := []float64{9, 11, 9, 10} // two wins, one loss, one tie
	if c := judge(base, head, true, 0.1, 0); c.wins != 0.5 {
		t.Errorf("wins = %g, want 0.5", c.wins)
	}
}

// BENCHMARK.json and the metric tables here describe the same benchmark.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := doc[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	if len(doc) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want 6", len(doc))
	}
	var b struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why %d chars), code has %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(kind string, got []metricDef, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] || !name.MatchString(got[i].name) {
				t.Errorf("%s %d: BENCHMARK.json %+v, code %+v", kind, i, got[i], want[i])
			}
		}
	}
	var e2e, layer []metricDef
	maxBound, setupBound := 0.0, 0.0
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		// 0.25 is the largest bound the BENCHMARK.json format allows, not a
		// target; README.md gives the measured spread each bound rests on.
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Bound > maxBound {
			maxBound = m.Bound
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %g is not the largest (%g)", setupBound, maxBound)
	}
	for _, m := range b.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layer, perLayer)
}

package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload at about a hundredth of a run's size, with
// its output checks, untraced and traced.
func TestSmoke(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{root: root, seed: 1, seconds: 0.1, small: true, trace: traced, nproc: 2}
			if traced {
				cfg.spans = spans
			}
			res, err := runWorkload(context.Background(), w, cfg)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			if !res.Correct {
				t.Fatalf("%s (traced %v): %d of %d failed: %v", w.name, traced, res.Failed, res.Attempted, res.Failures)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s: %d metrics, want %d", w.name, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if _, ok := res.Metrics[d.name]; !ok {
					t.Errorf("%s: no %s", w.name, d.name)
				}
			}
			if !traced {
				continue
			}
			m := func(n string) float64 { return res.Metrics[n].Value }
			if m("trace.coverage") <= 0 || m("trace.overhead_ratio") <= 0 {
				t.Errorf("%s: coverage %g, overhead %g", w.name, m("trace.coverage"), m("trace.overhead_ratio"))
			}
			// Rescues on clean inputs would be engine bugs the fallback
			// chain hides.
			switch w.name {
			case "clip-clean":
				if m("polyclip.rescue_ratio") != 0 || m("engine.sweep_ms") <= 0 {
					t.Errorf("clip-clean: rescue ratio %g, sweep %g ms", m("polyclip.rescue_ratio"), m("engine.sweep_ms"))
				}
			case "tiles":
				if m("prepared.rescues") != 0 || m("tile.leaves") <= 0 {
					t.Errorf("tiles: %g rescues, %g leaves", m("prepared.rescues"), m("tile.leaves"))
				}
			case "overlay-repeat", "overlay-unique":
				if m("batch.rescued") != 0 || m("batch.candidate_pairs") <= 0 {
					t.Errorf("%s: %g rescued, %g candidate pairs", w.name, m("batch.rescued"), m("batch.candidate_pairs"))
				}
			}
		}
	}
	if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
		t.Errorf("no spans written (%v)", err)
	}
}

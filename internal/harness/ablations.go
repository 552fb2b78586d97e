package harness

import (
	"context"
	"time"

	"polyclip/internal/bandclip"
	"polyclip/internal/core"
	"polyclip/internal/data"
	"polyclip/internal/engine"
	"polyclip/internal/geom"
	"polyclip/internal/gh"
	"polyclip/internal/isect"
)

// timeIt runs fn `reps` times and returns the average duration.
func timeIt(reps int, fn func()) time.Duration {
	if reps < 1 {
		reps = 1
	}
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	return time.Since(t0) / time.Duration(reps)
}

// Ablations runs the DESIGN.md ablation comparisons and formats them as one
// table (cmd/bench -exp ablations). The same comparisons exist as
// testing.B benchmarks in bench_test.go; this runner makes them part of the
// reproduction report.
func Ablations(seed int64) Result {
	header := []string{"Ablation", "Variant", "Time (ms)", "Note"}
	var rows [][]string

	// 1. Intersection finders.
	subject, clip := data.SyntheticPair(seed, 4000, 4000)
	segs := append(subject.Edges(), clip.Edges()...)
	rows = append(rows,
		row("finder", "grid", ms(timeIt(3, func() { isect.GridPairs(segs, 0) })), "practical default"),
		row("finder", "scanbeam-inversions", ms(timeIt(3, func() { isect.ScanbeamPairs(segs, 0) })), "paper Lemma 4"),
		row("finder", "bentley-ottmann", ms(timeIt(3, func() { isect.SweepPairs(segs) })), "paper ref [2]"),
	)

	// 2. Slab merge strategies.
	for _, m := range []struct {
		name string
		mode core.MergeMode
	}{{"stitch", core.MergeStitch}, {"concat", core.MergeConcat}, {"union-tree", core.MergeUnionTree}} {
		mode := m.mode
		rows = append(rows, row("merge", m.name,
			ms(timeIt(2, func() {
				core.ClipPairCtx(context.Background(), subject, clip, engine.Intersection, core.Options{Threads: 8, Merge: mode})
			})), "Fig. 6 variants"))
	}

	// 3. Rectangle clipping for Steps 4–5: bandclip vs Greiner–Hormann (the
	// paper's choice).
	poly := data.Layer(data.TableIII[1], 0.002, seed+11)
	band := [2]float64{20, 40}
	rows = append(rows,
		row("rect-clip", "bandclip", ms(timeIt(5, func() {
			for _, f := range poly {
				bandclip.Clip(f, band[0], band[1])
			}
		})), "exact caps, arbitrary input"),
		row("rect-clip", "greiner-hormann", ms(timeIt(5, func() {
			for _, f := range poly {
				box := f.BBox()
				rect := geom.Rect(box.MinX-1, band[0], box.MaxX+1, band[1])
				for _, ring := range f {
					gh.Clip(ring, rect, engine.Intersection)
				}
			}
		})), "paper's Steps 4-5 choice"),
	)

	text := "Ablations — design-choice comparisons (see DESIGN.md)\n" + formatRows(header, rows)
	return Result{Name: "ablations", Text: text, Rows: rows}
}

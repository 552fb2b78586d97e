// Package harness runs the paper's experiments (§V, Tables I–III, Figures
// 7–12, plus the §III PRAM validation) and formats their results as the
// tables/series the paper reports. Used by cmd/bench and the benchmark
// suite.
//
// The paper measured wall-clock speedups on a 64-core machine. This harness
// reports, for every parallel experiment, both the wall clock on the host
// and the modelled parallel time (per-slab work scheduled greedily onto p
// workers + sequential phases) — on hosts with fewer cores than the paper's
// the model carries the scaling shape; on a large multicore the two
// converge. See EXPERIMENTS.md.
package harness

import (
	"context"
	"fmt"
	"strings"
	"time"

	"polyclip/internal/batch"
	"polyclip/internal/core"
	"polyclip/internal/data"
	"polyclip/internal/engine"
	"polyclip/internal/geom"
	"polyclip/internal/overlay"
	"polyclip/internal/par"
	"polyclip/internal/pram"
	"polyclip/internal/vatti"
)

// Result is one experiment's formatted output plus machine-readable rows.
// Counters carries named scalar metrics (currently the Stats.Resilience
// counters) for experiments that have them; it is what cmd/bench -json
// surfaces for trend tracking.
type Result struct {
	Name     string         `json:"name"`
	Text     string         `json:"-"`
	Rows     [][]string     `json:"rows"`
	Counters map[string]int `json:"counters,omitempty"`
}

func row(cells ...string) []string { return cells }

func formatRows(header []string, rows [][]string) string {
	var b strings.Builder
	width := make([]int, len(header))
	all := append([][]string{header}, rows...)
	for _, r := range all {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	for ri, r := range all {
		for i, c := range r {
			fmt.Fprintf(&b, "%-*s  ", width[i], c)
		}
		b.WriteString("\n")
		if ri == 0 {
			for _, w := range width {
				b.WriteString(strings.Repeat("-", w) + "  ")
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

func ms(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000) }

// TableI regenerates the paper's Table I: the time-stepped merge of
// A_l = {5,6,7,9} and A_r = {1,2,3,4} with the inversion pairs reported by
// the extended merge.
func TableI() Result {
	al := []int{5, 6, 7, 9}
	ar := []int{1, 2, 3, 4}
	steps := par.MergeTrace(al, ar)
	text := "Table I — extended merge of A_l={5,6,7,9}, A_r={1,2,3,4}\n" +
		par.FormatMergeTrace(steps)
	var rows [][]string
	for i, st := range steps {
		var inv []string
		for _, p := range st.Inversions {
			inv = append(inv, fmt.Sprintf("(%d,%d)", p[0], p[1]))
		}
		rows = append(rows, row(fmt.Sprint(i+1),
			fmt.Sprintf("(%d,%d)", st.Compared[0], st.Compared[1]),
			fmt.Sprint(st.Emitted), strings.Join(inv, " ")))
	}
	return Result{Name: "table1", Text: text, Rows: rows}
}

// fig2Polygons builds a subject/clip pair in the spirit of the paper's
// Fig. 2: a self-intersecting subject overlapping a concave clip polygon.
func fig2Polygons() (subject, clip geom.Polygon) {
	subject = geom.Polygon{geom.SelfIntersectingStar(geom.Point{X: 3, Y: 3}, 3, 5, 0.2)}
	clip = geom.Polygon{geom.Star(geom.Point{X: 4.5, Y: 3.5}, 3.2, 1.4, 5, 0.9)}
	return subject, clip
}

// TableII regenerates the paper's Table II in kind: the scanbeam table for
// a Fig. 2-style input — per scanbeam, the active edges and the partial
// output polygons (trapezoid corner sequences) of the intersection.
func TableII() Result {
	subject, clip := fig2Polygons()
	tzs := vatti.Trapezoids(subject, clip, engine.Intersection, engine.EvenOdd)
	header := []string{"Scanbeam", "Partial polygon (L1 R1 R2 L2)"}
	var rows [][]string
	for _, tz := range tzs {
		beam := fmt.Sprintf("[%.3f, %.3f]", tz.L1.Y, tz.L2.Y)
		var pts []string
		for _, p := range tz.Ring() {
			pts = append(pts, fmt.Sprintf("(%.3f,%.3f)", p.X, p.Y))
		}
		rows = append(rows, row(beam, strings.Join(pts, " ")))
	}
	text := "Table II — scanbeam table (partial output polygons per beam) for the Fig. 2-style example\n" +
		formatRows(header, rows)
	return Result{Name: "table2", Text: text, Rows: rows}
}

// TableIII synthesizes the four datasets at the given scale and reports
// their statistics next to the paper's published values.
func TableIII(scale float64, seed int64) Result {
	header := []string{"#", "Dataset", "Polys", "Edges", "MeanEdge", "SDEdge", "Paper polys", "Paper edges"}
	var rows [][]string
	for i, d := range data.TableIII {
		layer := data.Layer(d, scale, seed+int64(i))
		st := data.Stats(layer)
		rows = append(rows, row(
			fmt.Sprint(i+1), d.Name,
			fmt.Sprint(st.Polys), fmt.Sprint(st.Edges),
			fmt.Sprintf("%.5f", st.MeanEdgeLen), fmt.Sprintf("%.5f", st.SDEdgeLen),
			fmt.Sprintf("%d×%.3g", d.Polys, scale), fmt.Sprintf("%d×%.3g", d.Edges, scale),
		))
	}
	text := fmt.Sprintf("Table III — synthesized datasets at scale %.3g (paper counts × scale shown for reference)\n", scale) +
		formatRows(header, rows)
	return Result{Name: "table3", Text: text, Rows: rows}
}

// Fig7 regenerates Figure 7: sequential clipping time of the GPC stand-in
// versus polygon size, demonstrating the super-linear growth that makes
// partitioning into smaller sub-problems profitable.
func Fig7(sizes []int, seed int64) Result {
	header := []string{"Edges/poly", "Seq time (ms)", "us/edge"}
	var rows [][]string
	for _, n := range sizes {
		subject, clip := data.SyntheticPair(seed, n, n)
		t0 := time.Now()
		overlay.Clip(context.Background(), subject, clip, engine.Intersection, engine.Options{Threads: 1})
		el := time.Since(t0)
		rows = append(rows, row(fmt.Sprint(n), ms(el),
			fmt.Sprintf("%.3f", float64(el.Microseconds())/float64(2*n))))
	}
	text := "Figure 7 — sequential clipping time vs polygon size (intersection of two synthetic polygons)\n" +
		formatRows(header, rows)
	return Result{Name: "fig7", Text: text, Rows: rows}
}

// Fig8 regenerates Figure 8: Algorithm 2 speedup versus thread count for
// synthetic polygon pairs of several sizes. Speedup is sequential time over
// modelled parallel time (see package comment).
func Fig8(sizes []int, threads []int, seed int64) Result {
	header := append([]string{"Edges/poly", "Seq (ms)"}, func() []string {
		var h []string
		for _, p := range threads {
			h = append(h, fmt.Sprintf("S(p=%d)", p))
		}
		return h
	}()...)
	var rows [][]string
	for _, n := range sizes {
		subject, clip := data.SyntheticPair(seed, n, n)
		t0 := time.Now()
		overlay.Clip(context.Background(), subject, clip, engine.Intersection, engine.Options{Threads: 1})
		seq := time.Since(t0)
		cells := []string{fmt.Sprint(n), ms(seq)}
		for _, p := range threads {
			model := slabStats(subject, clip, p).ModelledParallel(p)
			cells = append(cells, fmt.Sprintf("%.2f", float64(seq)/float64(model)))
		}
		rows = append(rows, cells)
	}
	text := "Figure 8 — Algorithm 2 speedup vs threads (synthetic pairs; modelled parallel time)\n" +
		formatRows(header, rows)
	return Result{Name: "fig8", Text: text, Rows: rows}
}

// Fig9 regenerates Figure 9: the partition / clip / merge phase breakdown
// of Algorithm 2 versus thread count, for two workloads (sets I and II).
func Fig9(threads []int, sizes []int, seed int64) Result {
	header := []string{"Set", "Threads", "Partition (ms)", "Clip (ms)", "Merge (ms)"}
	var rows [][]string
	for si, n := range sizes {
		subject, clip := data.SyntheticPair(seed+int64(si), n, n)
		for _, p := range threads {
			st := slabStats(subject, clip, p)
			rows = append(rows, row(
				fmt.Sprintf("%s(n=%d)", string(rune('I'+si)), n), fmt.Sprint(p),
				ms(st.Partition), ms(st.CriticalPath()), ms(st.Merge)))
		}
	}
	text := "Figure 9 — phase breakdown (partition / per-thread clip critical path / merge)\n" +
		formatRows(header, rows)
	return Result{Name: "fig9", Text: text, Rows: rows}
}

// datasetLayers synthesizes the Table III layers once.
func datasetLayers(scale float64, seed int64) [][]geom.Polygon {
	out := make([][]geom.Polygon, len(data.TableIII))
	for i, d := range data.TableIII {
		out[i] = data.Layer(d, scale, seed+int64(i))
	}
	return out
}

// slabStats intersects the pair the way Figures 8 and 9 time it: Algorithm 2
// on p slabs with one worker, so each slab's time is its true cost and
// Stats.ModelledParallel schedules the slabs onto p workers (see package
// doc).
func slabStats(subject, clip geom.Polygon, p int) *engine.Stats {
	_, st, err := core.ClipPairCtx(context.Background(), subject, clip, engine.Intersection, core.Options{Threads: 1, Slabs: p})
	if err != nil {
		panic(err)
	}
	return st
}

// layerOverlay overlays two layers the way Figures 10–12 time them:
// batch.Overlay on the overlay engine with every slab clipped on one thread,
// so each slab's time is CPU-attributable; slabs <= 0 is the one-slab
// sequential run. Hashing and indexing become the sequential phase and the
// slab times the per-thread work, so Stats.ModelledParallel schedules the
// slabs onto p workers.
func layerOverlay(a, b []geom.Polygon, op engine.Op, slabs int) *engine.Stats {
	_, st, err := batch.Overlay(context.Background(), a, b, op,
		batch.Options{Engine: "overlay", Threads: 1, Slabs: slabs})
	if err != nil {
		panic(err)
	}
	return &engine.Stats{Partition: st.Hash + st.Index, PerThread: st.PerSlab}
}

// Fig10 regenerates Figure 10: relative speedup versus threads for the
// real-data workloads Intersect(1,2), Union(1,2), Intersect(3,4),
// Union(3,4). Larger datasets scale better — the paper's headline
// qualitative result.
func Fig10(threads []int, scale float64, seed int64) Result {
	layers := datasetLayers(scale, seed)
	workloads := []struct {
		name string
		a, b core.Layer
		op   engine.Op
	}{
		{"Intersect(1,2)", layers[0], layers[1], engine.Intersection},
		{"Union(1,2)", layers[0], layers[1], engine.Union},
		{"Intersect(3,4)", layers[2], layers[3], engine.Intersection},
		{"Union(3,4)", layers[2], layers[3], engine.Union},
	}
	header := append([]string{"Workload", "Seq (ms)"}, func() []string {
		var h []string
		for _, p := range threads {
			h = append(h, fmt.Sprintf("S(p=%d)", p))
		}
		return h
	}()...)
	var rows [][]string
	for _, w := range workloads {
		stSeq := layerOverlay(w.a, w.b, w.op, 0)
		seq := stSeq.TotalWork() + stSeq.Sort + stSeq.Partition
		cells := []string{w.name, ms(seq)}
		for _, p := range threads {
			st := layerOverlay(w.a, w.b, w.op, p)
			model := st.ModelledParallel(p)
			cells = append(cells, fmt.Sprintf("%.2f", float64(seq)/float64(model)))
		}
		rows = append(rows, cells)
	}
	text := fmt.Sprintf("Figure 10 — relative speedup vs threads, synthesized Table III datasets (scale %.3g)\n", scale) +
		formatRows(header, rows)
	return Result{Name: "fig10", Text: text, Rows: rows}
}

// Fig11 regenerates Figure 11: the per-thread clip-time distribution for
// Intersect(1,2), whose load imbalance explains that workload's limited
// scalability.
func Fig11(threads int, scale float64, seed int64) Result {
	layers := datasetLayers(scale, seed)
	st := layerOverlay(layers[0], layers[1], engine.Intersection, threads)
	header := []string{"Thread", "Clip time (ms)", "Share of max"}
	maxT := st.CriticalPath()
	var rows [][]string
	for i, d := range st.PerThread {
		share := 0.0
		if maxT > 0 {
			share = float64(d) / float64(maxT)
		}
		rows = append(rows, row(fmt.Sprint(i), ms(d), fmt.Sprintf("%.2f", share)))
	}
	text := fmt.Sprintf("Figure 11 — per-thread load for Intersect(1,2), %d threads (imbalance limits scaling)\n", threads) +
		formatRows(header, rows)
	return Result{Name: "fig11", Text: text, Rows: rows}
}

// ArcGISRatio is the paper's measured constant: ArcGIS was about 5x faster
// than sequential GPC on Intersect(1,2) (§V-B). The absolute-speedup figure
// uses it to model the paper's external baseline, which cannot be run here.
const ArcGISRatio = 5.0

// Fig12 regenerates Figure 12: absolute speedup of the multi-threaded
// algorithm against the modelled ArcGIS baseline (sequential engine time
// divided by ArcGISRatio, the paper's published relationship).
func Fig12(threads int, scale float64, seed int64) Result {
	layers := datasetLayers(scale, seed)
	workloads := []struct {
		name string
		a, b core.Layer
		op   engine.Op
	}{
		{"Intersect(1,2)", layers[0], layers[1], engine.Intersection},
		{"Intersect(3,4)", layers[2], layers[3], engine.Intersection},
		{"Union(3,4)", layers[2], layers[3], engine.Union},
	}
	header := []string{"Workload", "Seq GPC-like (ms)", "Modelled ArcGIS (ms)", "Parallel p=" + fmt.Sprint(threads) + " (ms)", "Abs speedup"}
	var rows [][]string
	for _, w := range workloads {
		stSeq := layerOverlay(w.a, w.b, w.op, 0)
		seq := stSeq.TotalWork() + stSeq.Sort + stSeq.Partition
		arc := time.Duration(float64(seq) / ArcGISRatio)
		st := layerOverlay(w.a, w.b, w.op, threads)
		parTime := st.ModelledParallel(threads)
		rows = append(rows, row(w.name, ms(seq), ms(arc), ms(parTime),
			fmt.Sprintf("%.3g", float64(arc)/float64(parTime))))
	}
	text := fmt.Sprintf("Figure 12 — absolute speedup vs modelled ArcGIS baseline (paper ratio %.1fx), %d threads\n", ArcGISRatio, threads) +
		formatRows(header, rows)
	return Result{Name: "fig12", Text: text, Rows: rows}
}

// PramValidation validates the §III complexity claims on the CREW PRAM
// simulator: rounds grow polylogarithmically while processors track the
// output-sensitive bound n + k + k'.
func PramValidation(sizes []int, seed int64) Result {
	header := []string{"n (edges/poly)", "k (crossings)", "k'", "n+k+k'", "Scan rounds", "Sort rounds", "Inv rounds"}
	var rows [][]string
	for _, n := range sizes {
		subject, clip := data.InterleavedPair(seed, n)
		_, rep := core.AlgorithmOne(subject, clip, engine.Intersection, 0)

		m := pram.New()
		xs := make([]int, 2*n)
		for i := range xs {
			xs[i] = (i * 7919) % (2 * n)
		}
		m.Scan(xs)
		scanRounds := m.Rounds()
		m.Reset()
		m.Sort(xs)
		sortRounds := m.Rounds()
		m.Reset()
		m.CountInversions(xs)
		invRounds := m.Rounds()

		rows = append(rows, row(fmt.Sprint(2*n), fmt.Sprint(rep.K), fmt.Sprint(rep.KPrime),
			fmt.Sprint(rep.Procs), fmt.Sprint(scanRounds), fmt.Sprint(sortRounds), fmt.Sprint(invRounds)))
	}
	text := "PRAM validation — output-sensitive sizes from Algorithm 1 and simulated round counts\n" +
		formatRows(header, rows)
	return Result{Name: "pram", Text: text, Rows: rows}
}

package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"polyclip/internal/arrange"
	"polyclip/internal/data"
	"polyclip/internal/engine"
	"polyclip/internal/geom"
	"polyclip/internal/overlay"
)

func seqArea(a, b geom.Polygon, op engine.Op) float64 {
	out, _ := overlay.Clip(context.Background(), a, b, op, engine.Options{Threads: 1})
	return out.Area()
}

// clipPair is ClipPairCtx without a deadline; an error fails the test.
func clipPair(t *testing.T, a, b geom.Polygon, op engine.Op, opt Options) (geom.Polygon, *engine.Stats) {
	t.Helper()
	out, st, err := ClipPairCtx(context.Background(), a, b, op, opt)
	if err != nil {
		t.Fatal(err)
	}
	return out, st
}

func TestClipPairMatchesSequentialRects(t *testing.T) {
	a := geom.RectPolygon(0, 0, 4, 4)
	b := geom.RectPolygon(2, 2, 6, 6)
	for _, op := range []engine.Op{engine.Intersection, engine.Union, engine.Difference, engine.Xor} {
		for _, threads := range []int{1, 2, 4, 7} {
			got, st := clipPair(t, a, b, op, Options{Threads: threads})
			want := seqArea(a, b, op)
			if math.Abs(got.Area()-want) > 1e-6*(1+want) {
				t.Errorf("op=%v threads=%d: got %v want %v (slabs=%d)", op, threads, got.Area(), want, st.Slabs)
			}
		}
	}
}

func TestClipPairStars(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 6; trial++ {
		a := geom.Polygon{geom.Star(geom.Point{X: rng.Float64(), Y: rng.Float64()}, 5, 2, 8+rng.Intn(20), rng.Float64())}
		b := geom.Polygon{geom.Star(geom.Point{X: 1 + rng.Float64(), Y: rng.Float64() - 1}, 5, 2, 8+rng.Intn(20), rng.Float64())}
		for _, op := range []engine.Op{engine.Intersection, engine.Union, engine.Difference, engine.Xor} {
			want := seqArea(a, b, op)
			// 0 lets the adaptive count pick; 5 forces event-balanced cuts
			// through these small stars.
			for _, slabs := range []int{0, 5} {
				got, _ := clipPair(t, a, b, op, Options{Threads: 4, Slabs: slabs})
				if math.Abs(got.Area()-want) > 1e-6*(1+want) {
					t.Errorf("trial %d op=%v slabs=%d: got %v want %v", trial, op, slabs, got.Area(), want)
				}
			}
		}
	}
}

func TestClipPairEngines(t *testing.T) {
	a := geom.Polygon{geom.Star(geom.Point{X: 0, Y: 0}, 5, 2, 12, 0.3)}
	b := geom.Polygon{geom.Star(geom.Point{X: 1, Y: 1}, 5, 2, 10, 0.7)}
	want := seqArea(a, b, engine.Intersection)
	for _, name := range []string{"overlay", "vatti"} {
		got, _ := clipPair(t, a, b, engine.Intersection, Options{Threads: 4, Engine: engine.MustGet(name)})
		if math.Abs(got.Area()-want) > 1e-6*(1+want) {
			t.Errorf("engine=%s: got %v want %v", name, got.Area(), want)
		}
	}
}

func TestClipPairMergeModes(t *testing.T) {
	a := geom.Polygon{geom.RegularPolygon(geom.Point{X: 0, Y: 0}, 5, 24, 0.1)}
	b := geom.Polygon{geom.RegularPolygon(geom.Point{X: 2, Y: 1}, 5, 18, 0.4)}
	want := seqArea(a, b, engine.Union)
	for _, mode := range []MergeMode{MergeStitch, MergeConcat, MergeUnionTree} {
		// Slabs pinned: these small inputs collapse to one slab under the
		// adaptive count, and the merge modes only run across slab seams.
		got, _ := clipPair(t, a, b, engine.Union, Options{Threads: 4, Slabs: 4, Merge: mode})
		// MergeConcat leaves seams: even-odd area preserved; rings may
		// include seam edges, so normalize via the overlay engine.
		area := got.Area()
		if mode == MergeConcat {
			box := got.BBox()
			big := geom.RectPolygon(box.MinX-1, box.MinY-1, box.MaxX+1, box.MaxY+1)
			norm, _ := overlay.Clip(context.Background(), got, big, engine.Intersection, engine.Options{})
			area = norm.Area()
		}
		if math.Abs(area-want) > 1e-6*(1+want) {
			t.Errorf("merge=%d: got %v want %v", mode, area, want)
		}
	}
}

func TestClipPairMergeStitchRemovesSeams(t *testing.T) {
	a := geom.Polygon{geom.RegularPolygon(geom.Point{X: 0, Y: 0}, 5, 32, 0.1)}
	b := geom.Polygon{geom.RegularPolygon(geom.Point{X: 1, Y: 1}, 5, 32, 0.2)}
	got, st := clipPair(t, a, b, engine.Intersection, Options{Threads: 4, Slabs: 4, Merge: MergeStitch})
	if st.Slabs < 2 {
		t.Skip("partitioning produced a single slab")
	}
	if len(got) != 1 {
		t.Errorf("stitched result has %d rings, want 1 convex-ish region", len(got))
	}
}

func TestClipPairPartitionModes(t *testing.T) {
	// The event-balanced partition is the only one left; five slabs at
	// five threads cut these stars at event quantiles, and xor is the op
	// most sensitive to a seam counted twice or dropped.
	a := geom.Polygon{geom.Star(geom.Point{X: 0, Y: 0}, 5, 2, 16, 0.3)}
	b := geom.Polygon{geom.Star(geom.Point{X: 1, Y: 0}, 5, 2, 14, 0.9)}
	want := seqArea(a, b, engine.Xor)
	got, st := clipPair(t, a, b, engine.Xor, Options{Threads: 5, Slabs: 5})
	if st.Slabs < 2 {
		t.Errorf("slabs = %d, want the pinned count to cut the stars", st.Slabs)
	}
	if math.Abs(got.Area()-want) > 1e-6*(1+want) {
		t.Errorf("got %v want %v (slabs=%d)", got.Area(), want, st.Slabs)
	}
}

func TestClipPairEmptyInputs(t *testing.T) {
	a := geom.RectPolygon(0, 0, 1, 1)
	if got, _ := clipPair(t, nil, a, engine.Intersection, Options{Threads: 4}); got.Area() != 0 {
		t.Errorf("∅∩a = %v", got)
	}
	if got, _ := clipPair(t, a, nil, engine.Union, Options{Threads: 4}); math.Abs(got.Area()-1) > 1e-9 {
		t.Errorf("a∪∅ = %v", got.Area())
	}
}

func TestStatsAccounting(t *testing.T) {
	a := geom.Polygon{geom.RegularPolygon(geom.Point{X: 0, Y: 0}, 5, 64, 0.1)}
	b := geom.Polygon{geom.RegularPolygon(geom.Point{X: 1, Y: 1}, 5, 64, 0.2)}
	_, st := clipPair(t, a, b, engine.Intersection, Options{Threads: 4})
	if st.Slabs < 1 || len(st.PerThread) != st.Slabs {
		t.Fatalf("stats: %+v", st)
	}
	if st.CriticalPath() > st.TotalWork() {
		t.Error("critical path exceeds total work")
	}
	if st.ModelledParallel(1) < st.ModelledParallel(4) {
		// modelled time with 1 worker >= with 4 workers
		t.Error("modelled parallel time not monotone")
	}
}

func TestAlgorithmOneMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for trial := 0; trial < 6; trial++ {
		a := geom.Polygon{geom.Star(geom.Point{X: rng.Float64(), Y: rng.Float64()}, 4, 1.5, 6+rng.Intn(10), rng.Float64())}
		b := geom.Polygon{geom.Star(geom.Point{X: 0.5 + rng.Float64(), Y: rng.Float64() - 0.5}, 4, 1.5, 6+rng.Intn(10), rng.Float64())}
		for _, op := range []engine.Op{engine.Intersection, engine.Union, engine.Difference, engine.Xor} {
			got, rep := AlgorithmOne(a, b, op, 4)
			want := seqArea(a, b, op)
			if math.Abs(got.Area()-want) > 1e-6*(1+want) {
				t.Errorf("trial %d op=%v: got %v want %v", trial, op, got.Area(), want)
			}
			if rep.Procs < rep.N {
				t.Errorf("processor bound %d < n=%d", rep.Procs, rep.N)
			}
		}
	}
}

func TestAlgorithmOneReportOutputSensitive(t *testing.T) {
	// Two polygons with many crossings vs few crossings: k must reflect it.
	a := geom.Polygon{geom.RegularPolygon(geom.Point{X: 0, Y: 0}, 5, 40, 0.01)}
	bFar := geom.Polygon{geom.RegularPolygon(geom.Point{X: 20, Y: 0}, 5, 40, 0.02)}
	bNear := geom.Polygon{geom.RegularPolygon(geom.Point{X: 0.5, Y: 0.2}, 5, 40, 0.02)}
	_, repFar := AlgorithmOne(a, bFar, engine.Intersection, 2)
	_, repNear := AlgorithmOne(a, bNear, engine.Intersection, 2)
	if repFar.K != 0 {
		t.Errorf("disjoint polygons: k = %d, want 0", repFar.K)
	}
	if repNear.K == 0 {
		t.Error("overlapping polygons: k = 0")
	}
	if repNear.Procs <= repFar.Procs-repFar.KPrime {
		t.Log("processor accounting:", repNear.Procs, repFar.Procs)
	}
}

// TestAlgorithmOneOutputIsNPlusK counts Algorithm 1's output vertices on
// two high-crossing pairs under every op: the merge returns the resolved
// arrangement's boundary, n + k vertices, so the output stays within 2x the
// resolved pair's vertex count however many beams cut its sides (the k'
// virtual vertices the merge drops).
func TestAlgorithmOneOutputIsNPlusK(t *testing.T) {
	for _, tc := range []struct {
		name string
		pair func() (geom.Polygon, geom.Polygon)
	}{
		{"interleaved-512", func() (geom.Polygon, geom.Polygon) { return data.InterleavedPair(38, 512) }},
		{"selfintersecting-401", func() (geom.Polygon, geom.Polygon) { return data.SelfIntersectingPair(3, 401) }},
	} {
		a, b := tc.pair()
		ra, rb := arrange.ResolvePairRule(a, b, engine.EvenOdd)
		resolved := ra.NumVertices() + rb.NumVertices()
		for _, op := range []engine.Op{engine.Intersection, engine.Union, engine.Difference, engine.Xor} {
			_, rep := AlgorithmOne(a, b, op, 2)
			if rep.Output > 2*resolved {
				t.Errorf("%s %v: %d output vertices, resolved pair has %d (k' = %d)", tc.name, op, rep.Output, resolved, rep.KPrime)
			}
		}
	}
}

// TestClipLayersMergedUnion checks the merged-layer overlay: each layer is
// fused into one even-odd region and the regions are clipped as one pair,
// so a whole-layer union matches the sequential union of the fused layers.
func TestClipLayersMergedUnion(t *testing.T) {
	la := Layer{geom.RectPolygon(0, 0, 2, 2), geom.RectPolygon(4, 0, 6, 2)}
	lb := Layer{geom.RectPolygon(1, 1, 5, 3)}
	got, _ := clipPair(t, fuse(la), fuse(lb), engine.Union, Options{Threads: 3})
	want := seqArea(fuse(la), fuse(lb), engine.Union)
	if math.Abs(got.Area()-want) > 1e-6 {
		t.Errorf("merged union = %v, want %v", got.Area(), want)
	}
}

// fuse concatenates a layer's rings into one even-odd region.
func fuse(l Layer) geom.Polygon {
	var out geom.Polygon
	for _, f := range l {
		out = append(out, f...)
	}
	return out
}

func TestLayerHelpers(t *testing.T) {
	l := Layer{geom.RectPolygon(0, 0, 1, 1), geom.RectPolygon(2, 2, 3, 4)}
	if l.NumVertices() != 8 {
		t.Errorf("NumVertices = %d", l.NumVertices())
	}
	box := l.BBox()
	if box.MinX != 0 || box.MaxY != 4 {
		t.Errorf("bbox = %+v", box)
	}
}

func TestSlabBoundaries(t *testing.T) {
	ys := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	b := SlabBoundaries(ys, 3)
	if b[0] != 0 || b[len(b)-1] != 9 {
		t.Errorf("bounds = %v", b)
	}
	if len(b) != 4 {
		t.Errorf("bounds = %v, want 4 entries", b)
	}
	// Degenerate: all events equal.
	d := SlabBoundaries([]float64{5, 5, 5}, 4)
	if len(d) != 2 {
		t.Errorf("degenerate bounds = %v", d)
	}
}

// foldWith is ReduceTree over raw overlay clips of one op, the combine the
// MergeUnionTree ablation uses for unions.
func foldWith(t *testing.T, polys []geom.Polygon, op engine.Op) geom.Polygon {
	t.Helper()
	out, err := ReduceTree(polys, 4, func(a, b geom.Polygon) (geom.Polygon, error) {
		return overlay.Clip(context.Background(), a, b, op, engine.Options{Threads: 1})
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestUnionAllGrid(t *testing.T) {
	// 4x4 grid of unit squares sharing edges dissolves into one 4x4 square.
	var polys []geom.Polygon
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			polys = append(polys, geom.RectPolygon(float64(i), float64(j), float64(i+1), float64(j+1)))
		}
	}
	got := foldWith(t, polys, engine.Union)
	if math.Abs(got.Area()-16) > 1e-6 {
		t.Errorf("dissolved area = %v, want 16", got.Area())
	}
	if len(got) != 1 {
		t.Errorf("rings = %d, want 1", len(got))
	}
}

// TestUnionAllEmptyAndSingle: nil folds to nil, and a lone item comes back
// as it is, with combine never called.
func TestUnionAllEmptyAndSingle(t *testing.T) {
	if got := foldWith(t, nil, engine.Union); got != nil {
		t.Errorf("fold of nil = %v", got)
	}
	single := geom.RectPolygon(0, 0, 1, 1)
	got, err := ReduceTree([]geom.Polygon{single}, 2, func(a, b geom.Polygon) (geom.Polygon, error) {
		t.Fatal("combine called for a single item")
		return nil, nil
	})
	if err != nil || len(got) != 1 || &got[0][0] != &single[0][0] {
		t.Errorf("single = %v, %v; want the item itself", got, err)
	}
}

// TestIntersectAll: the common region of the set, and the first error of a
// level, in item order, ends the fold.
func TestIntersectAll(t *testing.T) {
	polys := []geom.Polygon{
		geom.RectPolygon(0, 0, 10, 10),
		geom.RectPolygon(2, 0, 12, 10),
		geom.RectPolygon(4, 0, 14, 10),
	}
	if got := foldWith(t, polys, engine.Intersection); math.Abs(got.Area()-60) > 1e-6 {
		t.Errorf("common area = %v, want 60", got.Area())
	}
	// Disjoint operand empties the result.
	polys = append(polys, geom.RectPolygon(100, 100, 101, 101))
	if got := foldWith(t, polys, engine.Intersection); got.Area() > 1e-9 {
		t.Errorf("disjoint intersection = %v", got.Area())
	}
	errs := []error{errors.New("pair 0"), errors.New("pair 1")}
	_, err := ReduceTree(polys, 2, func(a, b geom.Polygon) (geom.Polygon, error) {
		if a[0][0].X == 0 {
			return nil, errs[0]
		}
		return nil, errs[1]
	})
	if !errors.Is(err, errs[0]) {
		t.Errorf("err = %v, want the first pair's", err)
	}
}

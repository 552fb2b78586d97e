package core

import (
	"math"
	"math/rand"
	"testing"

	"polyclip/internal/engine"
	"polyclip/internal/geom"
	"polyclip/internal/overlay"
)

func seqArea(a, b geom.Polygon, op Op) float64 {
	return overlay.Clip(a, b, op, overlay.Options{Parallelism: 1}).Area()
}

func TestClipPairMatchesSequentialRects(t *testing.T) {
	a := geom.RectPolygon(0, 0, 4, 4)
	b := geom.RectPolygon(2, 2, 6, 6)
	for _, op := range []Op{Intersection, Union, Difference, Xor} {
		for _, threads := range []int{1, 2, 4, 7} {
			got, st := ClipPair(a, b, op, Options{Threads: threads})
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
		for _, op := range []Op{Intersection, Union, Difference, Xor} {
			got, _ := ClipPair(a, b, op, Options{Threads: 4})
			want := seqArea(a, b, op)
			if math.Abs(got.Area()-want) > 1e-6*(1+want) {
				t.Errorf("trial %d op=%v: got %v want %v", trial, op, got.Area(), want)
			}
		}
	}
}

func TestClipPairEngines(t *testing.T) {
	a := geom.Polygon{geom.Star(geom.Point{X: 0, Y: 0}, 5, 2, 12, 0.3)}
	b := geom.Polygon{geom.Star(geom.Point{X: 1, Y: 1}, 5, 2, 10, 0.7)}
	want := seqArea(a, b, Intersection)
	for _, name := range []string{"overlay", "vatti"} {
		got, _ := ClipPair(a, b, Intersection, Options{Threads: 4, Engine: engine.MustGet(name)})
		if math.Abs(got.Area()-want) > 1e-6*(1+want) {
			t.Errorf("engine=%s: got %v want %v", name, got.Area(), want)
		}
	}
}

func TestClipPairMergeModes(t *testing.T) {
	a := geom.Polygon{geom.RegularPolygon(geom.Point{X: 0, Y: 0}, 5, 24, 0.1)}
	b := geom.Polygon{geom.RegularPolygon(geom.Point{X: 2, Y: 1}, 5, 18, 0.4)}
	want := seqArea(a, b, Union)
	for _, mode := range []MergeMode{MergeStitch, MergeConcat, MergeUnionTree} {
		// Slabs pinned: these small inputs collapse to one slab under the
		// adaptive count, and the merge modes only run across slab seams.
		got, _ := ClipPair(a, b, Union, Options{Threads: 4, Slabs: 4, Merge: mode})
		// MergeConcat leaves seams: even-odd area preserved; rings may
		// include seam edges, so normalize via the overlay engine.
		area := got.Area()
		if mode == MergeConcat {
			box := got.BBox()
			big := geom.RectPolygon(box.MinX-1, box.MinY-1, box.MaxX+1, box.MaxY+1)
			area = overlay.Clip(got, big, overlay.Intersection, overlay.Options{}).Area()
		}
		if math.Abs(area-want) > 1e-6*(1+want) {
			t.Errorf("merge=%d: got %v want %v", mode, area, want)
		}
	}
}

func TestClipPairMergeStitchRemovesSeams(t *testing.T) {
	a := geom.Polygon{geom.RegularPolygon(geom.Point{X: 0, Y: 0}, 5, 32, 0.1)}
	b := geom.Polygon{geom.RegularPolygon(geom.Point{X: 1, Y: 1}, 5, 32, 0.2)}
	got, st := ClipPair(a, b, Intersection, Options{Threads: 4, Slabs: 4, Merge: MergeStitch})
	if st.Slabs < 2 {
		t.Skip("partitioning produced a single slab")
	}
	if len(got) != 1 {
		t.Errorf("stitched result has %d rings, want 1 convex-ish region", len(got))
	}
}

func TestClipPairPartitionModes(t *testing.T) {
	a := geom.Polygon{geom.Star(geom.Point{X: 0, Y: 0}, 5, 2, 16, 0.3)}
	b := geom.Polygon{geom.Star(geom.Point{X: 1, Y: 0}, 5, 2, 14, 0.9)}
	want := seqArea(a, b, Xor)
	for _, pm := range []PartitionMode{PartitionEvents, PartitionUniform} {
		got, _ := ClipPair(a, b, Xor, Options{Threads: 5, Slabs: 5, Partition: pm})
		if math.Abs(got.Area()-want) > 1e-6*(1+want) {
			t.Errorf("partition=%d: got %v want %v", pm, got.Area(), want)
		}
	}
}

func TestClipPairEmptyInputs(t *testing.T) {
	a := geom.RectPolygon(0, 0, 1, 1)
	if got, _ := ClipPair(nil, a, Intersection, Options{Threads: 4}); got.Area() != 0 {
		t.Errorf("∅∩a = %v", got)
	}
	if got, _ := ClipPair(a, nil, Union, Options{Threads: 4}); math.Abs(got.Area()-1) > 1e-9 {
		t.Errorf("a∪∅ = %v", got.Area())
	}
}

func TestStatsAccounting(t *testing.T) {
	a := geom.Polygon{geom.RegularPolygon(geom.Point{X: 0, Y: 0}, 5, 64, 0.1)}
	b := geom.Polygon{geom.RegularPolygon(geom.Point{X: 1, Y: 1}, 5, 64, 0.2)}
	_, st := ClipPair(a, b, Intersection, Options{Threads: 4})
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
		for _, op := range []Op{Intersection, Union, Difference, Xor} {
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
	_, repFar := AlgorithmOne(a, bFar, Intersection, 2)
	_, repNear := AlgorithmOne(a, bNear, Intersection, 2)
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

func TestClipLayersPairwise(t *testing.T) {
	// Two layers of unit squares on offset grids: every overlap is 0.25.
	var la, lb Layer
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			la = append(la, geom.RectPolygon(float64(2*i), float64(2*j), float64(2*i+1), float64(2*j+1)))
			lb = append(lb, geom.RectPolygon(float64(2*i)+0.5, float64(2*j)+0.5, float64(2*i)+1.5, float64(2*j)+1.5))
		}
	}
	got, st := ClipLayers(la, lb, Intersection, Options{Threads: 4})
	if len(got) != 16 {
		t.Errorf("outputs = %d, want 16", len(got))
	}
	var area float64
	for _, g := range got {
		area += g.Area()
	}
	if math.Abs(area-16*0.25) > 1e-9 {
		t.Errorf("total area = %v, want 4", area)
	}
	if st.Slabs < 1 {
		t.Error("no slabs")
	}
}

func TestClipLayersNoDuplicates(t *testing.T) {
	// A single big pair spanning all slabs must be clipped exactly once.
	la := Layer{geom.RectPolygon(0, 0, 10, 100)}
	lb := Layer{geom.RectPolygon(5, 0, 15, 100)}
	// Add some small features to force multiple slabs.
	for i := 0; i < 16; i++ {
		la = append(la, geom.RectPolygon(20, float64(i*6), 21, float64(i*6+1)))
	}
	got, st := ClipLayers(la, lb, Intersection, Options{Threads: 8})
	if st.Slabs < 2 {
		t.Skip("single slab")
	}
	if len(got) != 1 {
		t.Fatalf("outputs = %d, want 1 (no replication duplicates)", len(got))
	}
	if math.Abs(got[0].Area()-500) > 1e-6 {
		t.Errorf("area = %v, want 500", got[0].Area())
	}
}

// TestClipLayersMergedUnion checks the merged-layer overlay: each layer is
// fused into one even-odd region and the regions are clipped as one pair,
// so a whole-layer union matches the sequential union of the fused layers.
func TestClipLayersMergedUnion(t *testing.T) {
	la := Layer{geom.RectPolygon(0, 0, 2, 2), geom.RectPolygon(4, 0, 6, 2)}
	lb := Layer{geom.RectPolygon(1, 1, 5, 3)}
	got, _ := ClipPair(flatten(la), flatten(lb), Union, Options{Threads: 3})
	want := seqArea(flatten(la), flatten(lb), Union)
	if math.Abs(got.Area()-want) > 1e-6 {
		t.Errorf("merged union = %v, want %v", got.Area(), want)
	}
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
	b := slabBoundaries(ys, 3, PartitionEvents)
	if b[0] != 0 || b[len(b)-1] != 9 {
		t.Errorf("bounds = %v", b)
	}
	if len(b) != 4 {
		t.Errorf("bounds = %v, want 4 entries", b)
	}
	u := slabBoundaries(ys, 3, PartitionUniform)
	if math.Abs(u[1]-3) > 1e-12 || math.Abs(u[2]-6) > 1e-12 {
		t.Errorf("uniform bounds = %v", u)
	}
	// Degenerate: all events equal.
	d := slabBoundaries([]float64{5, 5, 5}, 4, PartitionEvents)
	if len(d) != 2 {
		t.Errorf("degenerate bounds = %v", d)
	}
}

func TestUnionAllGrid(t *testing.T) {
	// 4x4 grid of unit squares sharing edges dissolves into one 4x4 square.
	var polys []geom.Polygon
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			polys = append(polys, geom.RectPolygon(float64(i), float64(j), float64(i+1), float64(j+1)))
		}
	}
	got := UnionAll(polys, 4)
	if math.Abs(got.Area()-16) > 1e-6 {
		t.Errorf("dissolved area = %v, want 16", got.Area())
	}
	if len(got) != 1 {
		t.Errorf("rings = %d, want 1", len(got))
	}
}

func TestUnionAllEmptyAndSingle(t *testing.T) {
	if got := UnionAll(nil, 2); got != nil {
		t.Errorf("UnionAll(nil) = %v", got)
	}
	single := []geom.Polygon{geom.RectPolygon(0, 0, 1, 1)}
	if got := UnionAll(single, 2); math.Abs(got.Area()-1) > 1e-12 {
		t.Errorf("single = %v", got.Area())
	}
}

func TestIntersectAll(t *testing.T) {
	polys := []geom.Polygon{
		geom.RectPolygon(0, 0, 10, 10),
		geom.RectPolygon(2, 0, 12, 10),
		geom.RectPolygon(4, 0, 14, 10),
	}
	got := IntersectAll(polys, 2)
	if math.Abs(got.Area()-60) > 1e-6 {
		t.Errorf("common area = %v, want 60", got.Area())
	}
	// Disjoint operand empties the result.
	polys = append(polys, geom.RectPolygon(100, 100, 101, 101))
	if got := IntersectAll(polys, 2); got.Area() > 1e-9 {
		t.Errorf("disjoint IntersectAll = %v", got.Area())
	}
	if got := IntersectAll(nil, 2); got != nil {
		t.Errorf("IntersectAll(nil) = %v", got)
	}
}

package data

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"polyclip/internal/engine"
	"polyclip/internal/geom"
	"polyclip/internal/overlay"
)

func TestJitteredPolygonSimple(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(40)
		ring := JitteredPolygon(rng, geom.Point{X: 0, Y: 0}, 5, 10, n)
		if len(ring) != n {
			t.Fatalf("edges = %d, want %d", len(ring), n)
		}
		// Star-shaped rings must be simple: no proper edge crossings.
		edges := ring.Edges(nil)
		for i := range edges {
			for j := i + 1; j < len(edges); j++ {
				if geom.SegmentsCross(edges[i], edges[j]) {
					t.Fatalf("trial %d: self-intersection", trial)
				}
			}
		}
		if ring.Area() <= 0 {
			t.Fatal("degenerate ring")
		}
	}
}

func TestJitteredPolygonMinVertices(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if got := len(JitteredPolygon(rng, geom.Point{}, 1, 2, 1)); got != 3 {
		t.Errorf("n clamped to %d, want 3", got)
	}
}

func TestSyntheticPairOverlaps(t *testing.T) {
	subject, clip := SyntheticPair(7, 500, 300)
	if subject.NumVertices() != 500 || clip.NumVertices() != 300 {
		t.Errorf("sizes: %d %d", subject.NumVertices(), clip.NumVertices())
	}
	inter, _ := overlay.Clip(context.Background(), subject, clip, engine.Intersection, engine.Options{})
	if inter.Area() <= 0 {
		t.Error("synthetic pair does not overlap")
	}
}

func TestSyntheticPairDeterministic(t *testing.T) {
	a1, _ := SyntheticPair(9, 100, 100)
	a2, _ := SyntheticPair(9, 100, 100)
	if a1[0][0] != a2[0][0] || a1[0][50] != a2[0][50] {
		t.Error("same seed produced different polygons")
	}
	b1, _ := SyntheticPair(10, 100, 100)
	if a1[0][0] == b1[0][0] {
		t.Error("different seeds produced identical polygons")
	}
}

func TestSelfIntersectingPair(t *testing.T) {
	subject, clip := SelfIntersectingPair(3, 9)
	edges := subject.Edges()
	crossings := 0
	for i := range edges {
		for j := i + 1; j < len(edges); j++ {
			if geom.SegmentsCross(edges[i], edges[j]) {
				crossings++
			}
		}
	}
	if crossings == 0 {
		t.Error("subject is not self-intersecting")
	}
	if clip.NumVertices() == 0 {
		t.Error("empty clip")
	}
	// Even n is bumped to odd so the stride-2 star closes through all
	// vertices.
	s2, _ := SelfIntersectingPair(3, 8)
	if s2.NumVertices()%2 == 0 {
		t.Errorf("even vertex count %d", s2.NumVertices())
	}
}

func TestLayerMatchesDescriptorScaled(t *testing.T) {
	d := TableIII[0]
	layer := Layer(d, 0.01, 42)
	st := Stats(layer)
	wantPolys := int(float64(d.Polys) * 0.01)
	if st.Polys != wantPolys {
		t.Errorf("polys = %d, want %d", st.Polys, wantPolys)
	}
	wantEdges := float64(d.Edges) * 0.01
	if math.Abs(float64(st.Edges)-wantEdges) > 0.25*wantEdges {
		t.Errorf("edges = %d, want ~%v", st.Edges, wantEdges)
	}
	// Mean edge length within a factor of 3 of the descriptor (the
	// lognormal reshaping spreads it).
	if st.MeanEdgeLen < d.MeanEdgeLen/3 || st.MeanEdgeLen > d.MeanEdgeLen*3 {
		t.Errorf("mean edge length = %v, want ~%v", st.MeanEdgeLen, d.MeanEdgeLen)
	}
}

func TestLayerFeaturesAreSimplePolygons(t *testing.T) {
	layer := Layer(TableIII[1], 0.005, 11)
	for fi, f := range layer {
		if len(f) != 1 || len(f[0]) < 3 {
			t.Fatalf("feature %d malformed", fi)
		}
		if f.Area() <= 0 {
			t.Fatalf("feature %d degenerate", fi)
		}
	}
}

func TestLayerHeavyTail(t *testing.T) {
	layer := Layer(TableIII[1], 0.05, 13)
	sizes := make([]int, len(layer))
	maxSize, sum := 0, 0
	for i, f := range layer {
		sizes[i] = f.NumVertices()
		sum += sizes[i]
		if sizes[i] > maxSize {
			maxSize = sizes[i]
		}
	}
	mean := float64(sum) / float64(len(sizes))
	if float64(maxSize) < 3*mean {
		t.Errorf("no heavy tail: max=%d mean=%v", maxSize, mean)
	}
}

func TestDescriptorByName(t *testing.T) {
	if _, ok := DescriptorByName("ne_10m_urban_areas"); !ok {
		t.Error("urban areas descriptor missing")
	}
	if _, ok := DescriptorByName("nope"); ok {
		t.Error("bogus name found")
	}
}

func TestOverlapLayerProducesOverlaps(t *testing.T) {
	layer := Layer(TableIII[0], 0.005, 17)
	other := OverlapLayer(layer, 18)
	if len(other) != len(layer) {
		t.Fatalf("size mismatch")
	}
	overlaps := 0
	for i := range layer {
		if layer[i].BBox().Intersects(other[i].BBox()) {
			overlaps++
		}
	}
	if overlaps < len(layer)/2 {
		t.Errorf("only %d/%d features overlap their counterpart", overlaps, len(layer))
	}
}

func TestStatsEmpty(t *testing.T) {
	st := Stats(nil)
	if st.Polys != 0 || st.Edges != 0 || st.MeanEdgeLen != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestInterleavedPairManyCrossings(t *testing.T) {
	subject, clip := InterleavedPair(3, 120)
	edges := append(subject.Edges(), clip.Edges()...)
	crossings := 0
	for i := range edges {
		for j := i + 1; j < len(edges); j++ {
			if geom.SegmentsCross(edges[i], edges[j]) {
				crossings++
			}
		}
	}
	if crossings < 30 {
		t.Errorf("crossings = %d, want Θ(n)", crossings)
	}
	// Both operands simple on their own (star-shaped).
	if !subject[0].IsSimple() || !clip[0].IsSimple() {
		t.Error("operands should be simple")
	}
	// Clamps small n.
	s2, _ := InterleavedPair(3, 2)
	if s2.NumVertices() < 8 {
		t.Errorf("n clamp failed: %d", s2.NumVertices())
	}
}

package overlay

import (
	"math"
	"testing"

	"polyclip/internal/engine"
	"polyclip/internal/geom"
)

// Degenerate and adversarial input shapes: the engine must not crash and
// must keep areas consistent with the pointwise oracle.

func TestDegenerateDuplicateVertices(t *testing.T) {
	a := geom.Polygon{geom.Ring{
		{X: 0, Y: 0}, {X: 0, Y: 0}, {X: 4, Y: 0}, {X: 4, Y: 4}, {X: 4, Y: 4}, {X: 0, Y: 4},
	}}
	b := geom.RectPolygon(2, 2, 6, 6)
	got := clipPoly(a, b, engine.Intersection, engine.Options{})
	if math.Abs(got.Area()-4) > 1e-6 {
		t.Errorf("area = %v, want 4", got.Area())
	}
}

func TestDegenerateCollinearVertices(t *testing.T) {
	a := geom.Polygon{geom.Ring{
		{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 4, Y: 0}, {X: 4, Y: 2}, {X: 4, Y: 4}, {X: 0, Y: 4},
	}}
	b := geom.RectPolygon(1, 1, 3, 3)
	got := clipPoly(a, b, engine.Intersection, engine.Options{})
	if math.Abs(got.Area()-4) > 1e-6 {
		t.Errorf("area = %v, want 4", got.Area())
	}
}

func TestDegenerateTinyRing(t *testing.T) {
	a := geom.Polygon{
		geom.Rect(0, 0, 4, 4),
		geom.Rect(10, 10, 10.000000001, 10.000000001), // sliver far away
	}
	b := geom.RectPolygon(2, 2, 6, 6)
	got := clipPoly(a, b, engine.Intersection, engine.Options{})
	if math.Abs(got.Area()-4) > 1e-6 {
		t.Errorf("area = %v, want 4", got.Area())
	}
}

func TestDegenerateTwoVertexRing(t *testing.T) {
	a := geom.Polygon{
		geom.Rect(0, 0, 4, 4),
		geom.Ring{{X: 9, Y: 9}, {X: 10, Y: 10}}, // not a polygon: dropped
	}
	b := geom.RectPolygon(2, 2, 6, 6)
	got := clipPoly(a, b, engine.Intersection, engine.Options{})
	if math.Abs(got.Area()-4) > 1e-6 {
		t.Errorf("area = %v, want 4", got.Area())
	}
}

func TestDegenerateSpike(t *testing.T) {
	// Zero-area spike protruding from a square: cancels under even-odd.
	a := geom.Polygon{geom.Ring{
		{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 4, Y: 2}, {X: 6, Y: 2}, {X: 4, Y: 2},
		{X: 4, Y: 4}, {X: 0, Y: 4},
	}}
	b := geom.RectPolygon(-1, -1, 5, 5)
	got := clipPoly(a, b, engine.Intersection, engine.Options{})
	if math.Abs(got.Area()-16) > 1e-6 {
		t.Errorf("area = %v, want 16 (spike cancels)", got.Area())
	}
}

func TestDegenerateVertexOnEdge(t *testing.T) {
	// b has a vertex exactly on a's edge.
	a := geom.RectPolygon(0, 0, 4, 4)
	b := geom.Polygon{geom.Ring{{X: 4, Y: 2}, {X: 6, Y: 0}, {X: 8, Y: 2}, {X: 6, Y: 4}}}
	got := clipPoly(a, b, engine.Union, engine.Options{})
	want := 16.0 + 8.0 // square + diamond, touching at one point
	if math.Abs(got.Area()-want) > 1e-6 {
		t.Errorf("area = %v, want %v", got.Area(), want)
	}
	gotI := clipPoly(a, b, engine.Intersection, engine.Options{})
	if gotI.Area() > 1e-9 {
		t.Errorf("touch intersection area = %v", gotI.Area())
	}
}

func TestDegenerateEdgeThroughVertexFan(t *testing.T) {
	// Several of a's edges fan out of a vertex that lies on b's edge.
	a := geom.Polygon{geom.Ring{
		{X: 2, Y: 0}, {X: 4, Y: -2}, {X: 6, Y: 0}, {X: 4, Y: 6},
	}}
	b := geom.RectPolygon(0, 0, 8, 4)
	got := clipPoly(a, b, engine.Intersection, engine.Options{})
	oracle := clipPoly(b, a, engine.Intersection, engine.Options{})
	if math.Abs(got.Area()-oracle.Area()) > 1e-6 {
		t.Errorf("asymmetry: %v vs %v", got.Area(), oracle.Area())
	}
}

func TestDegenerateSharedEdgeSegments(t *testing.T) {
	// Subject and clip share a partial edge (collinear overlap).
	a := geom.RectPolygon(0, 0, 4, 4)
	b := geom.RectPolygon(1, 4, 3, 8) // b's bottom lies inside a's top edge
	got := clipPoly(a, b, engine.Union, engine.Options{})
	if math.Abs(got.Area()-24) > 1e-6 {
		t.Errorf("area = %v, want 24", got.Area())
	}
	gotX := clipPoly(a, b, engine.Xor, engine.Options{})
	if math.Abs(gotX.Area()-24) > 1e-6 {
		t.Errorf("xor area = %v, want 24", gotX.Area())
	}
}

func TestDegenerateIdenticalRingTwiceInOneOperand(t *testing.T) {
	// The same ring twice in the subject cancels under even-odd.
	r := geom.Rect(0, 0, 4, 4)
	a := geom.Polygon{r, r.Clone()}
	b := geom.RectPolygon(-1, -1, 5, 5)
	got := clipPoly(a, b, engine.Intersection, engine.Options{})
	if got.Area() > 1e-9 {
		t.Errorf("double ring should cancel, area = %v", got.Area())
	}
}

func TestDegenerateNeedleQuad(t *testing.T) {
	// Extremely thin sliver polygon.
	a := geom.Polygon{geom.Ring{
		{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 10, Y: 1e-7}, {X: 0, Y: 1e-7},
	}}
	b := geom.RectPolygon(2, -1, 8, 1)
	got := clipPoly(a, b, engine.Intersection, engine.Options{})
	want := 6 * 1e-7
	if math.Abs(got.Area()-want) > want*1e-3 {
		t.Errorf("needle area = %v, want %v", got.Area(), want)
	}
}

func TestDegenerateHugeCoordinates(t *testing.T) {
	const M = 1e9
	a := geom.RectPolygon(M, M, M+4, M+4)
	b := geom.RectPolygon(M+2, M+2, M+6, M+6)
	got := clipPoly(a, b, engine.Intersection, engine.Options{})
	if math.Abs(got.Area()-4) > 1e-3 {
		t.Errorf("huge-coordinate area = %v, want 4", got.Area())
	}
}

func TestDegenerateNegativeCoordinates(t *testing.T) {
	a := geom.RectPolygon(-8, -8, -4, -4)
	b := geom.RectPolygon(-6, -6, -2, -2)
	got := clipPoly(a, b, engine.Intersection, engine.Options{})
	if math.Abs(got.Area()-4) > 1e-6 {
		t.Errorf("area = %v, want 4", got.Area())
	}
}

func TestDegenerateAllRingsDegenerate(t *testing.T) {
	a := geom.Polygon{geom.Ring{{X: 0, Y: 0}, {X: 1, Y: 1}}}
	b := geom.RectPolygon(0, 0, 2, 2)
	got := clipPoly(a, b, engine.Union, engine.Options{})
	if math.Abs(got.Area()-4) > 1e-9 {
		t.Errorf("area = %v, want 4 (degenerate subject ignored)", got.Area())
	}
}

func TestDegenerateCrossShapedSelfOverlap(t *testing.T) {
	// One ring drawn as a plus sign traversing its own center region twice
	// is equivalent to xor of two bars under even-odd.
	cross := geom.Polygon{
		geom.Rect(2, 0, 4, 6),
		geom.Rect(0, 2, 6, 4),
	}
	big := geom.RectPolygon(-1, -1, 7, 7)
	got := clipPoly(cross, big, engine.Intersection, engine.Options{})
	// Even-odd: two bars overlap in the middle square (2..4)² which cancels:
	// 12 + 12 - 2*4 = 16.
	if math.Abs(got.Area()-16) > 1e-6 {
		t.Errorf("cross area = %v, want 16", got.Area())
	}
	checkParity(t, "cross", cross, big, got, engine.Intersection, 2000, 991)
}

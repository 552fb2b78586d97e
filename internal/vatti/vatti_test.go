package vatti

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"polyclip/internal/data"
	"polyclip/internal/engine"
	"polyclip/internal/geom"
	"polyclip/internal/overlay"
	"polyclip/internal/scanbeam"
)

func checkArea(t *testing.T, name string, subj, clip geom.Polygon, op engine.Op, want float64) geom.Polygon {
	t.Helper()
	got := Clip(subj, clip, op, engine.Options{})
	if a := got.Area(); math.Abs(a-want) > 1e-6*(1+want) {
		t.Errorf("%s: area = %v, want %v (rings=%d)", name, a, want, len(got))
	}
	return got
}

func TestRectRectAllOps(t *testing.T) {
	a := geom.RectPolygon(0, 0, 4, 4)
	b := geom.RectPolygon(2, 2, 6, 6)
	checkArea(t, "∩", a, b, engine.Intersection, 4)
	checkArea(t, "∪", a, b, engine.Union, 28)
	checkArea(t, "−", a, b, engine.Difference, 12)
	checkArea(t, "⊕", a, b, engine.Xor, 24)
}

func TestTrapezoidDecompositionAreas(t *testing.T) {
	a := geom.RectPolygon(0, 0, 4, 4)
	b := geom.RectPolygon(2, 2, 6, 6)
	tzs := Trapezoids(a, b, engine.Intersection, engine.EvenOdd)
	var sum float64
	for _, tz := range tzs {
		sum += tz.Area()
	}
	if math.Abs(sum-4) > 1e-6 {
		t.Errorf("trapezoid area sum = %v, want 4", sum)
	}
}

func TestTrapezoidRing(t *testing.T) {
	tz := engine.Trapezoid{
		L1: geom.Point{X: 0, Y: 0}, R1: geom.Point{X: 4, Y: 0},
		L2: geom.Point{X: 1, Y: 2}, R2: geom.Point{X: 3, Y: 2},
	}
	r := tz.Ring()
	if len(r) != 4 {
		t.Fatalf("ring = %v", r)
	}
	if !r.IsCCW() {
		t.Error("trapezoid ring should be CCW")
	}
	if math.Abs(tz.Area()-6) > 1e-12 {
		t.Errorf("area = %v, want 6", tz.Area())
	}
	// Degenerate to triangle.
	tri := engine.Trapezoid{
		L1: geom.Point{X: 0, Y: 0}, R1: geom.Point{X: 2, Y: 0},
		L2: geom.Point{X: 1, Y: 2}, R2: geom.Point{X: 1, Y: 2},
	}
	if got := len(tri.Ring()); got != 3 {
		t.Errorf("triangle ring has %d vertices", got)
	}
}

func TestHoleOutput(t *testing.T) {
	outer := geom.RectPolygon(0, 0, 10, 10)
	inner := geom.RectPolygon(3, 3, 7, 7)
	got := checkArea(t, "hole", outer, inner, engine.Difference, 84)
	if len(got) != 2 {
		t.Errorf("rings = %d, want 2", len(got))
	}
}

func TestEmptyAndDisjoint(t *testing.T) {
	a := geom.RectPolygon(0, 0, 1, 1)
	b := geom.RectPolygon(5, 5, 6, 6)
	if got := Clip(a, b, engine.Intersection, engine.Options{}); got.Area() != 0 {
		t.Errorf("disjoint ∩ = %v", got)
	}
	checkArea(t, "disjoint ∪", a, b, engine.Union, 2)
	if got := Clip(nil, nil, engine.Union, engine.Options{}); got != nil {
		t.Errorf("∅∪∅ = %v", got)
	}
}

func TestSelfIntersecting(t *testing.T) {
	bt := geom.Polygon{geom.BowTie(0, 0, 2, 2)}
	big := geom.RectPolygon(-1, -1, 3, 3)
	checkArea(t, "bowtie∩big", bt, big, engine.Intersection, 2)
}

func TestAgainstOverlayEngineRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 15; trial++ {
		a := geom.Polygon{geom.Star(geom.Point{X: rng.Float64() * 3, Y: rng.Float64() * 3}, 4, 1.5, 4+rng.Intn(7), rng.Float64())}
		b := geom.Polygon{geom.Star(geom.Point{X: rng.Float64() * 3, Y: rng.Float64() * 3}, 4, 1.5, 4+rng.Intn(7), rng.Float64())}
		for _, op := range []engine.Op{engine.Intersection, engine.Union, engine.Difference, engine.Xor} {
			va := Clip(a, b, op, engine.Options{}).Area()
			o, _ := overlay.Clip(context.Background(), a, b, op, engine.Options{})
			oa := o.Area()
			if math.Abs(va-oa) > 1e-6*(1+oa) {
				t.Errorf("trial %d %v: vatti=%v overlay=%v", trial, op, va, oa)
			}
		}
	}
}

func TestAgainstOverlaySelfIntersecting(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 8; trial++ {
		a := geom.Polygon{geom.SelfIntersectingStar(geom.Point{X: rng.Float64(), Y: rng.Float64()}, 5, 5, rng.Float64())}
		b := geom.Polygon{geom.SelfIntersectingStar(geom.Point{X: 1 + rng.Float64(), Y: rng.Float64()}, 5, 7, rng.Float64())}
		for _, op := range []engine.Op{engine.Intersection, engine.Union, engine.Difference, engine.Xor} {
			va := Clip(a, b, op, engine.Options{}).Area()
			o, _ := overlay.Clip(context.Background(), a, b, op, engine.Options{})
			oa := o.Area()
			if math.Abs(va-oa) > 1e-6*(1+oa) {
				t.Errorf("trial %d %v: vatti=%v overlay=%v", trial, op, va, oa)
			}
		}
	}
}

func TestAssembleSingleTrapezoid(t *testing.T) {
	tz := engine.Trapezoid{
		L1: geom.Point{X: 0, Y: 0}, R1: geom.Point{X: 2, Y: 0},
		L2: geom.Point{X: 0, Y: 1}, R2: geom.Point{X: 2, Y: 1},
	}
	got := Assemble([]scanbeam.Piece{{Trapezoid: tz, Left: 0, Right: 1}})
	if len(got) != 1 || math.Abs(got[0].Area()-2) > 1e-12 {
		t.Errorf("got %v", got)
	}
}

func TestAssembleStackedTrapezoidsFuse(t *testing.T) {
	pieces := []scanbeam.Piece{
		{Trapezoid: engine.Trapezoid{L1: geom.Point{X: 0, Y: 0}, R1: geom.Point{X: 2, Y: 0}, L2: geom.Point{X: 0, Y: 1}, R2: geom.Point{X: 2, Y: 1}}, Left: 0, Right: 1},
		{Trapezoid: engine.Trapezoid{L1: geom.Point{X: 0, Y: 1}, R1: geom.Point{X: 2, Y: 1}, L2: geom.Point{X: 0, Y: 2}, R2: geom.Point{X: 2, Y: 2}}, Left: 0, Right: 1},
	}
	got := Assemble(pieces)
	if len(got) != 1 {
		t.Fatalf("rings = %d, want 1 (caps must cancel)", len(got))
	}
	if math.Abs(got[0].Area()-4) > 1e-12 {
		t.Errorf("area = %v", got[0].Area())
	}
	// The sides of edges 0 and 1 join across the cancelled seam at y = 1.
	if len(got[0]) != 4 {
		t.Errorf("ring %v has %d vertices, want 4 (no virtual vertex at y = 1)", got[0], len(got[0]))
	}
}

func TestAssemblePartialCapOverlap(t *testing.T) {
	// Upper trapezoid narrower than lower: caps cancel only on the shared
	// x-range.
	pieces := []scanbeam.Piece{
		{Trapezoid: engine.Trapezoid{L1: geom.Point{X: 0, Y: 0}, R1: geom.Point{X: 4, Y: 0}, L2: geom.Point{X: 0, Y: 1}, R2: geom.Point{X: 4, Y: 1}}, Left: 0, Right: 1},
		{Trapezoid: engine.Trapezoid{L1: geom.Point{X: 1, Y: 1}, R1: geom.Point{X: 3, Y: 1}, L2: geom.Point{X: 1, Y: 2}, R2: geom.Point{X: 3, Y: 2}}, Left: 2, Right: 3},
	}
	got := Assemble(pieces)
	area := 0.0
	for _, r := range got {
		area += math.Abs(r.SignedArea())
	}
	if math.Abs(area-6) > 1e-12 {
		t.Errorf("area = %v, want 6 (rings=%d)", area, len(got))
	}
}

func TestAssembleKeepsJointWhereNetCapEnds(t *testing.T) {
	// Edge 0 bounds A on the left in the lower beam and B in the upper one;
	// C's right side, edge 4, coincides with edge 0 in the lower beam, and
	// C's top cap ends at (0,1). Joining edge 0's sides across (0,1) would
	// leave C's right side nothing to cancel against and the cap a dangling
	// end: the joint must stay a vertex.
	pieces := []scanbeam.Piece{
		{Trapezoid: engine.Trapezoid{L1: geom.Point{X: -2, Y: 0}, R1: geom.Point{X: 0, Y: 0}, L2: geom.Point{X: -2, Y: 1}, R2: geom.Point{X: 0, Y: 1}}, Left: 3, Right: 4},
		{Trapezoid: engine.Trapezoid{L1: geom.Point{X: 0, Y: 0}, R1: geom.Point{X: 2, Y: 0}, L2: geom.Point{X: 0, Y: 1}, R2: geom.Point{X: 2, Y: 1}}, Left: 0, Right: 1},
		{Trapezoid: engine.Trapezoid{L1: geom.Point{X: 0, Y: 1}, R1: geom.Point{X: 1, Y: 1}, L2: geom.Point{X: 0, Y: 2}, R2: geom.Point{X: 1, Y: 2}}, Left: 0, Right: 2},
	}
	got := Assemble(pieces)
	if len(got) != 1 || math.Abs(got.Area()-5) > 1e-12 || math.Abs(got[0].SignedArea()-5) > 1e-12 {
		t.Fatalf("got %v (area %g), want one CCW ring of area 5", got, got.Area())
	}
	if !slices.Contains(got[0], geom.Point{X: 0, Y: 1}) {
		t.Errorf("ring %v lost the joint (0,1)", got[0])
	}
}

func TestConcaveViaVatti(t *testing.T) {
	u := geom.Polygon{geom.Ring{
		{X: 0, Y: 0}, {X: 6, Y: 0}, {X: 6, Y: 5}, {X: 4, Y: 5},
		{X: 4, Y: 2}, {X: 2, Y: 2}, {X: 2, Y: 5}, {X: 0, Y: 5},
	}}
	r := geom.RectPolygon(1, 1, 5, 4)
	checkArea(t, "u∩r", u, r, engine.Intersection, 8)
	checkArea(t, "u∪r", u, r, engine.Union, u.Area()+12-8)
}

func TestMultiPolygonOutput(t *testing.T) {
	// H-shaped clip against a horizontal band gives two separate rectangles.
	a := geom.Polygon{geom.Rect(0, 0, 1, 3), geom.Rect(2, 0, 3, 3)}
	band := geom.RectPolygon(-1, 1, 4, 2)
	got := checkArea(t, "band∩bars", band, a, engine.Intersection, 2)
	if len(got) != 2 {
		t.Errorf("rings = %d, want 2", len(got))
	}
}

// hexPair is a 12-edge pair clip: two overlapping hexagons, the size of a
// batch overlay's feature pair.
func hexPair() (hexA, hexB geom.Polygon) {
	return geom.Polygon{geom.RegularPolygon(geom.Point{}, 10, 6, 0)},
		geom.Polygon{geom.RegularPolygon(geom.Point{X: 5, Y: 3}, 10, 6, 0.3)}
}

// assembleInputs are the trapezoids BenchmarkAssemble and the allocation
// pin merge: the difference of two hexagons (a 12-edge pair clip, 8
// trapezoids) and the union of two 2048-edge polygons.
func assembleInputs() []struct {
	name   string
	pieces []scanbeam.Piece
} {
	hexA, hexB := hexPair()
	a, b := data.SyntheticPair(1, 2048, 2048)
	return []struct {
		name   string
		pieces []scanbeam.Piece
	}{
		{"pair=12", sweep(hexA, hexB, engine.Difference, engine.Options{})},
		{"union=4096", sweep(a, b, engine.Union, engine.Options{})},
	}
}

func TestAssembleAllocs(t *testing.T) {
	in := assembleInputs()[0]
	if len(in.pieces) != 8 {
		t.Fatalf("%s: %d trapezoids, want 8", in.name, len(in.pieces))
	}
	if got := testing.AllocsPerRun(50, func() { Assemble(in.pieces) }); got != 15 {
		t.Errorf("%s: Assemble allocates %v objects/op, pinned at 15", in.name, got)
	}
}

// TestPairClipAllocs pins the allocations of a whole 12-edge pair clip —
// resolve, the start order of the sweep, beam walk and merge — under every
// op.
func TestPairClipAllocs(t *testing.T) {
	hexA, hexB := hexPair()
	for _, c := range []struct {
		op   engine.Op
		want float64
	}{
		{engine.Intersection, 28}, {engine.Union, 29}, {engine.Difference, 28}, {engine.Xor, 30},
	} {
		if got := testing.AllocsPerRun(50, func() { Clip(hexA, hexB, c.op, engine.Options{}) }); got != c.want {
			t.Errorf("%v: Clip allocates %v objects/op, pinned at %v", c.op, got, c.want)
		}
	}
}

func BenchmarkAssemble(b *testing.B) {
	for _, in := range assembleInputs() {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Assemble(in.pieces)
			}
		})
	}
}

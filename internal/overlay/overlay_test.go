package overlay

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"polyclip/internal/engine"
	"polyclip/internal/geom"
)

// ring builds a geom.Ring from coordinate pairs.
func ring(pts ...[2]float64) geom.Ring {
	r := make(geom.Ring, len(pts))
	for i, p := range pts {
		r[i] = geom.Point{X: p[0], Y: p[1]}
	}
	return r
}

// clipPoly is Clip without a deadline, its error dropped: only a cancelled
// context makes Clip fail.
func clipPoly(subject, clip geom.Polygon, op engine.Op, opt engine.Options) geom.Polygon {
	out, _ := Clip(context.Background(), subject, clip, op, opt)
	return out
}

// checkArea clips and verifies the result area within tolerance.
func checkArea(t *testing.T, name string, subj, clip geom.Polygon, op engine.Op, want float64) geom.Polygon {
	t.Helper()
	got := clipPoly(subj, clip, op, engine.Options{})
	if a := got.Area(); math.Abs(a-want) > 1e-6*(1+want) {
		t.Errorf("%s: area = %v, want %v (rings=%d)", name, a, want, len(got))
	}
	return got
}

// checkParity Monte-Carlo-validates result against the pointwise boolean
// oracle, skipping samples near any boundary.
func checkParity(t *testing.T, name string, subj, clip, result geom.Polygon, op engine.Op, samples int, seed int64) {
	t.Helper()
	box := subj.BBox().Union(clip.BBox())
	if box.IsEmpty() {
		return
	}
	margin := math.Max(box.Width(), box.Height()) * 0.1
	var allEdges []geom.Segment
	allEdges = append(allEdges, subj.Edges()...)
	allEdges = append(allEdges, clip.Edges()...)
	allEdges = append(allEdges, result.Edges()...)
	minDist := math.Max(box.Width(), box.Height()) * 1e-5

	rng := rand.New(rand.NewSource(seed))
	bad := 0
	tested := 0
	for i := 0; i < samples; i++ {
		pt := geom.Point{
			X: box.MinX - margin + rng.Float64()*(box.Width()+2*margin),
			Y: box.MinY - margin + rng.Float64()*(box.Height()+2*margin),
		}
		tooClose := false
		for _, e := range allEdges {
			if e.DistToPoint(pt) < minDist {
				tooClose = true
				break
			}
		}
		if tooClose {
			continue
		}
		tested++
		want := op.Eval(subj.ContainsPoint(pt), clip.ContainsPoint(pt))
		if got := result.ContainsPoint(pt); got != want {
			bad++
			if bad <= 3 {
				t.Errorf("%s: point %v: result says %v, oracle says %v", name, pt, got, want)
			}
		}
	}
	if bad > 0 {
		t.Errorf("%s: %d/%d mismatched samples", name, bad, tested)
	}
}

func TestRectRectIntersection(t *testing.T) {
	a := geom.RectPolygon(0, 0, 4, 4)
	b := geom.RectPolygon(2, 2, 6, 6)
	got := checkArea(t, "rect∩rect", a, b, engine.Intersection, 4)
	if len(got) != 1 {
		t.Errorf("rings = %d, want 1", len(got))
	}
	checkParity(t, "rect∩rect", a, b, got, engine.Intersection, 2000, 1)
}

func TestRectRectUnion(t *testing.T) {
	a := geom.RectPolygon(0, 0, 4, 4)
	b := geom.RectPolygon(2, 2, 6, 6)
	got := checkArea(t, "rect∪rect", a, b, engine.Union, 16+16-4)
	checkParity(t, "rect∪rect", a, b, got, engine.Union, 2000, 2)
}

func TestRectRectDifference(t *testing.T) {
	a := geom.RectPolygon(0, 0, 4, 4)
	b := geom.RectPolygon(2, 2, 6, 6)
	got := checkArea(t, "rect−rect", a, b, engine.Difference, 12)
	checkParity(t, "rect−rect", a, b, got, engine.Difference, 2000, 3)
}

func TestRectRectXor(t *testing.T) {
	a := geom.RectPolygon(0, 0, 4, 4)
	b := geom.RectPolygon(2, 2, 6, 6)
	got := checkArea(t, "rect⊕rect", a, b, engine.Xor, 24)
	checkParity(t, "rect⊕rect", a, b, got, engine.Xor, 2000, 4)
}

func TestDisjointOperands(t *testing.T) {
	a := geom.RectPolygon(0, 0, 1, 1)
	b := geom.RectPolygon(5, 5, 6, 6)
	if got := clipPoly(a, b, engine.Intersection, engine.Options{}); got != nil {
		t.Errorf("disjoint ∩ = %v", got)
	}
	checkArea(t, "disjoint ∪", a, b, engine.Union, 2)
	checkArea(t, "disjoint −", a, b, engine.Difference, 1)
	checkArea(t, "disjoint ⊕", a, b, engine.Xor, 2)
}

func TestEmptyOperands(t *testing.T) {
	a := geom.RectPolygon(0, 0, 2, 2)
	if got := clipPoly(a, nil, engine.Intersection, engine.Options{}); got != nil {
		t.Errorf("a∩∅ = %v", got)
	}
	checkArea(t, "a∪∅", a, nil, engine.Union, 4)
	checkArea(t, "∅∪a", nil, a, engine.Union, 4)
	checkArea(t, "a−∅", a, nil, engine.Difference, 4)
	if got := clipPoly(nil, a, engine.Intersection, engine.Options{}); got != nil {
		t.Errorf("∅∩a = %v", got)
	}
}

func TestContainedRectHoleViaDifference(t *testing.T) {
	outer := geom.RectPolygon(0, 0, 10, 10)
	inner := geom.RectPolygon(3, 3, 7, 7)
	got := checkArea(t, "outer−inner", outer, inner, engine.Difference, 100-16)
	if len(got) != 2 {
		t.Errorf("rings = %d, want 2 (outer + hole)", len(got))
	}
	// Exactly one CCW outer and one CW hole.
	ccw, cw := 0, 0
	for _, r := range got {
		if r.IsCCW() {
			ccw++
		} else {
			cw++
		}
	}
	if ccw != 1 || cw != 1 {
		t.Errorf("orientations: %d ccw, %d cw", ccw, cw)
	}
	checkParity(t, "outer−inner", outer, inner, got, engine.Difference, 3000, 5)
}

func TestIdenticalPolygons(t *testing.T) {
	a := geom.Polygon{geom.RegularPolygon(geom.Point{X: 0, Y: 0}, 5, 8, 0.2)}
	area := a.Area()
	checkArea(t, "a∩a", a, a.Clone(), engine.Intersection, area)
	checkArea(t, "a∪a", a, a.Clone(), engine.Union, area)
	checkArea(t, "a−a", a, a.Clone(), engine.Difference, 0)
	checkArea(t, "a⊕a", a, a.Clone(), engine.Xor, 0)
}

func TestTriangleSquare(t *testing.T) {
	tri := geom.Polygon{ring([2]float64{0, 0}, [2]float64{8, 0}, [2]float64{4, 8})}
	sq := geom.RectPolygon(2, 2, 6, 6)
	// Intersection area computed analytically: the square clipped by the
	// triangle's two slanted sides. Left side y=2x, right side y=2(8-x).
	// At y∈[2,6]: triangle x-range [y/2, 8-y/2]; square [2,6].
	// width(y) = min(6, 8-y/2) - max(2, y/2):
	//   y∈[2,4]: 6 - 2 = 4
	//   y∈[4,6]: (8-y/2) - (y/2) = 8-y
	// area = ∫2..4 4 dy + ∫4..6 (8-y) dy = 8 + (32-24) - (8-... )
	want := 8.0 + (8*2 - (36.0-16.0)/2) // 8 + (16 - 10) = 14
	got := checkArea(t, "tri∩sq", tri, sq, engine.Intersection, want)
	checkParity(t, "tri∩sq", tri, sq, got, engine.Intersection, 3000, 6)
	u := clipPoly(tri, sq, engine.Union, engine.Options{})
	wantU := tri.Area() + sq.Area() - want
	if a := u.Area(); math.Abs(a-wantU) > 1e-6 {
		t.Errorf("tri∪sq area = %v, want %v", a, wantU)
	}
}

func TestConcaveSubject(t *testing.T) {
	// U-shaped concave polygon.
	u := geom.Polygon{ring([2]float64{0, 0}, [2]float64{6, 0}, [2]float64{6, 5}, [2]float64{4, 5}, [2]float64{4, 2}, [2]float64{2, 2}, [2]float64{2, 5}, [2]float64{0, 5})}
	r := geom.RectPolygon(1, 1, 5, 4)
	// u∩r: rectangle minus the notch [2,4]x[2,4] portion inside r:
	// r area 12, notch overlap = [2,4]x[2,4] = 4 ... but notch spans y∈[2,5];
	// within r (y≤4): [2,4]x[2,4] area 4. So want 8.
	got := checkArea(t, "u∩r", u, r, engine.Intersection, 8)
	checkParity(t, "u∩r", u, r, got, engine.Intersection, 3000, 7)
	checkParity(t, "u∪r", u, r, clipPoly(u, r, engine.Union, engine.Options{}), engine.Union, 3000, 8)
	checkParity(t, "u−r", u, r, clipPoly(u, r, engine.Difference, engine.Options{}), engine.Difference, 3000, 9)
}

func TestBowTieEvenOdd(t *testing.T) {
	// Self-intersecting bow-tie over [0,2]²: even-odd region is two
	// triangles, each of area 1, total 2.
	bt := geom.Polygon{geom.BowTie(0, 0, 2, 2)}
	big := geom.RectPolygon(-1, -1, 3, 3)
	got := checkArea(t, "bowtie∩big", bt, big, engine.Intersection, 2)
	checkParity(t, "bowtie∩big", bt, big, got, engine.Intersection, 3000, 10)
}

func TestPentagramEvenOdd(t *testing.T) {
	star := geom.Polygon{geom.SelfIntersectingStar(geom.Point{X: 0, Y: 0}, 5, 5, 0.3)}
	big := geom.RectPolygon(-6, -6, 6, 6)
	got := clipPoly(star, big, engine.Intersection, engine.Options{})
	if len(got) == 0 {
		t.Fatal("empty pentagram clip")
	}
	checkParity(t, "pentagram∩big", star, big, got, engine.Intersection, 4000, 11)
	// Even-odd pentagram excludes the central pentagon: 5 point triangles.
	gotU := clipPoly(star, big, engine.Union, engine.Options{})
	checkParity(t, "pentagram∪big", star, big, gotU, engine.Union, 3000, 12)
}

func TestSelfIntersectionWithOverlap(t *testing.T) {
	// The paper's Fig. 2 scenario: both subject and clip self-intersecting.
	a := geom.Polygon{geom.SelfIntersectingStar(geom.Point{X: 0, Y: 0}, 5, 5, 0.17)}
	b := geom.Polygon{geom.SelfIntersectingStar(geom.Point{X: 1.5, Y: 0.5}, 5, 5, 0.71)}
	for _, op := range []engine.Op{engine.Intersection, engine.Union, engine.Difference, engine.Xor} {
		got := clipPoly(a, b, op, engine.Options{})
		checkParity(t, "stars "+op.String(), a, b, got, op, 3000, int64(20+op))
	}
}

func TestMultiContourOperands(t *testing.T) {
	a := geom.Polygon{geom.Rect(0, 0, 2, 2), geom.Rect(4, 0, 6, 2)}
	b := geom.Polygon{geom.Rect(1, 1, 5, 3)}
	got := checkArea(t, "multi∩", a, b, engine.Intersection, 1+1)
	checkParity(t, "multi∩", a, b, got, engine.Intersection, 2000, 13)
	gotU := checkArea(t, "multi∪", a, b, engine.Union, 4+4+8-2)
	checkParity(t, "multi∪", a, b, gotU, engine.Union, 2000, 14)
}

func TestSharedEdgeRects(t *testing.T) {
	// Rectangles sharing a full edge: union must fuse, intersection empty.
	a := geom.RectPolygon(0, 0, 2, 2)
	b := geom.RectPolygon(2, 0, 4, 2)
	checkArea(t, "shared-edge ∪", a, b, engine.Union, 8)
	gotI := clipPoly(a, b, engine.Intersection, engine.Options{})
	if ar := gotI.Area(); ar > 1e-9 {
		t.Errorf("shared-edge ∩ area = %v, want 0", ar)
	}
}

func TestVertexTouchingSquares(t *testing.T) {
	a := geom.RectPolygon(0, 0, 2, 2)
	b := geom.RectPolygon(2, 2, 4, 4)
	checkArea(t, "corner-touch ∪", a, b, engine.Union, 8)
	gotI := clipPoly(a, b, engine.Intersection, engine.Options{})
	if ar := gotI.Area(); ar > 1e-9 {
		t.Errorf("corner-touch ∩ area = %v", ar)
	}
}

func TestRandomConvexPairsAllOps(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 12; trial++ {
		na := 3 + rng.Intn(10)
		nb := 3 + rng.Intn(10)
		a := geom.Polygon{geom.RegularPolygon(geom.Point{X: rng.Float64() * 4, Y: rng.Float64() * 4}, 2+rng.Float64()*3, na, rng.Float64())}
		b := geom.Polygon{geom.RegularPolygon(geom.Point{X: rng.Float64() * 4, Y: rng.Float64() * 4}, 2+rng.Float64()*3, nb, rng.Float64())}
		for _, op := range []engine.Op{engine.Intersection, engine.Union, engine.Difference, engine.Xor} {
			got := clipPoly(a, b, op, engine.Options{})
			checkParity(t, "random "+op.String(), a, b, got, op, 800, int64(trial*7+int(op)))
		}
	}
}

func TestRandomStarsAllOps(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 8; trial++ {
		a := geom.Polygon{geom.Star(geom.Point{X: rng.Float64() * 3, Y: rng.Float64() * 3}, 4, 1.5, 5+rng.Intn(6), rng.Float64())}
		b := geom.Polygon{geom.Star(geom.Point{X: rng.Float64() * 3, Y: rng.Float64() * 3}, 4, 1.5, 5+rng.Intn(6), rng.Float64())}
		for _, op := range []engine.Op{engine.Intersection, engine.Union, engine.Difference, engine.Xor} {
			got := clipPoly(a, b, op, engine.Options{})
			checkParity(t, "stars "+op.String(), a, b, got, op, 600, int64(trial*13+int(op)))
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	a := geom.Polygon{geom.Star(geom.Point{X: 0, Y: 0}, 10, 4, 40, 0.1)}
	b := geom.Polygon{geom.Star(geom.Point{X: 2, Y: 1}, 10, 4, 35, 0.4)}
	for _, op := range []engine.Op{engine.Intersection, engine.Union, engine.Difference, engine.Xor} {
		seq := clipPoly(a, b, op, engine.Options{Threads: 1})
		par8 := clipPoly(a, b, op, engine.Options{Threads: 8})
		if math.Abs(seq.Area()-par8.Area()) > 1e-9 {
			t.Errorf("%v: seq=%v par=%v", op, seq.Area(), par8.Area())
		}
	}
}

func TestHorizontalEdgesHandled(t *testing.T) {
	// Axis-aligned rectangles have horizontal edges; sanitize perturbs them.
	a := geom.RectPolygon(0, 0, 10, 1)
	b := geom.RectPolygon(5, -1, 6, 2)
	got := clipPoly(a, b, engine.Intersection, engine.Options{})
	if math.Abs(got.Area()-1) > 1e-4 {
		t.Errorf("area = %v, want 1", got.Area())
	}
}

func TestOpString(t *testing.T) {
	names := map[engine.Op]string{engine.Intersection: "intersection", engine.Union: "union", engine.Difference: "difference", engine.Xor: "xor", engine.Op(99): "unknown"}
	for op, want := range names {
		if op.String() != want {
			t.Errorf("%d.String() = %q", op, op.String())
		}
	}
}

func TestOpEval(t *testing.T) {
	cases := []struct {
		op   engine.Op
		s, c bool
		want bool
	}{
		{engine.Intersection, true, true, true},
		{engine.Intersection, true, false, false},
		{engine.Union, false, true, true},
		{engine.Union, false, false, false},
		{engine.Difference, true, false, true},
		{engine.Difference, true, true, false},
		{engine.Xor, true, false, true},
		{engine.Xor, true, true, false},
		{engine.Op(99), true, true, false},
	}
	for _, c := range cases {
		if got := c.op.Eval(c.s, c.c); got != c.want {
			t.Errorf("%v.Eval(%v,%v) = %v", c.op, c.s, c.c, got)
		}
	}
}

func TestOutputOrientationConvention(t *testing.T) {
	a := geom.RectPolygon(0, 0, 4, 4)
	b := geom.RectPolygon(1, 1, 3, 3)
	got := clipPoly(a, b, engine.Intersection, engine.Options{})
	if len(got) != 1 {
		t.Fatalf("rings = %d", len(got))
	}
	if !got[0].IsCCW() {
		t.Error("outer ring should be CCW")
	}
}

func TestNestedThreeLevels(t *testing.T) {
	// a has a hole; b sits inside the hole: union has 3 rings (outer, hole,
	// island).
	a := clipPoly(geom.RectPolygon(0, 0, 12, 12), geom.RectPolygon(3, 3, 9, 9), engine.Difference, engine.Options{})
	b := geom.RectPolygon(5, 5, 7, 7)
	got := clipPoly(a, b, engine.Union, engine.Options{})
	wantArea := (144.0 - 36.0) + 4.0
	if math.Abs(got.Area()-wantArea) > 1e-6 {
		t.Errorf("area = %v, want %v (rings=%d)", got.Area(), wantArea, len(got))
	}
	if len(got) != 3 {
		t.Errorf("rings = %d, want 3", len(got))
	}
	checkParity(t, "nested ∪", a, b, got, engine.Union, 3000, 15)
}

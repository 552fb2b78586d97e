package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointOps(t *testing.T) {
	p := Point{3, 4}
	q := Point{1, 2}
	if got := p.Sub(q); got != (Point{2, 2}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Add(q); got != (Point{4, 6}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Dot(q); got != 11 {
		t.Errorf("Dot = %v", got)
	}
	if got := p.Cross(q); got != 2 {
		t.Errorf("Cross = %v", got)
	}
	if got := p.Dist(Point{0, 0}); got != 5 {
		t.Errorf("Dist = %v", got)
	}
	if !p.Near(Point{3 + 1e-12, 4 - 1e-12}, 1e-9) {
		t.Error("Near should hold within eps")
	}
	if p.Near(Point{3.1, 4}, 1e-9) {
		t.Error("Near should fail outside eps")
	}
}

func TestPointLessSweepOrder(t *testing.T) {
	cases := []struct {
		a, b Point
		want bool
	}{
		{Point{0, 0}, Point{0, 1}, true},
		{Point{0, 1}, Point{0, 0}, false},
		{Point{0, 0}, Point{1, 0}, true},
		{Point{1, 0}, Point{0, 0}, false},
		{Point{5, 1}, Point{0, 2}, true}, // Y dominates X
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.want {
			t.Errorf("%v.Less(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestOrientBasic(t *testing.T) {
	a, b := Point{0, 0}, Point{1, 0}
	if Orient(a, b, Point{0, 1}) != CounterClockwise {
		t.Error("left turn not detected")
	}
	if Orient(a, b, Point{0, -1}) != Clockwise {
		t.Error("right turn not detected")
	}
	if Orient(a, b, Point{2, 0}) != Collinear {
		t.Error("collinear not detected")
	}
}

func TestOrientRobustNearDegenerate(t *testing.T) {
	// Classic near-collinear configuration: points on a line y = x with tiny
	// perturbations that naive float arithmetic misclassifies.
	a := Point{0.5, 0.5}
	b := Point{12, 12}
	c := Point{24, 24}
	if Orient(a, b, c) != Collinear {
		t.Error("exactly collinear points misclassified")
	}
	// Perturb c by one ulp up: must be CCW or CW consistently with exact math.
	cUp := Point{24, math.Nextafter(24, 25)}
	cDown := Point{24, math.Nextafter(24, 23)}
	if Orient(a, b, cUp) != CounterClockwise {
		t.Error("one-ulp-above point should be CCW")
	}
	if Orient(a, b, cDown) != Clockwise {
		t.Error("one-ulp-below point should be CW")
	}
}

func TestOrientAntisymmetry(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a, b, c := Point{ax, ay}, Point{bx, by}, Point{cx, cy}
		return Orient(a, b, c) == -Orient(b, a, c)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestOrientCyclicInvariance(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a, b, c := Point{ax, ay}, Point{bx, by}, Point{cx, cy}
		o := Orient(a, b, c)
		return o == Orient(b, c, a) && o == Orient(c, a, b)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestSegIntersectionCrossing(t *testing.T) {
	s := Segment{Point{0, 0}, Point{2, 2}}
	u := Segment{Point{0, 2}, Point{2, 0}}
	kind, p, _ := SegIntersection(s, u)
	if kind != Crossing {
		t.Fatalf("kind = %v, want Crossing", kind)
	}
	if !p.Near(Point{1, 1}, 1e-12) {
		t.Errorf("point = %v, want (1,1)", p)
	}
}

func TestSegIntersectionDisjoint(t *testing.T) {
	s := Segment{Point{0, 0}, Point{1, 0}}
	u := Segment{Point{0, 1}, Point{1, 1}}
	if kind, _, _ := SegIntersection(s, u); kind != Disjoint {
		t.Errorf("kind = %v, want Disjoint", kind)
	}
	// Collinear but separated.
	v := Segment{Point{2, 0}, Point{3, 0}}
	if kind, _, _ := SegIntersection(s, v); kind != Disjoint {
		t.Errorf("collinear separated: kind = %v, want Disjoint", kind)
	}
}

func TestSegIntersectionEndpointTouch(t *testing.T) {
	s := Segment{Point{0, 0}, Point{1, 1}}
	u := Segment{Point{1, 1}, Point{2, 0}}
	kind, p, _ := SegIntersection(s, u)
	if kind != Crossing || p != (Point{1, 1}) {
		t.Errorf("endpoint touch: kind=%v p=%v", kind, p)
	}
	// T-junction: endpoint of u in the interior of s.
	w := Segment{Point{0.5, 0.5}, Point{0.5, -1}}
	kind, p, _ = SegIntersection(s, w)
	if kind != Crossing || !p.Near(Point{0.5, 0.5}, 1e-12) {
		t.Errorf("T junction: kind=%v p=%v", kind, p)
	}
}

func TestSegIntersectionOverlap(t *testing.T) {
	s := Segment{Point{0, 0}, Point{3, 0}}
	u := Segment{Point{1, 0}, Point{5, 0}}
	kind, p0, p1 := SegIntersection(s, u)
	if kind != Overlapping {
		t.Fatalf("kind = %v, want Overlapping", kind)
	}
	if p0 != (Point{1, 0}) || p1 != (Point{3, 0}) {
		t.Errorf("overlap = %v..%v, want (1,0)..(3,0)", p0, p1)
	}
	// Collinear touching in a single point.
	v := Segment{Point{3, 0}, Point{7, 0}}
	kind, p0, _ = SegIntersection(s, v)
	if kind != Crossing || p0 != (Point{3, 0}) {
		t.Errorf("collinear touch: kind=%v p=%v", kind, p0)
	}
}

func TestSegIntersectionSnapsToEndpoints(t *testing.T) {
	// A crossing within Eps of an endpoint must return the endpoint exactly.
	s := Segment{Point{0, 0}, Point{1, 1}}
	u := Segment{Point{1, 1 + 1e-13}, Point{2, 0}}
	_, p, _ := SegIntersection(s, Segment{u.A, u.B})
	_ = p // may be Disjoint depending on geometry; real check below
	v := Segment{Point{0, 2}, Point{2, 0}}
	kind, q, _ := SegIntersection(s, v)
	if kind != Crossing || !q.Near(Point{1, 1}, 1e-12) {
		t.Fatalf("kind=%v q=%v", kind, q)
	}
}

func TestSegmentsCross(t *testing.T) {
	if !SegmentsCross(Segment{Point{0, 0}, Point{2, 2}}, Segment{Point{0, 2}, Point{2, 0}}) {
		t.Error("proper crossing not detected")
	}
	if SegmentsCross(Segment{Point{0, 0}, Point{1, 1}}, Segment{Point{1, 1}, Point{2, 0}}) {
		t.Error("endpoint touch must not count as proper crossing")
	}
}

func TestSegmentIntersectionCommutative(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy int8) bool {
		s := Segment{Point{float64(ax), float64(ay)}, Point{float64(bx), float64(by)}}
		u := Segment{Point{float64(cx), float64(cy)}, Point{float64(dx), float64(dy)}}
		if s.A == s.B || u.A == u.B {
			return true
		}
		k1, _, _ := SegIntersection(s, u)
		k2, _, _ := SegIntersection(u, s)
		return k1 == k2
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestXAtY(t *testing.T) {
	s := Segment{Point{0, 0}, Point{4, 2}}
	if got := s.XAtY(1); got != 2 {
		t.Errorf("XAtY(1) = %v, want 2", got)
	}
	if got := s.XAtY(0); got != 0 {
		t.Errorf("XAtY(0) = %v, want 0", got)
	}
	if got := s.XAtY(2); got != 4 {
		t.Errorf("XAtY(2) = %v, want 4", got)
	}
}

func TestRingArea(t *testing.T) {
	r := Rect(0, 0, 2, 3)
	if got := r.SignedArea(); got != 6 {
		t.Errorf("ccw rect signed area = %v, want 6", got)
	}
	rc := r.Clone()
	rc.Reverse()
	if got := rc.SignedArea(); got != -6 {
		t.Errorf("cw rect signed area = %v, want -6", got)
	}
	if !r.IsCCW() || rc.IsCCW() {
		t.Error("IsCCW mismatch")
	}
}

func TestRegularPolygonArea(t *testing.T) {
	// Area of a regular n-gon with circumradius r: (n r²/2) sin(2π/n).
	for _, n := range []int{3, 4, 6, 17, 100} {
		r := RegularPolygon(Point{5, -3}, 2, n, 0.3)
		want := float64(n) * 4 / 2 * math.Sin(2*math.Pi/float64(n))
		if got := r.Area(); math.Abs(got-want) > 1e-9 {
			t.Errorf("n=%d area=%v want %v", n, got, want)
		}
		if !r.IsCCW() {
			t.Errorf("n=%d not CCW", n)
		}
	}
}

func TestPolygonContainsPoint(t *testing.T) {
	p := Polygon{Rect(0, 0, 10, 10), Rect(3, 3, 7, 7)} // square with hole
	cases := []struct {
		pt   Point
		want bool
	}{
		{Point{1, 1}, true},
		{Point{5, 5}, false}, // inside the hole
		{Point{11, 5}, false},
		{Point{-1, 5}, false},
		{Point{3.5, 1}, true},
	}
	for _, c := range cases {
		if got := p.ContainsPoint(c.pt); got != c.want {
			t.Errorf("ContainsPoint(%v) = %v, want %v", c.pt, got, c.want)
		}
	}
}

func TestPolygonAreaWithHole(t *testing.T) {
	outer := Rect(0, 0, 10, 10)
	hole := Rect(2, 2, 4, 4)
	hole.Reverse() // clockwise hole
	p := Polygon{outer, hole}
	if got := p.Area(); math.Abs(got-96) > 1e-12 {
		t.Errorf("area = %v, want 96", got)
	}
}

func TestBBox(t *testing.T) {
	b := EmptyBBox()
	if !b.IsEmpty() {
		t.Fatal("EmptyBBox not empty")
	}
	b.Extend(Point{1, 2})
	b.Extend(Point{-3, 5})
	if b.IsEmpty() || b.MinX != -3 || b.MaxX != 1 || b.MinY != 2 || b.MaxY != 5 {
		t.Errorf("box = %+v", b)
	}
	o := BBox{0, 0, 10, 10}
	if !b.Intersects(o) {
		t.Error("boxes should intersect")
	}
	u := b.Union(o)
	if u.MinX != -3 || u.MaxY != 10 {
		t.Errorf("union = %+v", u)
	}
	if !u.Contains(Point{0, 0}) || u.Contains(Point{100, 0}) {
		t.Error("Contains mismatch")
	}
	if u.Width() != 13 || u.Height() != 10 {
		t.Errorf("w=%v h=%v", u.Width(), u.Height())
	}
}

// TestBBoxExtendMatchesMathMinMax holds Extend to math.Min and math.Max bit
// for bit on finite coordinates, the sign of zero included, with each pair
// of values fed in both orders.
func TestBBoxExtendMatchesMathMinMax(t *testing.T) {
	vals := []float64{math.Copysign(0, -1), 0, -1, 1, 1e-300}
	for _, a := range vals {
		for _, c := range vals {
			b := EmptyBBox()
			b.Extend(Point{a, c})
			b.Extend(Point{c, a})
			lo, hi := math.Float64bits(math.Min(a, c)), math.Float64bits(math.Max(a, c))
			if math.Float64bits(b.MinX) != lo || math.Float64bits(b.MinY) != lo ||
				math.Float64bits(b.MaxX) != hi || math.Float64bits(b.MaxY) != hi {
				t.Errorf("Extend (%v, %v) then (%v, %v): box %+v, want min %v, max %v", a, c, c, a, b, math.Min(a, c), math.Max(a, c))
			}
		}
	}
}

func TestBBoxUnionWithEmpty(t *testing.T) {
	e := EmptyBBox()
	o := BBox{0, 0, 1, 1}
	if got := e.Union(o); got != o {
		t.Errorf("empty ∪ o = %+v", got)
	}
	if got := o.Union(e); got != o {
		t.Errorf("o ∪ empty = %+v", got)
	}
}

func TestRingEdgesSkipDegenerate(t *testing.T) {
	r := Ring{{0, 0}, {1, 0}, {1, 0}, {1, 1}}
	edges := r.Edges(nil)
	if len(edges) != 3 {
		t.Errorf("edges = %d, want 3 (duplicate vertex collapsed)", len(edges))
	}
}

func TestTranslateScale(t *testing.T) {
	r := Rect(0, 0, 1, 1).Translate(5, 5)
	if r[0] != (Point{5, 5}) {
		t.Errorf("translate: %v", r[0])
	}
	s := Rect(0, 0, 2, 2).ScaleAbout(Point{0, 0}, 2)
	if s[2] != (Point{4, 4}) {
		t.Errorf("scale: %v", s[2])
	}
	p := Polygon{Rect(0, 0, 1, 1)}.Translate(1, 1)
	if p[0][0] != (Point{1, 1}) {
		t.Errorf("polygon translate: %v", p[0][0])
	}
}

func TestBowTieSelfIntersects(t *testing.T) {
	bt := BowTie(0, 0, 2, 2)
	edges := bt.Edges(nil)
	found := false
	for i := range edges {
		for j := i + 1; j < len(edges); j++ {
			if SegmentsCross(edges[i], edges[j]) {
				found = true
			}
		}
	}
	if !found {
		t.Error("bow tie should self-intersect")
	}
}

func TestSelfIntersectingStarCrosses(t *testing.T) {
	st := SelfIntersectingStar(Point{0, 0}, 1, 5, 0.1)
	edges := st.Edges(nil)
	crossings := 0
	for i := range edges {
		for j := i + 1; j < len(edges); j++ {
			if SegmentsCross(edges[i], edges[j]) {
				crossings++
			}
		}
	}
	if crossings != 5 {
		t.Errorf("pentagram crossings = %d, want 5", crossings)
	}
}

func TestPolygonCloneIndependent(t *testing.T) {
	p := Polygon{Rect(0, 0, 1, 1)}
	q := p.Clone()
	q[0][0].X = 99
	if p[0][0].X == 99 {
		t.Error("Clone aliases the original")
	}
}

func TestNumVertices(t *testing.T) {
	p := Polygon{Rect(0, 0, 1, 1), RegularPolygon(Point{0, 0}, 1, 7, 0)}
	if got := p.NumVertices(); got != 11 {
		t.Errorf("NumVertices = %d, want 11", got)
	}
}

func TestSmallHelpers(t *testing.T) {
	p := Point{1, 2}
	if p.String() != "(1,2)" {
		t.Errorf("String = %q", p.String())
	}
	s := Segment{Point{0, 0}, Point{2, 4}}
	if s.String() == "" {
		t.Error("empty segment String")
	}
	h := Segment{Point{3, 1}, Point{0, 1}}
	if h.XAtY(1) != 0 {
		t.Errorf("horizontal XAtY = %v", h.XAtY(1))
	}
	r := Ring{{0, 0}, {2, 0}, {2, 2}}
	box := r.BBox()
	if box.MaxX != 2 || box.MinY != 0 {
		t.Errorf("ring bbox = %+v", box)
	}
	if got := RectPolygon(0, 0, 1, 2).Area(); math.Abs(got-2) > 1e-12 {
		t.Errorf("RectPolygon area = %v", got)
	}
	star := Star(Point{0, 0}, 2, 1, 5, 0)
	if len(star) != 10 {
		t.Errorf("star len = %d", len(star))
	}
}

func TestDistToPoint(t *testing.T) {
	s := Segment{Point{0, 0}, Point{4, 0}}
	cases := []struct {
		p Point
		d float64
	}{
		{Point{2, 3}, 3},  // above the middle
		{Point{-3, 4}, 5}, // before A
		{Point{7, 4}, 5},  // past B
		{Point{2, 0}, 0},  // on the segment
	}
	for _, c := range cases {
		if got := s.DistToPoint(c.p); math.Abs(got-c.d) > 1e-12 {
			t.Errorf("dist(%v) = %v, want %v", c.p, got, c.d)
		}
	}
	deg := Segment{Point{1, 1}, Point{1, 1}}
	if got := deg.DistToPoint(Point{4, 5}); math.Abs(got-5) > 1e-12 {
		t.Errorf("degenerate dist = %v", got)
	}
}

func TestCollinearOverlapVerticalAndOrdering(t *testing.T) {
	// Vertical collinear overlaps exercise the on-line ordering helpers'
	// Y branch (X equal).
	s := Segment{Point{1, 0}, Point{1, 4}}
	u := Segment{Point{1, 2}, Point{1, 7}}
	kind, p0, p1 := SegIntersection(s, u)
	if kind != Overlapping || p0 != (Point{1, 2}) || p1 != (Point{1, 4}) {
		t.Errorf("vertical overlap: %v %v %v", kind, p0, p1)
	}
	// Touching vertically in one point.
	v := Segment{Point{1, 4}, Point{1, 9}}
	kind, p0, _ = SegIntersection(s, v)
	if kind != Crossing || p0 != (Point{1, 4}) {
		t.Errorf("vertical touch: %v %v", kind, p0)
	}
	// Disjoint vertical collinear.
	w := Segment{Point{1, 5}, Point{1, 9}}
	if kind, _, _ := SegIntersection(s, w); kind != Disjoint {
		t.Errorf("vertical disjoint: %v", kind)
	}
}

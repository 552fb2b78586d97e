package vatti

import (
	"math"
	"testing"

	"polyclip/internal/engine"
	"polyclip/internal/geom"
)

// Regression tests for chaos-found failure families. Each case in this file
// reproduces a geometry class on which the pre-arrangement Vatti sweep
// disagreed with the overlay engine (or crashed): near-collinear fans whose
// intersections its absolute epsilon collapsed, self-intersecting rings it
// walked by ring parity instead of even-odd measure, and shared-vertex
// meshes with degenerate vertex-on-vertex incidences. Expectations are
// hand-computed, not engine-derived, so these stay valid oracles even if
// every engine shares a bug.

// fanPair builds the near-collinear fan operands: an upward triangle
// A = (0,0),(20,0),(10,8) and a downward triangle B = (0,4),(20,4),(10,-4),
// whose bases are chains of n sub-edges with deterministic alternating
// vertical jitter j — each base vertex is collinear with its neighbours to
// within j/span ≈ 1e-9 relative, the regime where the old absolute-epsilon
// collinearity test misclassified crossings.
func fanPair(n int, j float64) (a, b geom.Polygon) {
	base := func(y0 float64) geom.Ring {
		r := make(geom.Ring, 0, n+2)
		for i := 0; i <= n; i++ {
			jit := j
			if i%2 == 1 {
				jit = -j
			}
			if i == 0 || i == n {
				jit = 0 // exact corners keep the hand-computed area valid
			}
			r = append(r, geom.Point{X: 20 * float64(i) / float64(n), Y: y0 + jit})
		}
		return r
	}
	ra := append(base(0), geom.Point{X: 10, Y: 8})
	rb := append(base(4), geom.Point{X: 10, Y: -4})
	return geom.Polygon{ra}, geom.Polygon{rb}
}

// checkAreaRel is checkArea with a purely relative tolerance, required when
// coordinate scales make the absolute `1+want` floor meaningless.
func checkAreaRel(t *testing.T, name string, subj, clip geom.Polygon, op engine.Op, want float64) geom.Polygon {
	t.Helper()
	got := Clip(subj, clip, op, engine.Options{})
	if a := got.Area(); math.Abs(a-want) > 1e-6*want {
		t.Errorf("%s: area = %v, want %v (rings=%d)", name, a, want, len(got))
	}
	return got
}

func TestNearCollinearFans(t *testing.T) {
	// With the jitter idealized away, A∩B is the hexagonal band
	// max(0, 4-0.8·min(x,20-x)) ≤ y ≤ min(4, 0.8·min(x,20-x)) of area 50;
	// |A| = |B| = 80 gives union 110, difference 30, xor 60. The 1e-8
	// jitter moves each area by at most 20·1e-8 = 2e-7, far inside the
	// 1e-6·(1+want) tolerance.
	for _, n := range []int{10, 25, 40} {
		a, b := fanPair(n, 1e-8)
		checkArea(t, "fan ∩", a, b, engine.Intersection, 50)
		checkArea(t, "fan ∪", a, b, engine.Union, 110)
		checkArea(t, "fan −", a, b, engine.Difference, 30)
		checkArea(t, "fan ⊕", a, b, engine.Xor, 60)
	}
}

func TestBowtieUnion(t *testing.T) {
	bt := geom.Polygon{{
		{X: -1, Y: -1}, {X: 1, Y: 1}, {X: 1, Y: -1}, {X: -1, Y: 1},
	}}
	// The even-odd region of the bowtie is its two lobe triangles, each of
	// area ½·2·1 = 1; the union with itself is that same region.
	got := checkArea(t, "bowtie ∪ bowtie", bt, bt, engine.Union, 2)
	if len(got) != 2 {
		t.Errorf("bowtie union has %d rings, want 2 (one per lobe)", len(got))
	}
	checkArea(t, "bowtie − bowtie", bt, bt, engine.Difference, 0)
}

func TestPentagramSelfIntersection(t *testing.T) {
	// {5/2} star on circumradius 10: even-odd keeps the five tip triangles
	// and excludes the doubly-wound inner pentagon (see the area formula
	// derivation in internal/arrange's tests).
	r := 10.0
	ring := make(geom.Ring, 0, 5)
	for i := 0; i < 5; i++ {
		ang := math.Pi/2 + 2*math.Pi*float64(i*2%5)/5
		ring = append(ring, geom.Point{X: r * math.Cos(ang), Y: r * math.Sin(ang)})
	}
	p := geom.Polygon{ring}
	ri := r * math.Cos(2*math.Pi/5) / math.Cos(math.Pi/5)
	want := 5*r*ri*math.Sin(math.Pi/5) - (5.0/2)*ri*ri*math.Sin(2*math.Pi/5)
	got := checkAreaRel(t, "pentagram ∩ pentagram", p, p, engine.Intersection, want)
	if len(got) != 5 {
		t.Errorf("pentagram resolves to %d rings, want 5 (one per tip)", len(got))
	}
}

func TestSharedVertexCheckerboard(t *testing.T) {
	// 3×3 checkerboard split between the operands: A holds the 5 cells with
	// even i+j, B the other 4. Every interior corner is a degenerate
	// vertex-on-vertex intersection of the operands; the cells share no
	// area, so ∩ is empty, ∪ and ⊕ are the full 9-cell square, and − is A.
	cell := func(i, j int) geom.Ring {
		x, y := float64(i), float64(j)
		return geom.Ring{{X: x, Y: y}, {X: x + 1, Y: y}, {X: x + 1, Y: y + 1}, {X: x, Y: y + 1}}
	}
	var a, b geom.Polygon
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if (i+j)%2 == 0 {
				a = append(a, cell(i, j))
			} else {
				b = append(b, cell(i, j))
			}
		}
	}
	if got := Clip(a, b, engine.Intersection, engine.Options{}); got.Area() != 0 {
		t.Errorf("checkerboard ∩ area = %v, want 0", got.Area())
	}
	checkArea(t, "checkerboard ∪", a, b, engine.Union, 9)
	checkArea(t, "checkerboard −", a, b, engine.Difference, 5)
	checkArea(t, "checkerboard ⊕", a, b, engine.Xor, 9)
}

func TestExtremeCoordinateScales(t *testing.T) {
	// The engine's tolerances must be relative: the same overlapping-squares
	// arrangement has to clip identically at any coordinate scale. 2^±332
	// keeps the scaling itself exact in float64.
	for _, s := range []float64{math.Ldexp(1, 332), 1, math.Ldexp(1, -332)} {
		a := geom.RectPolygon(0, 0, 4*s, 4*s)
		b := geom.RectPolygon(2*s, 2*s, 6*s, 6*s)
		checkAreaRel(t, "scaled ∩", a, b, engine.Intersection, 4*s*s)
		checkAreaRel(t, "scaled ∪", a, b, engine.Union, 28*s*s)
		checkAreaRel(t, "scaled −", a, b, engine.Difference, 12*s*s)
		checkAreaRel(t, "scaled ⊕", a, b, engine.Xor, 24*s*s)
	}
}

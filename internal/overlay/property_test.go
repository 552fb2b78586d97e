package overlay

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"polyclip/internal/engine"
	"polyclip/internal/geom"
)

// randomPolygon decodes a quick-generated seed into a test polygon:
// alternating regular polygons, stars and self-intersecting stars at
// bounded positions.
func randomPolygon(seed int64) geom.Polygon {
	rng := rand.New(rand.NewSource(seed))
	c := geom.Point{X: rng.Float64()*6 - 3, Y: rng.Float64()*6 - 3}
	r := 1 + rng.Float64()*4
	switch rng.Intn(3) {
	case 0:
		return geom.Polygon{geom.RegularPolygon(c, r, 3+rng.Intn(12), rng.Float64())}
	case 1:
		return geom.Polygon{geom.Star(c, r, r*0.4, 4+rng.Intn(8), rng.Float64())}
	default:
		return geom.Polygon{geom.SelfIntersectingStar(c, r, 5+2*rng.Intn(3), rng.Float64())}
	}
}

func area(p geom.Polygon) float64 { return p.Area() }

const relTol = 1e-6

func close2(a, b float64) bool { return math.Abs(a-b) <= relTol*(1+math.Abs(a)+math.Abs(b)) }

// Property: inclusion–exclusion. area(A∪B) = area(A) + area(B) − area(A∩B),
// and area(A⊕B) = area(A∪B) − area(A∩B).
func TestPropertyInclusionExclusion(t *testing.T) {
	f := func(sa, sb int64) bool {
		a, b := randomPolygon(sa), randomPolygon(sb)
		// Even-odd area of each operand, normalized through the engine.
		big := geom.RectPolygon(-20, -20, 20, 20)
		areaA := area(clipPoly(a, big, engine.Intersection, engine.Options{}))
		areaB := area(clipPoly(b, big, engine.Intersection, engine.Options{}))
		inter := area(clipPoly(a, b, engine.Intersection, engine.Options{}))
		union := area(clipPoly(a, b, engine.Union, engine.Options{}))
		xor := area(clipPoly(a, b, engine.Xor, engine.Options{}))
		return close2(union, areaA+areaB-inter) && close2(xor, union-inter)
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(101))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: difference identities. area(A−B) = area(A) − area(A∩B) and
// area(A−B) + area(B−A) = area(A⊕B).
func TestPropertyDifference(t *testing.T) {
	f := func(sa, sb int64) bool {
		a, b := randomPolygon(sa), randomPolygon(sb)
		big := geom.RectPolygon(-20, -20, 20, 20)
		areaA := area(clipPoly(a, big, engine.Intersection, engine.Options{}))
		inter := area(clipPoly(a, b, engine.Intersection, engine.Options{}))
		dAB := area(clipPoly(a, b, engine.Difference, engine.Options{}))
		dBA := area(clipPoly(b, a, engine.Difference, engine.Options{}))
		xor := area(clipPoly(a, b, engine.Xor, engine.Options{}))
		return close2(dAB, areaA-inter) && close2(dAB+dBA, xor)
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(103))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: commutativity of ∩, ∪ and ⊕.
func TestPropertyCommutativity(t *testing.T) {
	f := func(sa, sb int64) bool {
		a, b := randomPolygon(sa), randomPolygon(sb)
		for _, op := range []engine.Op{engine.Intersection, engine.Union, engine.Xor} {
			if !close2(area(clipPoly(a, b, op, engine.Options{})), area(clipPoly(b, a, op, engine.Options{}))) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(107))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: idempotence and annihilation. A∩A = A, A∪A = A, A−A = ∅,
// A⊕A = ∅ (areas, with A's even-odd area as reference).
func TestPropertyIdempotence(t *testing.T) {
	f := func(sa int64) bool {
		a := randomPolygon(sa)
		big := geom.RectPolygon(-20, -20, 20, 20)
		areaA := area(clipPoly(a, big, engine.Intersection, engine.Options{}))
		return close2(area(clipPoly(a, a.Clone(), engine.Intersection, engine.Options{})), areaA) &&
			close2(area(clipPoly(a, a.Clone(), engine.Union, engine.Options{})), areaA) &&
			area(clipPoly(a, a.Clone(), engine.Difference, engine.Options{})) <= relTol &&
			area(clipPoly(a, a.Clone(), engine.Xor, engine.Options{})) <= relTol
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(109))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: result containment. A∩B ⊆ A (every sampled point of the result
// is inside A), and A ⊆ A∪B.
func TestPropertyContainment(t *testing.T) {
	f := func(sa, sb int64) bool {
		a, b := randomPolygon(sa), randomPolygon(sb)
		inter := clipPoly(a, b, engine.Intersection, engine.Options{})
		union := clipPoly(a, b, engine.Union, engine.Options{})
		rng := rand.New(rand.NewSource(sa ^ sb))
		box := a.BBox().Union(b.BBox())
		minDist := math.Max(box.Width(), box.Height()) * 1e-5
		var edges []geom.Segment
		edges = append(edges, a.Edges()...)
		edges = append(edges, b.Edges()...)
		for i := 0; i < 200; i++ {
			pt := geom.Point{
				X: box.MinX + rng.Float64()*box.Width(),
				Y: box.MinY + rng.Float64()*box.Height(),
			}
			skip := false
			for _, e := range edges {
				if e.DistToPoint(pt) < minDist {
					skip = true
					break
				}
			}
			if skip {
				continue
			}
			if inter.ContainsPoint(pt) && !a.ContainsPoint(pt) {
				return false
			}
			if a.ContainsPoint(pt) && !union.ContainsPoint(pt) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(113))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: De Morgan within a bounding frame. Frame−(A∪B) = (Frame−A)∩(Frame−B).
func TestPropertyDeMorgan(t *testing.T) {
	f := func(sa, sb int64) bool {
		a, b := randomPolygon(sa), randomPolygon(sb)
		frame := geom.RectPolygon(-20, -20, 20, 20)
		lhs := clipPoly(frame, clipPoly(a, b, engine.Union, engine.Options{}), engine.Difference, engine.Options{})
		fa := clipPoly(frame, a, engine.Difference, engine.Options{})
		fb := clipPoly(frame, b, engine.Difference, engine.Options{})
		rhs := clipPoly(fa, fb, engine.Intersection, engine.Options{})
		return close2(area(lhs), area(rhs))
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(127))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: engine/strategy agreement on arbitrary input classes is covered
// in package vatti and core; here: repeated clipping is stable (clipping
// the output against the frame changes nothing).
func TestPropertyOutputStability(t *testing.T) {
	f := func(sa, sb int64) bool {
		a, b := randomPolygon(sa), randomPolygon(sb)
		out := clipPoly(a, b, engine.Intersection, engine.Options{})
		if len(out) == 0 {
			return true
		}
		box := out.BBox()
		frame := geom.RectPolygon(box.MinX-1, box.MinY-1, box.MaxX+1, box.MaxY+1)
		again := clipPoly(out, frame, engine.Intersection, engine.Options{})
		return close2(area(out), area(again))
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(131))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: translation equivariance. Clipping translated inputs gives the
// translated result (same area).
func TestPropertyTranslationEquivariance(t *testing.T) {
	f := func(sa, sb int64, dxRaw, dyRaw int16) bool {
		a, b := randomPolygon(sa), randomPolygon(sb)
		dx, dy := float64(dxRaw)/100, float64(dyRaw)/100
		base := area(clipPoly(a, b, engine.Intersection, engine.Options{}))
		moved := area(clipPoly(a.Translate(dx, dy), b.Translate(dx, dy), engine.Intersection, engine.Options{}))
		return close2(base, moved)
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(137))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

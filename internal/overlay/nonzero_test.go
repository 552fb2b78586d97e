package overlay

import (
	"math"
	"testing"

	"polyclip/internal/engine"
	"polyclip/internal/geom"
)

func TestNonZeroPentagramIsFilled(t *testing.T) {
	// Under NonZero the pentagram's centre pentagon (winding 2) is inside;
	// under EvenOdd it is a hole.
	star := geom.Polygon{geom.SelfIntersectingStar(geom.Point{X: 0, Y: 0}, 5, 5, 0.3)}
	big := geom.RectPolygon(-6, -6, 6, 6)
	eo := clipPoly(star, big, engine.Intersection, engine.Options{Rule: engine.EvenOdd})
	nz := clipPoly(star, big, engine.Intersection, engine.Options{Rule: engine.NonZero})
	if nz.Area() <= eo.Area() {
		t.Errorf("nonzero area %v should exceed even-odd area %v", nz.Area(), eo.Area())
	}
	centre := geom.Point{X: 0, Y: 0}
	if eo.ContainsPoint(centre) {
		t.Error("even-odd pentagram centre should be a hole")
	}
	if !nz.ContainsPoint(centre) {
		t.Error("nonzero pentagram centre should be filled")
	}
}

func TestNonZeroOverlappingSameDirectionRings(t *testing.T) {
	// Two CCW rings overlapping: under NonZero their union is the region
	// (winding >= 1 everywhere covered); under EvenOdd the overlap cancels.
	p := geom.Polygon{geom.Rect(0, 0, 4, 4), geom.Rect(2, 2, 6, 6)}
	big := geom.RectPolygon(-1, -1, 7, 7)
	nz := clipPoly(p, big, engine.Intersection, engine.Options{Rule: engine.NonZero})
	if math.Abs(nz.Area()-28) > 1e-6 {
		t.Errorf("nonzero area = %v, want 28 (union of rings)", nz.Area())
	}
	eo := clipPoly(p, big, engine.Intersection, engine.Options{Rule: engine.EvenOdd})
	if math.Abs(eo.Area()-24) > 1e-6 {
		t.Errorf("even-odd area = %v, want 24 (overlap cancels)", eo.Area())
	}
}

func TestNonZeroHoleNeedsOppositeOrientation(t *testing.T) {
	outer := geom.Rect(0, 0, 10, 10) // CCW
	holeCW := geom.Rect(3, 3, 7, 7)
	holeCW.Reverse()
	withHole := geom.Polygon{outer, holeCW}
	big := geom.RectPolygon(-1, -1, 11, 11)
	nz := clipPoly(withHole, big, engine.Intersection, engine.Options{Rule: engine.NonZero})
	if math.Abs(nz.Area()-84) > 1e-6 {
		t.Errorf("CW hole under nonzero: area = %v, want 84", nz.Area())
	}
	// Same-direction inner ring is NOT a hole under NonZero.
	holeCCW := geom.Rect(3, 3, 7, 7)
	noHole := geom.Polygon{outer, holeCCW}
	nz2 := clipPoly(noHole, big, engine.Intersection, engine.Options{Rule: engine.NonZero})
	if math.Abs(nz2.Area()-100) > 1e-6 {
		t.Errorf("CCW inner ring under nonzero: area = %v, want 100", nz2.Area())
	}
	// Under EvenOdd both orientations punch a hole.
	eo := clipPoly(noHole, big, engine.Intersection, engine.Options{Rule: engine.EvenOdd})
	if math.Abs(eo.Area()-84) > 1e-6 {
		t.Errorf("even-odd area = %v, want 84", eo.Area())
	}
}

func TestNonZeroAllOpsAgreeOnSimpleInputs(t *testing.T) {
	// For simple (non-self-intersecting, disjoint-ring) operands the two
	// rules agree on every operation.
	a := geom.Polygon{geom.Star(geom.Point{X: 0, Y: 0}, 4, 1.5, 7, 0.2)}
	b := geom.Polygon{geom.Star(geom.Point{X: 1, Y: 1}, 4, 1.5, 6, 0.5)}
	for _, op := range []engine.Op{engine.Intersection, engine.Union, engine.Difference, engine.Xor} {
		eo := clipPoly(a, b, op, engine.Options{Rule: engine.EvenOdd}).Area()
		nz := clipPoly(a, b, op, engine.Options{Rule: engine.NonZero}).Area()
		if math.Abs(eo-nz) > 1e-6*(1+eo) {
			t.Errorf("%v: even-odd %v vs nonzero %v", op, eo, nz)
		}
	}
}

func TestFillRuleInside(t *testing.T) {
	cases := []struct {
		rule engine.FillRule
		w    int16
		want bool
	}{
		{engine.EvenOdd, 0, false}, {engine.EvenOdd, 1, true}, {engine.EvenOdd, 2, false}, {engine.EvenOdd, -1, true}, {engine.EvenOdd, 3, true},
		{engine.NonZero, 0, false}, {engine.NonZero, 1, true}, {engine.NonZero, 2, true}, {engine.NonZero, -1, true}, {engine.NonZero, -2, true},
	}
	for _, c := range cases {
		if got := c.rule.Inside(c.w); got != c.want {
			t.Errorf("rule %d wind %d = %v, want %v", c.rule, c.w, got, c.want)
		}
	}
}

package geom

// Convex-window fast-path primitives (Skala's O(1) window accept/reject
// tests): the prepared-geometry pipeline classifies a clip window against a
// layer without touching a sweep whenever the window provably lies entirely
// inside or outside the layer. These predicates are the O(1) building blocks;
// the window query over the layer's edges lives in internal/prepared.

// Center returns the box center. Meaningful only for non-empty boxes.
func (b BBox) Center() Point {
	return Point{X: (b.MinX + b.MaxX) / 2, Y: (b.MinY + b.MaxY) / 2}
}

// SegIntersectsBBox reports whether the closed segment meets the closed box,
// including touches (an endpoint on the boundary, an edge collinear with a
// box side). The test is exact: the only separating axes for a segment and
// an axis-aligned box are the two coordinate axes (covered by the span
// overlap checks) and the segment's own normal (covered by the robust
// orientation predicate over the box corners), so no epsilon enters the
// decision — which is what lets the window classifier's verdicts agree with
// the exact sweep on degenerate tiles.
func SegIntersectsBBox(s Segment, b BBox) bool {
	if b.IsEmpty() {
		return false
	}
	lox, hix := s.XSpan()
	if hix < b.MinX || lox > b.MaxX {
		return false
	}
	loy, hiy := s.YSpan()
	if hiy < b.MinY || loy > b.MaxY {
		return false
	}
	if s.A == s.B {
		return true // degenerate segment inside the span overlap
	}
	// Spans overlap; the segment misses the box only if all four corners lie
	// strictly on one side of its supporting line.
	c1 := Orient(s.A, s.B, Point{b.MinX, b.MinY})
	c2 := Orient(s.A, s.B, Point{b.MaxX, b.MinY})
	c3 := Orient(s.A, s.B, Point{b.MaxX, b.MaxY})
	c4 := Orient(s.A, s.B, Point{b.MinX, b.MaxY})
	allPos := c1 > 0 && c2 > 0 && c3 > 0 && c4 > 0
	allNeg := c1 < 0 && c2 < 0 && c3 < 0 && c4 < 0
	return !allPos && !allNeg
}

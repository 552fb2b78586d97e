// Package shclip implements the two classic rectangle/convex-window clipping
// algorithms the paper cites as the non-general baselines its algorithm
// improves on (§II-B): Sutherland–Hodgman polygon clipping against a convex
// window, and Liang–Barsky parametric line clipping against an axis-aligned
// rectangle. Neither handles arbitrary clip polygons — that limitation is
// the paper's motivation — but both are fast primitives for viewport
// clipping and for the slab partitioning of Algorithm 2.
package shclip

import "polyclip/internal/geom"

// SutherlandHodgman clips a subject ring against a convex clip ring
// (counter-clockwise) and returns the clipped ring. Concave subjects are
// supported; the output may contain collinear bridge edges where the subject
// leaves and re-enters the window, as is inherent to the algorithm.
func SutherlandHodgman(subject geom.Ring, convexClip geom.Ring) geom.Ring {
	out := subject.Clone()
	n := len(convexClip)
	for i := 0; i < n && len(out) > 0; i++ {
		a := convexClip[i]
		b := convexClip[(i+1)%n]
		out = clipAgainstLine(out, a, b)
	}
	return out
}

// clipAgainstLine keeps the part of the ring on the left of the directed
// line a->b.
func clipAgainstLine(in geom.Ring, a, b geom.Point) geom.Ring {
	var out geom.Ring
	n := len(in)
	if n == 0 {
		return nil
	}
	prev := in[n-1]
	prevIn := geom.Orient(a, b, prev) >= 0
	for _, cur := range in {
		curIn := geom.Orient(a, b, cur) >= 0
		if curIn != prevIn {
			out = append(out, lineSegIntersect(a, b, prev, cur))
		}
		if curIn {
			out = append(out, cur)
		}
		prev, prevIn = cur, curIn
	}
	return out
}

// lineSegIntersect intersects the infinite line a->b with segment p->q.
func lineSegIntersect(a, b, p, q geom.Point) geom.Point {
	d := b.Sub(a)
	e := q.Sub(p)
	denom := d.Cross(e)
	if denom == 0 {
		return p
	}
	t := p.Sub(a).Cross(d) / denom
	return geom.Point{X: p.X + t*e.X, Y: p.Y + t*e.Y}
}

// LiangBarsky clips the segment to an axis-aligned rectangle. It returns the
// clipped segment and true, or false when the segment lies entirely outside.
func LiangBarsky(s geom.Segment, box geom.BBox) (geom.Segment, bool) {
	dx := s.B.X - s.A.X
	dy := s.B.Y - s.A.Y
	t0, t1 := 0.0, 1.0

	clip := func(p, q float64) bool {
		if p == 0 {
			return q >= 0
		}
		r := q / p
		if p < 0 {
			if r > t1 {
				return false
			}
			if r > t0 {
				t0 = r
			}
		} else {
			if r < t0 {
				return false
			}
			if r < t1 {
				t1 = r
			}
		}
		return true
	}

	if clip(-dx, s.A.X-box.MinX) &&
		clip(dx, box.MaxX-s.A.X) &&
		clip(-dy, s.A.Y-box.MinY) &&
		clip(dy, box.MaxY-s.A.Y) {
		return geom.Segment{
			A: geom.Point{X: s.A.X + t0*dx, Y: s.A.Y + t0*dy},
			B: geom.Point{X: s.A.X + t1*dx, Y: s.A.Y + t1*dy},
		}, true
	}
	return geom.Segment{}, false
}

package geom

import "math"

// GridStep returns the power-of-two snap grid for geometry spanning box: the
// smallest power of two at or above RelEps times the box's largest side or
// absolute coordinate. The grid must respect the absolute coordinate
// magnitude as well as the extent: float64 cannot address (and int64 cannot
// index) positions finer than a relative 1e-12 of the largest coordinate. A
// power-of-two step keeps quantizing binary-representable coordinates
// (integers, halves, ...) exact, so outputs stay clean. It returns 0 for a
// zero, empty or non-finite extent, where there is no grid to derive.
func GridStep(box BBox) float64 {
	m := math.Max(box.Width(), box.Height())
	for _, v := range [...]float64{box.MinX, box.MaxX, box.MinY, box.MaxY} {
		m = math.Max(m, math.Abs(v))
	}
	if !(m > 0) || math.IsInf(m, 0) {
		return 0
	}
	return math.Ldexp(1, int(math.Ceil(math.Log2(m*RelEps))))
}

// SnapPoint rounds p onto the eps grid. Rounding is a pure function of the
// coordinate value, so the same arrangement vertex reached through different
// edges — or produced independently by different slab workers — always lands
// on the identical representative.
func SnapPoint(p Point, eps float64) Point {
	return Point{X: math.Round(p.X/eps) * eps, Y: math.Round(p.Y/eps) * eps}
}

// AutoSnapEps picks the vertex-snapping grid for a clipping run over the two
// operands: the GridStep of their joint extent, shared by every worker of one
// run so seam geometry produced independently (e.g. by different slab
// workers) quantizes identically. Operands of zero extent get the grid of a
// unit extent.
func AutoSnapEps(a, b Polygon) float64 {
	if eps := GridStep(a.BBox().Union(b.BBox())); eps > 0 {
		return eps
	}
	return GridStep(BBox{MaxX: 1, MaxY: 1})
}

// SnapPolygon quantizes every vertex onto the eps grid (SnapPoint) — the same
// rounding the overlay engine applies before pair finding, so geometry
// snapped here and geometry snapped inside a downstream sweep quantize
// identically. Consecutive duplicate vertices are merged and rings that
// degenerate below three distinct vertices are dropped. eps <= 0 returns p
// unchanged.
func SnapPolygon(p Polygon, eps float64) Polygon {
	if eps <= 0 {
		return p
	}
	out := make(Polygon, 0, len(p))
	for _, r := range p {
		nr := make(Ring, 0, len(r))
		for _, pt := range r {
			q := SnapPoint(pt, eps)
			if len(nr) == 0 || q != nr[len(nr)-1] {
				nr = append(nr, q)
			}
		}
		for len(nr) > 1 && nr[len(nr)-1] == nr[0] {
			nr = nr[:len(nr)-1]
		}
		if len(nr) >= 3 {
			out = append(out, nr)
		}
	}
	return out
}

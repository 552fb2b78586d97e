// Package geom provides the geometric substrate for the polygon-clipping
// library: points, segments, rings and polygons, together with the predicates
// (orientation, segment intersection, point location) every clipping engine
// in this repository is built on.
//
// Coordinates are float64. The orientation predicate is evaluated in floating
// point with a forward error bound and falls back to exact rational
// arithmetic when the floating-point sign is not certain, so the combinatorial
// decisions made by the clipping engines are reliable for non-adversarial
// inputs.
package geom

import (
	"cmp"
	"fmt"
	"math"
)

// Eps is the default tolerance used when snapping nearly identical
// coordinates produced by intersection computations.
const Eps = 1e-9

// RelEps is the relative coordinate tolerance: positions closer than
// RelEps times the coordinate magnitude are beyond what float64 can
// meaningfully distinguish after a clipping arrangement is computed. Every
// tolerance in the pipeline (snap grids, endpoint welds, scanline
// grouping) derives from it, so the library behaves identically at any
// coordinate scale.
const RelEps = 1e-12

// Point is a point in the plane.
type Point struct {
	X, Y float64
}

// Sub returns p - q as a vector.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Dot returns the dot product of p and q taken as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the 2D cross product of p and q taken as vectors.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Near reports whether p and q coincide within tolerance eps in both
// coordinates.
func (p Point) Near(q Point, eps float64) bool {
	return math.Abs(p.X-q.X) <= eps && math.Abs(p.Y-q.Y) <= eps
}

// Less orders points lexicographically by (Y, X). The clipping engines sweep
// bottom-to-top, so Y is the primary key, matching the paper's scanline
// order.
func (p Point) Less(q Point) bool {
	if p.Y != q.Y {
		return p.Y < q.Y
	}
	return p.X < q.X
}

// Compare is the three-way form of Less, for sorting: -1, 0 or +1. Like
// ==, it treats -0 and +0 as equal; NaN sorts first.
func (p Point) Compare(q Point) int {
	if c := cmp.Compare(p.Y, q.Y); c != 0 {
		return c
	}
	return cmp.Compare(p.X, q.X)
}

// CompareBits is Compare with ties broken on the coordinate bits, Y first:
// a total order, so a sort by it is a function of the set even with ±0.
func (p Point) CompareBits(q Point) int {
	return cmp.Or(p.Compare(q),
		cmp.Compare(math.Float64bits(p.Y), math.Float64bits(q.Y)),
		cmp.Compare(math.Float64bits(p.X), math.Float64bits(q.X)))
}

func (p Point) String() string { return fmt.Sprintf("(%g,%g)", p.X, p.Y) }

// IsFinite reports whether both coordinates are finite (neither NaN nor
// ±Inf).
func (p Point) IsFinite() bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) &&
		!math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}

// Segment is a directed straight line segment from A to B.
type Segment struct {
	A, B Point
}

// YSpan returns the segment's y extent with lo <= hi.
func (s Segment) YSpan() (lo, hi float64) {
	if s.A.Y <= s.B.Y {
		return s.A.Y, s.B.Y
	}
	return s.B.Y, s.A.Y
}

// XSpan returns the segment's x extent with lo <= hi.
func (s Segment) XSpan() (lo, hi float64) {
	if s.A.X <= s.B.X {
		return s.A.X, s.B.X
	}
	return s.B.X, s.A.X
}

// XAtY returns the x coordinate at which the (extended) segment crosses the
// horizontal line at y. The segment must not be horizontal.
func (s Segment) XAtY(y float64) float64 {
	if s.A.Y == s.B.Y {
		// Horizontal: return the left end; callers are expected to skip
		// horizontals (they span no scanbeam) but stay total.
		if s.A.X < s.B.X {
			return s.A.X
		}
		return s.B.X
	}
	// Exact at endpoints so shared vertices compare equal downstream.
	if y == s.A.Y {
		return s.A.X
	}
	if y == s.B.Y {
		return s.B.X
	}
	t := (y - s.A.Y) / (s.B.Y - s.A.Y)
	return s.A.X + t*(s.B.X-s.A.X)
}

// DistToPoint returns the Euclidean distance from p to the segment.
func (s Segment) DistToPoint(p Point) float64 {
	d := s.B.Sub(s.A)
	l2 := d.Dot(d)
	if l2 == 0 {
		return p.Dist(s.A)
	}
	t := p.Sub(s.A).Dot(d) / l2
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return p.Dist(Point{s.A.X + t*d.X, s.A.Y + t*d.Y})
}

// Len returns the segment length.
func (s Segment) Len() float64 { return s.A.Dist(s.B) }

func (s Segment) String() string { return fmt.Sprintf("[%v-%v]", s.A, s.B) }

// Ring is a closed polygonal chain. The closing edge from the last vertex
// back to the first is implicit; rings must not repeat the first vertex at
// the end.
type Ring []Point

// Clone returns a deep copy of the ring.
func (r Ring) Clone() Ring {
	c := make(Ring, len(r))
	copy(c, r)
	return c
}

// Edges appends the ring's directed edges to dst and returns it.
func (r Ring) Edges(dst []Segment) []Segment {
	n := len(r)
	for i := 0; i < n; i++ {
		j := i + 1
		if j == n {
			j = 0
		}
		if r[i] != r[j] {
			dst = append(dst, Segment{r[i], r[j]})
		}
	}
	return dst
}

// SignedArea returns the signed area of the ring: positive for
// counter-clockwise orientation.
func (r Ring) SignedArea() float64 {
	n := len(r)
	if n < 3 {
		return 0
	}
	// Shoelace about the first vertex: mathematically identical, but
	// numerically stable for rings far from the origin (raw cross products
	// of 1e9-magnitude coordinates would cancel catastrophically).
	o := r[0]
	var s float64
	for i := 1; i < n-1; i++ {
		s += r[i].Sub(o).Cross(r[i+1].Sub(o))
	}
	return s / 2
}

// Area returns the absolute area of the ring.
func (r Ring) Area() float64 { return math.Abs(r.SignedArea()) }

// IsCCW reports whether the ring is counter-clockwise oriented.
func (r Ring) IsCCW() bool { return r.SignedArea() > 0 }

// Reverse reverses the ring in place.
func (r Ring) Reverse() {
	for i, j := 0, len(r)-1; i < j; i, j = i+1, j-1 {
		r[i], r[j] = r[j], r[i]
	}
}

// Validate returns a descriptive error when the ring contains a non-finite
// (NaN or ±Inf) coordinate. Such coordinates poison every predicate —
// comparisons with NaN are false, so sweeps mis-sort and engines can hang
// or crash — which is why all parse and clip entry points reject them.
func (r Ring) Validate() error {
	for i, pt := range r {
		if !pt.IsFinite() {
			return fmt.Errorf("vertex %d: non-finite coordinate %v", i, pt)
		}
	}
	return nil
}

// BBox returns the ring's bounding box.
func (r Ring) BBox() BBox {
	b := EmptyBBox()
	for _, p := range r {
		b.Extend(p)
	}
	return b
}

// Polygon is a polygon with zero or more rings (contours), interpreted under
// the even-odd fill rule: a point is inside when a ray from it crosses the
// union of all contours an odd number of times. This is the interpretation
// used by GPC and by the paper's handling of self-intersecting inputs; holes
// need no special orientation.
type Polygon []Ring

// Clone returns a deep copy of the polygon.
func (p Polygon) Clone() Polygon {
	c := make(Polygon, len(p))
	for i, r := range p {
		c[i] = r.Clone()
	}
	return c
}

// NumVertices returns the total vertex count over all rings.
func (p Polygon) NumVertices() int {
	n := 0
	for _, r := range p {
		n += len(r)
	}
	return n
}

// Edges returns all directed edges of all rings.
func (p Polygon) Edges() []Segment {
	var out []Segment
	for _, r := range p {
		out = r.Edges(out)
	}
	return out
}

// Area returns the even-odd area of the polygon: the measure of the point
// set with odd crossing parity. For a polygon whose rings do not cross each
// other this equals the alternating sum |Σ ±area(ring)| with holes
// subtracted; it is computed here by decomposition against all rings using
// signed areas of the arrangement's faces, approximated as the absolute sum
// of signed ring areas (exact when rings are disjoint or properly nested
// with alternating orientation, which is what the clipping engines emit).
func (p Polygon) Area() float64 {
	var s float64
	for _, r := range p {
		s += r.SignedArea()
	}
	return math.Abs(s)
}

// Validate returns a descriptive error when any ring contains a non-finite
// (NaN or ±Inf) coordinate.
func (p Polygon) Validate() error {
	for ri, r := range p {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("ring %d: %w", ri, err)
		}
	}
	return nil
}

// BBox returns the polygon's bounding box.
func (p Polygon) BBox() BBox {
	b := EmptyBBox()
	for _, r := range p {
		for _, pt := range r {
			b.Extend(pt)
		}
	}
	return b
}

// ContainsPoint reports whether pt is inside the polygon under the even-odd
// rule. Points exactly on the boundary are classified arbitrarily but
// deterministically.
func (p Polygon) ContainsPoint(pt Point) bool {
	odd := false
	for _, r := range p {
		n := len(r)
		for i := 0; i < n; i++ {
			j := i + 1
			if j == n {
				j = 0
			}
			a, b := r[i], r[j]
			// Count crossings of the horizontal ray to the right of pt,
			// half-open in y to avoid double counting at vertices.
			if (a.Y > pt.Y) != (b.Y > pt.Y) {
				x := a.X + (pt.Y-a.Y)/(b.Y-a.Y)*(b.X-a.X)
				if x > pt.X {
					odd = !odd
				}
			}
		}
	}
	return odd
}

// BBox is an axis-aligned bounding box (the paper's MBR).
type BBox struct {
	MinX, MinY, MaxX, MaxY float64
}

// EmptyBBox returns an empty bounding box that extends to contain anything.
func EmptyBBox() BBox {
	return BBox{math.Inf(1), math.Inf(1), math.Inf(-1), math.Inf(-1)}
}

// IsEmpty reports whether the box contains no points.
func (b BBox) IsEmpty() bool { return b.MinX > b.MaxX || b.MinY > b.MaxY }

// Extend grows the box to include p. The builtin min and max inline, and
// agree with math.Min and math.Max on finite coordinates, ±0 included.
func (b *BBox) Extend(p Point) {
	b.MinX = min(b.MinX, p.X)
	b.MinY = min(b.MinY, p.Y)
	b.MaxX = max(b.MaxX, p.X)
	b.MaxY = max(b.MaxY, p.Y)
}

// Union returns the smallest box containing both b and o.
func (b BBox) Union(o BBox) BBox {
	if b.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return b
	}
	return BBox{
		math.Min(b.MinX, o.MinX), math.Min(b.MinY, o.MinY),
		math.Max(b.MaxX, o.MaxX), math.Max(b.MaxY, o.MaxY),
	}
}

// Intersects reports whether the two boxes overlap (closed boxes).
func (b BBox) Intersects(o BBox) bool {
	return b.MinX <= o.MaxX && o.MinX <= b.MaxX && b.MinY <= o.MaxY && o.MinY <= b.MaxY
}

// Contains reports whether p lies inside the closed box.
func (b BBox) Contains(p Point) bool {
	return p.X >= b.MinX && p.X <= b.MaxX && p.Y >= b.MinY && p.Y <= b.MaxY
}

// Width returns the box width.
func (b BBox) Width() float64 { return b.MaxX - b.MinX }

// Height returns the box height.
func (b BBox) Height() float64 { return b.MaxY - b.MinY }

package prepared

import (
	"slices"

	"polyclip/internal/engine"
	"polyclip/internal/geom"
	"polyclip/internal/vatti"
)

// ClipRect clips the prepared layer to the window and reports which route
// served it. The result is the even-odd region layer ∩ box with canonical
// ring orientations (CCW outers, CW holes); nil when empty.
//
// Every straddling window takes the oriented pass (clipOriented): one walk
// over the edges the window query returned, linked around the window's
// corners, whose cost follows the boundary inside the window and never the
// layer, convex ring or not.
//
// A panic anywhere in the oriented pass is rescued by the full prepared
// sweep (SweepRect), mirroring the engine resilience convention.
func (pp *Prepared) ClipRect(box geom.BBox) (out geom.Polygon, cls Class) {
	scr := pp.scratch.Get().(*scratch)
	defer pp.scratch.Put(scr)

	cls = pp.classify(box, scr)
	switch cls {
	case Outside:
		pp.fastOutside.Add(1)
		return nil, cls
	case Inside:
		pp.fastInside.Add(1)
		return geom.RectPolygon(box.MinX, box.MinY, box.MaxX, box.MaxY), cls
	}

	defer func() {
		if r := recover(); r != nil {
			pp.rescues.Add(1)
			out = pp.SweepRect(box)
		}
	}()

	pp.bandClips.Add(1)
	return pp.clipOriented(box, scr), cls
}

// chain is one run of the layer's boundary through the open window: the
// points pts[lo:hi] of the scratch, from the entry point on the window's
// boundary to the exit point. After linking, next is the chain whose entry
// follows this chain's exit counter-clockwise around the window, and corners
// is the number of window corners passed on the way from the exit's side.
type chain struct {
	lo, hi            int32
	next              int32
	exitSide, corners int8
	used              bool
}

// crossing is the entry or exit point of a chain on the window's boundary.
// far is the other endpoint of its edge, so far-p points into the window;
// near is the endpoint on p's own side. side and pos place p on the boundary
// counter-clockwise (windowKey).
type crossing struct {
	p, far, near geom.Point
	pos          float64
	chain        int32
	side         int8
	exit         bool
}

// clipOriented is Weiler–Atherton on the window rectangle, run over the
// edges scr.ids the window query returned. The canonical layer keeps its
// interior on the left of every edge, so:
//
//   - each edge meeting the open window whose start vertex is not strictly
//     inside it opens a chain, which follows the ring's edges until one
//     leaves the window;
//   - the entry and exit points, sorted counter-clockwise around the window,
//     alternate exit, entry, exit, ..., and the window boundary from each
//     exit to the next entry lies in the layer, so linking them through the
//     corners closes the result's rings, canonically oriented;
//   - rings wholly inside the open window pass through;
//   - with no chain at all, the window is covered or empty as a whole: the
//     rectangle is emitted when an odd number of the rings around its centre
//     (the rings passed through aside) contain it.
//
// Degenerate contacts (a vertex on a side or corner, an edge along a side,
// an edge through a corner) follow one rule, the limit of a window shrunk by
// an infinitesimal δ: boundary points count as outside, so an edge meets the
// window only where it meets the open window, and coincident crossings are
// ordered by the directions of their edges into the window (lessCrossing).
func (pp *Prepared) clipOriented(box geom.BBox, scr *scratch) geom.Polygon {
	var out geom.Polygon
	scr.pts, scr.chains, scr.xs = scr.pts[:0], scr.chains[:0], scr.xs[:0]
	for _, id := range scr.ids {
		s := pp.edges[id]
		if !meetsInterior(s, box) {
			continue
		}
		if interior(s.A, box) {
			// A chain walk reaches this edge, unless its ring lies in the
			// open window: then the ring passes through, once.
			if ri := pp.edgeRing[id]; id == pp.ringOff[ri] && pp.ringInterior(ri, box) {
				out = append(out, pp.poly[ri].Clone())
			}
			continue
		}
		pp.walkChain(id, box, scr)
	}
	if len(scr.chains) == 0 {
		if pp.containsPoint(box.Center(), scr, func(ri int32) bool { return pp.ringInterior(ri, box) }) {
			rect := geom.Rect(box.MinX, box.MinY, box.MaxX, box.MaxY)
			if rect.SignedArea() > 0 {
				out = append(geom.Polygon{rect}, out...)
			}
		}
		return out
	}

	// Link each exit to the entry after it counter-clockwise.
	xs := scr.xs
	slices.SortFunc(xs, lessCrossing)
	for i, x := range xs {
		if !x.exit {
			continue
		}
		j := i + 1
		if j == len(xs) {
			j = 0
		}
		y := xs[j]
		if y.exit {
			panic("prepared: window crossings do not alternate")
		}
		c := &scr.chains[x.chain]
		c.next, c.exitSide = y.chain, x.side
		c.corners = y.side - x.side
		if j <= i {
			c.corners += 4
		}
	}

	corners := [4]geom.Point{
		{X: box.MinX, Y: box.MinY}, {X: box.MaxX, Y: box.MinY},
		{X: box.MaxX, Y: box.MaxY}, {X: box.MinX, Y: box.MaxY},
	}
	for start := range scr.chains {
		if scr.chains[start].used {
			continue
		}
		ring := scr.ring[:0]
		for ci := int32(start); !scr.chains[ci].used; ci = scr.chains[ci].next {
			c := &scr.chains[ci]
			c.used = true
			for _, p := range scr.pts[c.lo:c.hi] {
				ring = appendDistinct(ring, p)
			}
			for k := int8(1); k <= c.corners; k++ {
				ring = appendDistinct(ring, corners[(c.exitSide+k)%4])
			}
		}
		scr.ring = ring
		if ring = trimWrap(ring); len(ring) >= 3 && ring.SignedArea() != 0 {
			out = append(out, ring.Clone())
		}
	}
	return out
}

// walkChain records the chain that enters the window on edge id, whose
// start vertex is not strictly inside the window, and follows the ring's
// edges until one leaves it.
func (pp *Prepared) walkChain(id int32, box geom.BBox, scr *scratch) {
	ci := int32(len(scr.chains))
	s := pp.edges[id]
	entry := boundaryPoint(s.A, s.B, box)
	scr.addCrossing(crossing{p: entry, far: s.B, near: s.A, chain: ci}, box)
	lo := int32(len(scr.pts))
	scr.pts = append(scr.pts, entry)
	for interior(s.B, box) {
		scr.pts = append(scr.pts, s.B)
		id = pp.nextEdge(id)
		s = pp.edges[id]
	}
	exit := boundaryPoint(s.B, s.A, box)
	scr.addCrossing(crossing{p: exit, far: s.A, near: s.B, chain: ci, exit: true}, box)
	scr.pts = append(scr.pts, exit)
	scr.chains = append(scr.chains, chain{lo: lo, hi: int32(len(scr.pts))})
}

func (scr *scratch) addCrossing(x crossing, box geom.BBox) {
	x.side, x.pos = windowKey(x.p, box)
	scr.xs = append(scr.xs, x)
}

// windowKey places a point of the window's boundary counter-clockwise: its
// side (0 bottom, 1 right, 2 top, 3 left; each side owns the corner it
// starts at) and its position along that side.
func windowKey(p geom.Point, b geom.BBox) (side int8, pos float64) {
	switch {
	case p.Y == b.MinY && p.X < b.MaxX:
		return 0, p.X
	case p.X == b.MaxX && p.Y < b.MaxY:
		return 1, p.Y
	case p.Y == b.MaxY && p.X > b.MinX:
		return 2, -p.X
	}
	return 3, -p.Y
}

// lessCrossing orders crossings counter-clockwise around the window. Two
// crossings at one point are ordered as they cross the window shrunk by an
// infinitesimal δ: by the directions of their edges into the window, which
// all lie in one half-plane (a quadrant at a corner), a first when b's edge
// lies clockwise of a's. Two crossings sharing their far
// vertex are consecutive edges whose vertex lies just off the boundary and
// whose crossings rounded together; they cross the shrunk window in the
// order their outer ends take seen from the point.
func lessCrossing(a, b crossing) int {
	switch {
	case a.side != b.side:
		return int(a.side) - int(b.side)
	case a.pos < b.pos:
		return -1
	case a.pos > b.pos:
		return 1
	}
	if o := geom.Orient(a.p, a.far, b.far); o != geom.Collinear {
		return int(o)
	}
	if a.far == b.far {
		return -int(geom.Orient(a.p, a.near, b.near))
	}
	return 0
}

// boundaryPoint returns where the segment from o, which is not strictly
// inside the window, toward d first meets the closed window: o itself when
// o lies on the boundary. The segment must meet the open window. Beyond two
// sides, an exact orientation test against the corner between them picks
// the side the segment crosses, and a segment through the corner crosses at
// the corner exactly.
func boundaryPoint(o, d geom.Point, b geom.BBox) geom.Point {
	var c geom.Point // the window corner nearest o
	var sx, sy int   // +1 (-1) when o lies below (above) the window in x, y
	switch {
	case o.X < b.MinX:
		c.X, sx = b.MinX, 1
	case o.X > b.MaxX:
		c.X, sx = b.MaxX, -1
	}
	switch {
	case o.Y < b.MinY:
		c.Y, sy = b.MinY, 1
	case o.Y > b.MaxY:
		c.Y, sy = b.MaxY, -1
	}
	vertical := sx != 0
	switch {
	case sx == 0 && sy == 0:
		return o
	case sx != 0 && sy != 0:
		// The line o-d meets x = c.X on the window's side of c.Y exactly when
		// the orientation of c against o->d is -sx*sy.
		turn := geom.Orient(o, d, c)
		if turn == geom.Collinear {
			return c
		}
		vertical = int(turn) == -sx*sy
	}
	if vertical {
		return geom.Point{X: c.X, Y: clamp(crossAt(o.X, o.Y, d.X, d.Y, c.X), b.MinY, b.MaxY)}
	}
	return geom.Point{X: clamp(crossAt(o.Y, o.X, d.Y, d.X, c.Y), b.MinX, b.MaxX), Y: c.Y}
}

// crossAt returns the v at which the line through (u1, v1) and (u2, v2)
// meets u = u0. The endpoints are taken in u order, so an edge shared by two
// windows, in either direction, crosses their common side at one point.
func crossAt(u1, v1, u2, v2, u0 float64) float64 {
	if u2 < u1 {
		u1, v1, u2, v2 = u2, v2, u1, v1
	}
	return v1 + (u0-u1)*(v2-v1)/(u2-u1)
}

func clamp(v, lo, hi float64) float64 { return min(max(v, lo), hi) }

// interior reports whether p lies strictly inside the box.
func interior(p geom.Point, b geom.BBox) bool {
	return p.X > b.MinX && p.X < b.MaxX && p.Y > b.MinY && p.Y < b.MaxY
}

// meetsInterior reports whether the segment meets the open box, exactly:
// the separating-axis test of geom.SegIntersectsBBox with touching counted
// as separate.
func meetsInterior(s geom.Segment, b geom.BBox) bool {
	if interior(s.A, b) || interior(s.B, b) {
		return true
	}
	lox, hix := s.XSpan()
	loy, hiy := s.YSpan()
	if hix <= b.MinX || lox >= b.MaxX || hiy <= b.MinY || loy >= b.MaxY {
		return false
	}
	var left, right bool
	for _, c := range [4]geom.Point{{X: b.MinX, Y: b.MinY}, {X: b.MaxX, Y: b.MinY}, {X: b.MaxX, Y: b.MaxY}, {X: b.MinX, Y: b.MaxY}} {
		switch geom.Orient(s.A, s.B, c) {
		case geom.CounterClockwise:
			left = true
		case geom.Clockwise:
			right = true
		}
	}
	return left && right
}

// appendDistinct appends p unless it repeats the ring's last point.
func appendDistinct(r geom.Ring, p geom.Point) geom.Ring {
	if len(r) > 0 && r[len(r)-1] == p {
		return r
	}
	return append(r, p)
}

// trimWrap drops the ring's last points while they repeat its first.
func trimWrap(r geom.Ring) geom.Ring {
	for len(r) > 1 && r[len(r)-1] == r[0] {
		r = r[:len(r)-1]
	}
	return r
}

// SweepRect is the differential/rescue route: the same window clip computed
// by the full scanbeam sweep (vatti.Clip) of the canonical layer against
// the window rectangle.
func (pp *Prepared) SweepRect(box geom.BBox) geom.Polygon {
	rect := geom.RectPolygon(box.MinX, box.MinY, box.MaxX, box.MaxY)
	return vatti.Clip(pp.poly, rect, engine.Intersection, engine.Options{Rule: engine.EvenOdd})
}

// NaiveClipRect is the baseline that tile's TestPreparedBeatsNaive holds
// the prepared pipeline to (at least 2x faster): a full per-window clip of
// the raw source layer — joint resolution, sweep, stitch — with nothing
// reused across windows. The sweep applies the fill rule to each operand's
// own winding, so the window rectangle is oriented to read as inside under
// the rule: counter-clockwise (winding +1) for every rule except Negative,
// which needs clockwise (winding -1).
func NaiveClipRect(src geom.Polygon, box geom.BBox, rule engine.FillRule) geom.Polygon {
	rect := geom.RectPolygon(box.MinX, box.MinY, box.MaxX, box.MaxY)
	if rule == engine.Negative {
		rect[0].Reverse()
	}
	return vatti.Clip(src, rect, engine.Intersection, engine.Options{Rule: rule})
}

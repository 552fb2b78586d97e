package overlay

import (
	"context"
	"math"
	"slices"
	"sync"

	"polyclip/internal/geom"
	"polyclip/internal/isect"
	"polyclip/internal/par"
)

// useg is a unique geometric sub-segment of the subdivided arrangement,
// with its multiplicity per input polygon. Its endpoints are snapped, Lo is
// the endpoint with smaller (Y, X), and after subdivision no two usegs
// intersect except at shared endpoints.
type useg struct {
	Lo, Hi geom.Point
	// WindSub/WindClip are the signed winding contributions of the
	// subject/clip copies of this segment: each original piece directed
	// Hi->Lo (downward, or -x for horizontals) adds +1, each directed
	// Lo->Hi adds -1, so that walking left-to-right (or top-to-bottom
	// across a horizontal) the region winding number changes by this
	// amount. Parity of the winding equals parity of the copy count, so
	// the even-odd rule needs no separate field.
	WindSub  int16
	WindClip int16
	// WindSubL/WindClipL are the winding numbers of the region on the
	// segment's left side (smaller x; above, for horizontals).
	WindSubL  int16
	WindClipL int16
	classify  bool // set once classified
}

// mulSub reports the even-odd parity of the subject copies.
func (u *useg) mulSub() bool { return u.WindSub&1 != 0 }

func (u *useg) mulClip() bool { return u.WindClip&1 != 0 }

// segKey identifies a useg by its snapped endpoints.
type segKey struct {
	ax, ay, bx, by int64
}

// weldNearVertex pulls an intersection point onto a nearby endpoint of
// either parent edge. Snap rounding demands it: a crossing that lands
// within a cell or two of an existing vertex (a near-tangency, e.g. one
// polygon's apex grazing the other's edge) otherwise rounds to a grid
// point *adjacent* to that vertex, leaving the vertex in the interior of a
// sub-segment with no node there. The left-side flags of such a segment
// are not constant along it, classification is poisoned for every beam
// past the vertex, and stitching drops the unclosable chains. Welding onto
// the endpoint turns the near-tangency into an exact T-vertex instead.
func weldNearVertex(q geom.Point, e1, e2 geom.Segment, eps float64) geom.Point {
	lim := 2 * eps
	best, bestD := q, lim*lim
	for _, v := range [4]geom.Point{e1.A, e1.B, e2.A, e2.B} {
		dx, dy := q.X-v.X, q.Y-v.Y
		if d := dx*dx + dy*dy; d < bestD {
			best, bestD = v, d
		}
	}
	return best
}

// subdivide splits every edge at its intersection points with other edges
// and merges geometric duplicates, returning the unique sub-segments with
// multiplicities. The split-point computation is parallel over pairs; the
// merge is a sequential hash fold (cheap relative to intersection finding).
// Cancellation is polled periodically; on a cancelled ctx the returned
// arrangement is partial and the caller must discard it.
func subdivide(ctx context.Context, edges []geom.Segment, owners []uint8, pairs []isect.Pair, eps float64, p int) []*useg {
	// Intersection points per edge, computed in parallel over pairs into
	// per-worker buckets then folded.
	type split struct {
		edge int32
		pt   geom.Point
	}
	nw := p
	if nw < 1 {
		nw = 1
	}
	buckets := make([][]split, nw)
	var next int
	var mu sync.Mutex
	par.ForEach(len(pairs), p, func(lo, hi int) {
		mu.Lock()
		slot := next
		next++
		mu.Unlock()
		local := buckets[slot]
		for idx := lo; idx < hi; idx++ {
			if (idx-lo)&255 == 0 && canceled(ctx) {
				break
			}
			pr := pairs[idx]
			kind, p0, p1 := geom.SegIntersection(edges[pr.I], edges[pr.J])
			switch kind {
			case geom.Crossing:
				p0 = weldNearVertex(p0, edges[pr.I], edges[pr.J], eps)
				local = append(local, split{pr.I, p0}, split{pr.J, p0})
			case geom.Overlapping:
				p0 = weldNearVertex(p0, edges[pr.I], edges[pr.J], eps)
				p1 = weldNearVertex(p1, edges[pr.I], edges[pr.J], eps)
				local = append(local,
					split{pr.I, p0}, split{pr.I, p1},
					split{pr.J, p0}, split{pr.J, p1})
			}
		}
		buckets[slot] = local
	})

	// Edge indices are dense, so the split points live in a flat slice
	// rather than a map.
	splitsPerEdge := make([][]geom.Point, len(edges))
	for _, b := range buckets {
		for _, s := range b {
			splitsPerEdge[s.edge] = append(splitsPerEdge[s.edge], s.pt)
		}
	}

	// Subdivide each edge and fold into the unique-segment table. The usegs
	// are slab-allocated in blocks: the table holds one pointer per unique
	// sub-segment and a per-entry heap object would dominate the fold's
	// allocation count. Blocks are never reallocated, so the handed-out
	// pointers stay valid.
	table := make(map[segKey]*useg, len(edges)*2)
	var slab []useg
	newUseg := func(a, b geom.Point) *useg {
		if len(slab) == cap(slab) {
			slab = make([]useg, 0, 256)
		}
		slab = append(slab, useg{Lo: a, Hi: b})
		return &slab[len(slab)-1]
	}
	// A snapped coordinate's grid index keys the segment table.
	inv := 1 / eps
	coord := func(v float64) int64 { return int64(math.Round(v * inv)) }
	addPiece := func(a, b geom.Point, owner uint8) {
		// Vertices produced independently by different edges snap onto the
		// eps grid (geom.SnapPoint, the policy geom.SnapPolygon applies to
		// the inputs) so they compare equal.
		a, b = geom.SnapPoint(a, eps), geom.SnapPoint(b, eps)
		if a == b {
			return
		}
		var dir int16 = -1 // original piece directed Lo->Hi
		if b.Less(a) {
			a, b = b, a
			dir = +1 // original piece directed Hi->Lo
		}
		key := segKey{coord(a.X), coord(a.Y), coord(b.X), coord(b.Y)}
		u := table[key]
		if u == nil {
			u = newUseg(a, b)
			table[key] = u
		}
		if owner == 0 {
			u.WindSub += dir
		} else {
			u.WindClip += dir
		}
	}

	for i, e := range edges {
		if i&1023 == 0 && canceled(ctx) {
			break
		}
		pts := splitsPerEdge[i]
		if len(pts) == 0 {
			addPiece(e.A, e.B, owners[i])
			continue
		}
		// Order split points along the edge by parameter t.
		d := e.B.Sub(e.A)
		l2 := d.Dot(d)
		tOf := func(q geom.Point) float64 {
			if l2 == 0 {
				return 0
			}
			return q.Sub(e.A).Dot(d) / l2
		}
		slices.SortFunc(pts, func(a, b geom.Point) int {
			ta, tb := tOf(a), tOf(b)
			switch {
			case ta < tb:
				return -1
			case ta > tb:
				return 1
			default:
				return 0
			}
		})
		prev := e.A
		for _, q := range pts {
			t := tOf(q)
			if t <= 0 || t >= 1 {
				continue
			}
			addPiece(prev, q, owners[i])
			prev = q
		}
		addPiece(prev, e.B, owners[i])
	}

	segs := make([]*useg, 0, len(table))
	for _, u := range table {
		if u.WindSub == 0 && u.WindClip == 0 {
			// Opposite-direction copies cancel under both fill rules. A
			// segment with even copy count but nonzero winding (e.g. two
			// same-direction copies) is kept: it matters under NonZero.
			continue
		}
		segs = append(segs, u)
	}
	// Deterministic order for reproducible stitching.
	slices.SortFunc(segs, func(a, b *useg) int {
		if a.Lo != b.Lo {
			if a.Lo.Less(b.Lo) {
				return -1
			}
			return 1
		}
		switch {
		case a.Hi.Less(b.Hi):
			return -1
		case b.Hi.Less(a.Hi):
			return 1
		default:
			return 0
		}
	})
	return segs
}

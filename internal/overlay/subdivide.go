package overlay

import (
	"cmp"
	"context"
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
}

// piece is one snapped sub-edge before the fold: its endpoints in (Lo, Hi)
// order and its winding contribution.
type piece struct {
	lo, hi    geom.Point
	sub, clip int16
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
// multiplicities in (Lo, Hi) order. The split points are computed in
// parallel over pairs and laid out per edge in one CSR table (a count, a
// prefix sum and a fill); the merge is one sort of the snapped pieces'
// indices by (Lo, Hi, insertion index) and a linear fold over equal runs.
// Cancellation is polled periodically; on a cancelled ctx the returned
// arrangement is partial and the caller must discard it.
func subdivide(ctx context.Context, edges []geom.Segment, owners []uint8, pairs []isect.Pair, eps float64, p int) []useg {
	// Intersection points per edge, computed in parallel over pairs into
	// per-worker buckets.
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

	// CSR split table: count per edge, exclusive prefix sum, then a fill in
	// bucket order. The fill advances end[e] from edge e's start to its
	// end, so afterwards edge e's points are pts[end[e-1]:end[e]].
	end := make([]int32, len(edges)+1)
	for _, b := range buckets {
		for _, s := range b {
			end[s.edge+1]++
		}
	}
	for e := 1; e < len(end); e++ {
		end[e] += end[e-1]
	}
	pts := make([]geom.Point, end[len(edges)])
	for _, b := range buckets {
		for _, s := range b {
			pts[end[s.edge]] = s.pt
			end[s.edge]++
		}
	}

	pieces := make([]piece, 0, len(edges)+len(pts))
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
		pc := piece{lo: a, hi: b}
		if owner == 0 {
			pc.sub = dir
		} else {
			pc.clip = dir
		}
		pieces = append(pieces, pc)
	}

	var start int32
	for i, e := range edges {
		if i&1023 == 0 && canceled(ctx) {
			break
		}
		own := pts[start:end[i]]
		start = end[i]
		if len(own) == 0 {
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
		slices.SortFunc(own, func(a, b geom.Point) int {
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
		for _, q := range own {
			t := tOf(q)
			if t <= 0 || t >= 1 {
				continue
			}
			addPiece(prev, q, owners[i])
			prev = q
		}
		addPiece(prev, e.B, owners[i])
	}

	// Fold equal pieces: one sort of piece indices by (Lo, Hi, index) brings
	// each geometric segment's copies together, and the first one inserted
	// supplies the useg's coordinates (of -0 and +0, the one its edge met
	// first). It also gives the deterministic (Lo, Hi) order that
	// classification and stitching rely on.
	order := make([]int32, len(pieces))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(i, j int32) int {
		a, b := &pieces[i], &pieces[j]
		switch {
		case a.lo != b.lo:
			if a.lo.Less(b.lo) {
				return -1
			}
			return 1
		case a.hi != b.hi:
			if a.hi.Less(b.hi) {
				return -1
			}
			return 1
		}
		return cmp.Compare(i, j)
	})
	segs := make([]useg, 0, len(pieces))
	for k := 0; k < len(order); {
		pc := &pieces[order[k]]
		u := useg{Lo: pc.lo, Hi: pc.hi, WindSub: pc.sub, WindClip: pc.clip}
		for k++; k < len(order); k++ {
			pc = &pieces[order[k]]
			if pc.lo != u.Lo || pc.hi != u.Hi {
				break
			}
			u.WindSub += pc.sub
			u.WindClip += pc.clip
		}
		if u.WindSub == 0 && u.WindClip == 0 {
			// Opposite-direction copies cancel under both fill rules. A
			// segment with even copy count but nonzero winding (e.g. two
			// same-direction copies) is kept: it matters under NonZero.
			continue
		}
		segs = append(segs, u)
	}
	return segs
}

package overlay

import (
	"cmp"
	"context"
	"slices"

	"polyclip/internal/geom"
	"polyclip/internal/isect"
	"polyclip/internal/scanbeam"
)

// piece is one snapped sub-edge before the fold: its endpoints in (Lo, Hi)
// order and its winding contribution per operand (scanbeam.Seg's Wind).
type piece struct {
	lo, hi geom.Point
	wind   [2]int16
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
// multiplicities in (Lo, Hi) order. The split points, one SegIntersection
// per candidate pair, are computed in parallel over chunks of grid cells
// (isect.VisitCandidateChunks) and laid out per edge in one CSR table (a
// count, a prefix sum and a fill); the merge is one sort of the snapped
// pieces' indices by (Lo, Hi, insertion index) and a linear fold over equal
// runs. Cancellation is polled periodically; on a cancelled ctx the
// returned arrangement is partial and the caller must discard it.
func subdivide(ctx context.Context, edges []geom.Segment, owners []uint8, eps float64, p int) []scanbeam.Seg {
	// Intersection points per edge. Each chunk appends to its own bucket,
	// and counts its candidates for the cancellation poll.
	type split struct {
		edge int32
		pt   geom.Point
	}
	type bucket struct {
		splits []split
		seen   int
	}
	buckets := make([]bucket, p)
	isect.VisitCandidateChunks(edges, p, func(c int, i, j int32) bool {
		b := &buckets[c]
		if b.seen++; b.seen&255 == 0 && canceled(ctx) {
			return false
		}
		kind, p0, p1 := geom.SegIntersection(edges[i], edges[j])
		switch kind {
		case geom.Crossing:
			p0 = weldNearVertex(p0, edges[i], edges[j], eps)
			b.splits = append(b.splits, split{i, p0}, split{j, p0})
		case geom.Overlapping:
			p0 = weldNearVertex(p0, edges[i], edges[j], eps)
			p1 = weldNearVertex(p1, edges[i], edges[j], eps)
			b.splits = append(b.splits,
				split{i, p0}, split{i, p1},
				split{j, p0}, split{j, p1})
		}
		return true
	})

	// CSR split table: count per edge, exclusive prefix sum, then a fill in
	// bucket order. The fill advances end[e] from edge e's start to its
	// end, so afterwards edge e's points are pts[end[e-1]:end[e]].
	end := make([]int32, len(edges)+1)
	for _, b := range buckets {
		for _, s := range b.splits {
			end[s.edge+1]++
		}
	}
	for e := 1; e < len(end); e++ {
		end[e] += end[e-1]
	}
	pts := make([]geom.Point, end[len(edges)])
	for _, b := range buckets {
		for _, s := range b.splits {
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
		pc.wind[owner] = dir
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
		// Order split points along the edge by parameter t, then by point and
		// coordinate bits, so the pieces are a function of the edge's set of
		// split points, not of the order the chunks found them in.
		d := e.B.Sub(e.A)
		l2 := d.Dot(d)
		tOf := func(q geom.Point) float64 {
			if l2 == 0 {
				return 0
			}
			return q.Sub(e.A).Dot(d) / l2
		}
		slices.SortFunc(own, func(a, b geom.Point) int {
			if c := cmp.Compare(tOf(a), tOf(b)); c != 0 {
				return c
			}
			return a.CompareBits(b)
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
	// supplies the segment's coordinates (of -0 and +0, the one its edge met
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
	segs := make([]scanbeam.Seg, 0, len(pieces))
	for k := 0; k < len(order); {
		pc := &pieces[order[k]]
		u := scanbeam.Seg{Lo: pc.lo, Hi: pc.hi, Wind: pc.wind}
		for k++; k < len(order); k++ {
			pc = &pieces[order[k]]
			if pc.lo != u.Lo || pc.hi != u.Hi {
				break
			}
			u.Wind[0] += pc.wind[0]
			u.Wind[1] += pc.wind[1]
		}
		if u.Wind == [2]int16{} {
			// Opposite-direction copies cancel under both fill rules. A
			// segment with even copy count but nonzero winding (e.g. two
			// same-direction copies) is kept: it matters under NonZero.
			continue
		}
		segs = append(segs, u)
	}
	return segs
}

// Package bandclip clips a polygon to a horizontal band lo <= y <= hi,
// exactly and in linear time. It implements the rectangle-clipping Steps 4–5
// of the paper's multi-threaded Algorithm 2: the slabs span the full width of
// the data, so clipping to a slab is clipping to a y-band. The points where
// edges cross the band boundaries are the paper's "virtual vertices" (the k'
// term); the horizontal cap edges along the boundaries are the shared edges
// along which adjacent slabs' partial polygons are later merged (Fig. 6).
//
// The algorithm is one Sutherland–Hodgman pass per ring over the band's two
// lines: each edge keeps its part inside the band, with its crossings placed
// exactly on y = lo or y = hi, and consecutive kept parts join directly. A
// run of the ring outside the band leaves and re-enters across the same
// line, so the join that replaces it is a straight cap along that line, and
// no point strictly inside the band changes its winding number. The clip is
// therefore exact under every fill rule, for self-intersecting and
// multi-ring input alike. The caps may overlap one another; a slab host
// resolves its band pieces and folds the coincident edges.
package bandclip

import "polyclip/internal/geom"

// Clip returns the part of the polygon with lo <= y <= hi: one ring for each
// input ring that keeps area in the band, every point strictly inside the
// band keeping its winding number. The caps along y = lo and y = hi may
// overlap, so the result is meant for a host that folds coincident edges.
func Clip(poly geom.Polygon, lo, hi float64) geom.Polygon {
	if lo >= hi || len(poly) == 0 {
		return nil
	}
	var out geom.Polygon
	for _, r := range poly {
		if c := clipRing(r, lo, hi); c != nil {
			out = append(out, c)
		}
	}
	return out
}

// clipRing is the Sutherland–Hodgman pass over one ring. It returns nil when
// the ring keeps no area in the band: fewer than three vertices, or only
// parts lying along one boundary line.
func clipRing(r geom.Ring, lo, hi float64) geom.Ring {
	var out geom.Ring
	tall := false
	for i, a := range r {
		b := r[0]
		if i+1 < len(r) {
			b = r[i+1]
		}
		pa, pb, ok := clipEdgeToBand(a, b, lo, hi)
		if !ok {
			continue
		}
		tall = tall || pa.Y != pb.Y
		if len(out) == 0 || out[len(out)-1] != pa {
			out = append(out, pa)
		}
		out = append(out, pb)
	}
	if len(out) > 1 && out[0] == out[len(out)-1] {
		out = out[:len(out)-1]
	}
	if !tall || len(out) < 3 {
		return nil
	}
	return out
}

// clipEdgeToBand clips segment a->b to the band, returning the clipped
// endpoints. A crossing gets its x from Segment.XAtY and its y exactly lo or
// hi, so caps and the adjacent band's crossings meet bit for bit. ok is false
// when the edge has length zero or keeps at most one point of the band.
func clipEdgeToBand(a, b geom.Point, lo, hi float64) (pa, pb geom.Point, ok bool) {
	if a.Y == b.Y {
		return a, b, a.X != b.X && a.Y >= lo && a.Y <= hi
	}
	if (a.Y <= lo && b.Y <= lo) || (a.Y >= hi && b.Y >= hi) {
		return pa, pb, false
	}
	pa, pb = a, b
	seg := geom.Segment{A: a, B: b}
	if a.Y < lo {
		pa = geom.Point{X: seg.XAtY(lo), Y: lo}
	} else if a.Y > hi {
		pa = geom.Point{X: seg.XAtY(hi), Y: hi}
	}
	if b.Y < lo {
		pb = geom.Point{X: seg.XAtY(lo), Y: lo}
	} else if b.Y > hi {
		pb = geom.Point{X: seg.XAtY(hi), Y: hi}
	}
	return pa, pb, true
}

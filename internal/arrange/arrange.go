// Package arrange pre-resolves operand arrangements for the scanbeam
// engines. A Vatti-style sweep assumes that between two consecutive event
// scanlines no two active edges cross; raw inputs violate that in a way the
// event schedule alone cannot repair. Near-collinear crossings computed in
// floating point land in the wrong scanbeam — the shallower the angle, the
// further the computed intersection drifts along the edges — so scheduling
// the intersection's y is not enough to keep the beam orders consistent.
//
// ResolvePair removes the hazard at the source, the standard snap-rounding
// route (cf. CGAL's arrangement preprocessing): every edge is split at every
// intersection point found by the internal/isect finders, all vertices are
// welded onto one power-of-two grid at geom.RelEps of the data extent, and
// every ring keeps its input direction. The fill rule plays no part: every
// engine reads even-odd membership as the parity of the winding it carries
// (overlay's edge selection, the BeamTrapezoids walk of vatti and
// Algorithm 1, bandclip's chain pairing), so a self-crossing operand needs
// no boundary of its own.
//
// After resolution, edges cross only at shared exact vertices. A collinear
// overlap is cut at its ends, so overlapping pieces coincide exactly; exact
// coincident copies are left in place for the engines to fold (overlay's
// subdivide fold, BeamTrapezoids' runs of equal x). One case is not yet
// covered: a weld can move a sub-grid spike's vertex onto a neighbouring
// edge and leave the two overlapping.
package arrange

import (
	"cmp"
	"slices"

	"polyclip/internal/geom"
	"polyclip/internal/isect"
)

// ResolvePair resolves two operands jointly: edges of either operand are
// split at their intersections with every other edge — their own operand's
// or the other's — and all vertices weld onto one shared grid, rings keeping
// their directions. A downstream sweep of the union of both edge sets meets
// crossings only at shared exact vertices. Operand pairs that only touch at
// shared vertices (or not at all) are returned unchanged, without copying
// or welding. A single operand is resolved as the pair (p, nil).
func ResolvePair(a, b geom.Polygon) (geom.Polygon, geom.Polygon) {
	a, b, _ = resolve(a, b)
	return a, b
}

// ResolvePairEstimate is ResolvePair returning, in addition, the paper's k:
// the number of edge pairs that meet, touching at an endpoint or crossing,
// free because the pre-scan computes every candidate's exact intersection
// once. internal/core derives its slab count from it, the paper's
// output-sensitive processor allocation. Consecutive ring edges touch, so
// the count is about the edge count even for disjoint operands.
func ResolvePairEstimate(a, b geom.Polygon) (geom.Polygon, geom.Polygon, int) {
	return resolve(a, b)
}

// ResolvePairWinding is ResolvePair, kept for callers that name the
// winding-rule resolution.
func ResolvePairWinding(a, b geom.Polygon) (geom.Polygon, geom.Polygon) { return ResolvePair(a, b) }

// resolve is the shared implementation. The int counts the edge pairs that
// meet (see ResolvePairEstimate). When nothing needs splitting the
// originals come back and no allocation is retained.
func resolve(a, b geom.Polygon) (geom.Polygon, geom.Polygon, int) {
	// Flatten every ring of both operands into one edge soup, a's edges
	// first, in the order the rebuild below walks them.
	segs := appendEdges(make([]geom.Segment, 0, a.NumVertices()+b.NumVertices()), a)
	segs = appendEdges(segs, b)
	if len(segs) < 2 {
		return a, b, 0
	}

	// Fast-path pre-scan fused with cut collection: stream the candidate
	// pairs (self and cross-operand alike; the candidate source handles
	// horizontal edges, which the scanbeam finder must not see) and
	// evaluate each candidate's intersection exactly once. Every
	// intersection point strictly inside an edge cuts it there.
	// SegIntersection snaps near-endpoint crossings onto the endpoint
	// exactly, so a point distinct from both endpoints is a genuine interior
	// split, and an overlap's two ends cut whichever edge they lie inside.
	//
	// The cut list is allocated on the first genuine split, with room for
	// one cut per edge: operands that only touch at shared vertices — the
	// common clean GIS-style case — return unchanged without it. Each pair
	// is visited once, so each cut is collected once.
	var cuts []cut
	addCut := func(e int32, s geom.Segment, p geom.Point) {
		if cuts == nil {
			cuts = make([]cut, 0, len(segs))
		}
		cuts = append(cuts, cut{e, p.Sub(s.A).Dot(s.B.Sub(s.A)), p})
	}
	crossings := 0
	isect.VisitCandidatePairs(segs, func(i, j int32) bool {
		si, sj := segs[i], segs[j]
		kind, p0, p1 := geom.SegIntersection(si, sj)
		if kind == geom.Disjoint {
			return true
		}
		crossings++
		pts := [2]geom.Point{p0, p1}
		npts := 1
		if kind == geom.Overlapping {
			npts = 2
		}
		for _, pt := range pts[:npts] {
			if pt != si.A && pt != si.B {
				addCut(i, si, pt)
			}
			if pt != sj.A && pt != sj.B {
				addCut(j, sj, pt)
			}
		}
		return true
	})
	if len(cuts) == 0 {
		return a, b, crossings
	}
	// Each edge's cuts in order along it, ties broken by point and bits, so
	// the rebuilt rings depend on the set of cuts, not on the visit order.
	slices.SortFunc(cuts, func(x, y cut) int {
		if x.e != y.e {
			return cmp.Compare(x.e, y.e)
		}
		return cmp.Or(cmp.Compare(x.pos, y.pos), x.p.CompareBits(y.p))
	})

	// The weld: geom.SnapPoint onto the geom.GridStep grid of the edges'
	// extent. Quantization is a pure function of the coordinate, so the
	// same arrangement vertex reached through different edges always lands
	// on the identical representative. A zero or non-finite extent welds
	// nothing.
	box := geom.EmptyBBox()
	for _, s := range segs {
		box.Extend(s.A)
		box.Extend(s.B)
	}
	eps := geom.GridStep(box)

	// Rebuild every ring with its cuts inserted in order along each edge,
	// everything welded, consecutive duplicates dropped. The iteration
	// mirrors appendEdges so edge indices line up. Every edge pushes its
	// start and its cuts, so one buffer holds every ring; each ring is a
	// full slice expression of it, and a dropped ring gives its points back.
	buf := make([]geom.Point, 0, len(segs)+len(cuts))
	var out [2]geom.Polygon
	ei, ci := int32(0), 0
	for oi, p := range [2]geom.Polygon{a, b} {
		var np geom.Polygon
		for _, r := range p {
			if len(r) < 3 {
				continue
			}
			start := len(buf)
			push := func(pt geom.Point) {
				if eps != 0 {
					pt = geom.SnapPoint(pt, eps)
				}
				if len(buf) == start || buf[len(buf)-1] != pt {
					buf = append(buf, pt)
				}
			}
			n := len(r)
			for i := 0; i < n; i++ {
				if r[i] == r[(i+1)%n] {
					continue
				}
				push(segs[ei].A)
				for ; ci < len(cuts) && cuts[ci].e == ei; ci++ {
					push(cuts[ci].p)
				}
				ei++
			}
			end := len(buf)
			for end-start > 1 && buf[end-1] == buf[start] {
				end--
			}
			// Welding can flatten a ring whose true extent is below the grid
			// step onto a single line (an extreme-aspect sliver next to a much
			// larger operand). Such a ring covers no area under any fill rule,
			// but its coincident edges poison the sweep's parity walk, so it
			// is dropped rather than passed on.
			if nr := geom.Ring(buf[start:end:end]); len(nr) >= 3 && !ringCollinear(nr) {
				np = append(np, nr)
				buf = buf[:end]
			} else {
				buf = buf[:start]
			}
		}
		out[oi] = np
	}
	return out[0], out[1], crossings
}

// cut is one split point p strictly inside edge e, at position pos along
// it: the dot product of p - A with the edge's direction B - A.
type cut struct {
	e   int32
	pos float64
	p   geom.Point
}

// appendEdges appends the edges of p's rings to segs: every ring of at
// least three vertices, closed, less its zero-length edges.
func appendEdges(segs []geom.Segment, p geom.Polygon) []geom.Segment {
	for _, r := range p {
		if len(r) < 3 {
			continue
		}
		n := len(r)
		for i := 0; i < n; i++ {
			if j := (i + 1) % n; r[i] != r[j] {
				segs = append(segs, geom.Segment{A: r[i], B: r[j]})
			}
		}
	}
	return segs
}

// ringCollinear reports whether every vertex of r lies on one line (the
// first edge's supporting line; consecutive duplicates are already removed,
// so r[0] != r[1]).
func ringCollinear(r geom.Ring) bool {
	for i := 2; i < len(r); i++ {
		if geom.Orient(r[0], r[1], r[i]) != geom.Collinear {
			return false
		}
	}
	return true
}

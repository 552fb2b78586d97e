// Package arrange pre-resolves operand arrangements for the scanbeam
// engines. A Vatti-style sweep assumes that between two consecutive event
// scanlines no two active edges cross; raw inputs violate that in two ways
// the event schedule alone cannot repair. Self-intersecting rings (bowties,
// polygrams) carry boundary whose even-odd multiplicity differs from the
// ring walk, and near-collinear crossings computed in floating point land in
// the wrong scanbeam — the shallower the angle, the further the computed
// intersection drifts along the edges, so scheduling the intersection's y is
// not enough to keep the beam orders consistent.
//
// ResolvePair and its rule-aware forms remove both hazards at the source,
// the standard snap-rounding route (cf. CGAL's arrangement preprocessing): every edge is
// split at every intersection point found by the internal/isect finders, all
// vertices are welded onto one power-of-two grid at geom.RelEps of the data
// extent, and operands that genuinely self-intersect have their simple
// even-odd boundary re-extracted, each boundary edge labelled by the
// classification sweep overlay runs (scanbeam.Classify).
// After resolution, edges meet only at shared exact vertices, so a sweep
// whose events are the endpoint ys sees no crossing strictly inside any
// beam.
package arrange

import (
	"cmp"
	"context"
	"slices"

	"polyclip/internal/engine"
	"polyclip/internal/geom"
	"polyclip/internal/isect"
	"polyclip/internal/ringstitch"
	"polyclip/internal/scanbeam"
)

// ResolvePair resolves two operands jointly: edges of either operand are
// split at their intersections with every other edge — their own operand's
// or the other's — all vertices weld onto one shared grid, and operands that
// genuinely self-intersect (edges crossing in their interiors or overlapping
// collinearly) have their simple even-odd boundary re-extracted. A
// downstream sweep of the union of both edge sets meets crossings only at
// shared exact vertices. Operand pairs that only touch at shared vertices (or
// not at all) are returned unchanged, without copying. A single operand is
// resolved as the pair (p, nil).
func ResolvePair(a, b geom.Polygon) (geom.Polygon, geom.Polygon) {
	a, b, _ = resolve(a, b, false)
	return a, b
}

// ResolvePairEstimate is ResolvePair returning, in addition, the paper's k:
// the number of edge pairs that meet, touching at an endpoint or crossing,
// free because the pre-scan computes every candidate's exact intersection
// once. internal/core derives its slab count from it, the paper's
// output-sensitive processor allocation. Consecutive ring edges touch, so
// the count is about the edge count even for disjoint operands.
func ResolvePairEstimate(a, b geom.Polygon) (geom.Polygon, geom.Polygon, int) {
	return resolve(a, b, false)
}

// ResolvePairWinding is ResolvePair for winding-rule (NonZero/Positive/
// Negative) sweeps: the same joint split-and-weld, but self-intersecting
// operands keep their rebuilt rings with their original directions instead
// of having the simple even-odd boundary re-extracted. Re-extraction
// collapses coincident edges by parity, destroying the winding multiplicity
// a signed-count walk needs; a downstream sweep still meets crossings only
// at shared exact vertices.
func ResolvePairWinding(a, b geom.Polygon) (geom.Polygon, geom.Polygon) {
	a, b, _ = resolve(a, b, true)
	return a, b
}

// ResolvePairRule resolves the pair in the resolution family the fill rule
// needs — the one place that choice is made: EvenOdd re-extracts the simple
// boundary of self-crossing operands (ResolvePair), the winding rules keep
// ring directions (ResolvePairWinding). Every sweep engine runs it once per
// clip, unless its caller promises an already-resolved pair
// (engine.Options.PreResolved).
func ResolvePairRule(a, b geom.Polygon, rule engine.FillRule) (geom.Polygon, geom.Polygon) {
	a, b, _ = resolve(a, b, rule != engine.EvenOdd)
	return a, b
}

// resolve is the shared implementation. winding keeps the rebuilt rings of
// self-intersecting operands directed as given instead of re-extracting
// their even-odd boundary. The int counts the edge pairs that meet (see
// ResolvePairEstimate). When nothing needs splitting or re-extraction the
// originals come back and no allocation is retained.
func resolve(a, b geom.Polygon, winding bool) (geom.Polygon, geom.Polygon, int) {
	// Flatten every ring of both operands into one edge soup, a's edges
	// first: an edge belongs to b when its index reaches split, so
	// self-intersection is detected per operand.
	segs := appendEdges(make([]geom.Segment, 0, a.NumVertices()+b.NumVertices()), a)
	split := int32(len(segs))
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
	// split. An operand needs even-odd re-extraction when two of its own
	// edges meet anywhere beyond a shared endpoint.
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
	var selfX [2]bool
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
		interior := kind == geom.Overlapping
		for _, pt := range pts[:npts] {
			if pt != si.A && pt != si.B {
				addCut(i, si, pt)
				interior = true
			}
			if pt != sj.A && pt != sj.B {
				addCut(j, sj, pt)
				interior = true
			}
		}
		if interior && (i < split) == (j < split) {
			if i < split {
				selfX[0] = true
			} else {
				selfX[1] = true
			}
		}
		return true
	})
	if len(cuts) == 0 && !selfX[0] && !selfX[1] {
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

	// Re-extract the simple even-odd boundary of operands whose own edges
	// cross or overlap; operands that were only split by the other operand
	// keep their rebuilt rings (same rings, more vertices). Winding-rule
	// callers skip re-extraction entirely: the signed-count walk needs the
	// original ring directions and multiplicities that extraction collapses.
	if !winding {
		for oi := range out {
			if selfX[oi] {
				out[oi] = extractEvenOdd(out[oi])
			}
		}
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

// extractEvenOdd recovers the simple boundary of the even-odd region covered
// by the edges of p's rings, which have already been split at all
// intersections and welded: edges meet only at shared exact vertices.
// Coincident edges with even multiplicity separate regions of equal parity
// and vanish; odd groups are boundary once. Overlay's classification sweep
// (scanbeam.Classify) counts the boundary left of each boundary edge (above
// it, for a horizontal), and each edge is directed with the odd-parity side,
// the region interior, on its left. The directed soup is stitched into
// counter-clockwise outer rings and clockwise holes.
func extractEvenOdd(p geom.Polygon) geom.Polygon {
	// Each edge, turned to run from its lesser endpoint, with its position
	// in ring order: sorted, coincident edges form runs, and the odd runs
	// are the boundary, already in (Lo, Hi) order — the classification and
	// stitch order. Coincident edges can differ in the sign of a zero
	// coordinate; a run is written as its last occurrence.
	type occ struct {
		s geom.Segment
		i int32
	}
	occs := make([]occ, 0, p.NumVertices())
	for _, r := range p {
		for k, a := range r {
			s := geom.Segment{A: a, B: r[(k+1)%len(r)]}
			if s.A == s.B {
				continue
			}
			if s.B.Less(s.A) {
				s.A, s.B = s.B, s.A
			}
			occs = append(occs, occ{s, int32(len(occs))})
		}
	}
	slices.SortFunc(occs, func(a, b occ) int {
		if c := a.s.A.Compare(b.s.A); c != 0 {
			return c
		}
		if c := a.s.B.Compare(b.s.B); c != 0 {
			return c
		}
		return cmp.Compare(a.i, b.i)
	})
	bd := make([]scanbeam.Seg, 0, len(occs))
	for lo := 0; lo < len(occs); {
		hi := lo + 1
		for hi < len(occs) && occs[hi].s == occs[lo].s {
			hi++
		}
		if (hi-lo)%2 == 1 {
			s := occs[hi-1].s
			bd = append(bd, scanbeam.Seg{Lo: s.A, Hi: s.B, Wind: [2]int16{1, 0}})
		}
		lo = hi
	}

	// Each boundary edge winds +1, so Left[0] counts the boundary on an
	// edge's left; int16 wrap-around keeps its parity.
	scanbeam.Classify(context.TODO(), bd)
	dir := make([]ringstitch.Edge, len(bd))
	for i, s := range bd {
		if s.Left[0]&1 == 1 {
			dir[i] = ringstitch.Edge{From: s.Lo, To: s.Hi}
		} else {
			dir[i] = ringstitch.Edge{From: s.Hi, To: s.Lo}
		}
	}
	return ringstitch.Stitch(dir)
}

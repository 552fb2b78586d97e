// Package vatti implements the scanbeam plane-sweep clipping algorithm the
// paper parallelizes (Vatti 1992, the algorithm inside the GPC library the
// authors used for sequential clipping). The plane is swept bottom-to-top
// through scanbeams — the horizontal strips between consecutive event
// y-coordinates (edge endpoints and edge intersections, §III-B). Inside a
// scanbeam no two active edges cross, so the active edge list ordered by x
// alternates left/right bounds (Lemma 1); running even-odd parity over the
// list classifies each strip of the beam as inside or outside each input
// polygon (Lemmas 2–3), and the strips selected by the clipping operation
// are emitted as trapezoids. Adjacent beams' trapezoids are merged (the
// paper's Step 4 / Fig. 6 merge): the shared horizontal caps cancel, each
// edge's per-beam sides join into one side, dropping the virtual vertices k'
// that the beam lines cut into it, and the remaining boundary stitches into
// rings of n + k vertices.
//
// This is the sequential reference engine; package core parallelizes the
// per-beam work (Algorithm 1) and the slab decomposition (Algorithm 2).
package vatti

import (
	"cmp"
	"slices"

	"polyclip/internal/arrange"
	"polyclip/internal/engine"
	"polyclip/internal/geom"
	"polyclip/internal/ringstitch"
	"polyclip/internal/scanbeam"
)

// Clip computes `subject op clip` under opt.Rule with the sequential
// scanbeam sweep. opt.PreResolved promises the pair already went through the
// joint arrangement resolution (arrange.ResolvePair), and the sweep then
// runs directly on the given geometry. Every other field is ignored: the
// sweep is sequential and snaps its output corners onto the grid of the
// output's own extent.
func Clip(subject, clip geom.Polygon, op engine.Op, opt engine.Options) geom.Polygon {
	return Assemble(sweep(subject, clip, op, opt))
}

// Trapezoids computes the trapezoid decomposition of `subject op clip`
// under the rule — the raw per-scanbeam output of the sweep, before merging
// (GPC's tristrip analogue). The sweep walks signed winding counts, so
// EvenOdd, NonZero, Positive and Negative all run through the same sweep.
//
// Horizontal input edges are dropped outright rather than perturbed: the
// winding of any scanline strictly inside a beam is unaffected by edges
// lying on beam boundaries, and the boundary pieces they contribute are
// regenerated exactly as trapezoid caps. This sidesteps the paper's §III-C
// perturbation without changing the result.
func Trapezoids(subject, clip geom.Polygon, op engine.Op, rule engine.FillRule) []engine.Trapezoid {
	pieces := sweep(subject, clip, op, engine.Options{Rule: rule})
	if len(pieces) == 0 {
		return nil
	}
	tzs := make([]engine.Trapezoid, len(pieces))
	for i, p := range pieces {
		tzs[i] = p.Trapezoid
	}
	return tzs
}

// sweep runs the sequential scanbeam sweep under opt.Rule and returns its
// pieces beam by beam from the bottom, the order Assemble joins sides in.
// The joint resolution pass is skipped when opt.PreResolved promises the
// pair already went through it.
func sweep(subject, clip geom.Polygon, op engine.Op, opt engine.Options) []scanbeam.Piece {
	// Pre-resolve the arrangement: every crossing or overlap between any
	// two edges — within an operand or across them — becomes a shared
	// welded vertex. Scheduling intersection ys on unsplit edges is not
	// enough: a near-collinear crossing's computed y can land in the wrong
	// beam, leaving two active edges crossed inside a beam and the emitted
	// trapezoid corners inverted. Rings keep their directions under every
	// rule: the signed-count walk reads EvenOdd as the winding's parity.
	if !opt.PreResolved {
		subject, clip = arrange.ResolvePair(subject, clip)
	}

	edges := scanbeam.CollectEdges(subject, clip)
	if len(edges) == 0 {
		return nil
	}

	// The sweep takes the edges by low y, ties by id, sorted once: after
	// resolution no two edges cross strictly inside any beam, so the
	// endpoint ys are the only events, and each beam's top is the next
	// start or the lowest end among the active edges. The per-beam winding
	// walk comes from the shared scanbeam substrate too; the sweep is
	// sequential, so one stack scratch serves every beam with zero
	// steady-state allocation.
	starts := make([]int32, len(edges))
	for i := range starts {
		starts[i] = int32(i)
	}
	slices.SortFunc(starts, func(i, j int32) int {
		a, b := edges[i].Seg.A.Y, edges[j].Seg.A.Y
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return cmp.Compare(i, j)
	})
	span := func(id int32) (float64, float64) {
		return edges[id].Seg.A.Y, edges[id].Seg.B.Y
	}
	edgeAt := func(id int32) (geom.Segment, uint8, int8) {
		e := &edges[id]
		return e.Seg, e.Owner, e.Delta
	}
	var scratch scanbeam.Scratch
	var pieces []scanbeam.Piece
	scanbeam.SweepStarts(starts, span, func(yb, yt float64, active []int32) bool {
		if len(active) >= 2 {
			scanbeam.BeamTrapezoids(&scratch, active, yb, yt, op, opt.Rule, edgeAt, &pieces)
		}
		return true
	})
	return pieces
}

// Assemble merges the sweep's pieces into polygons — the merge phase of the
// paper's Algorithm 1 (Fig. 6), in one flat pass. The shared horizontal caps
// between vertically adjacent pieces cancel (after splitting caps at each
// other's endpoints); each edge's consecutive per-beam sides join into one
// side, so the output carries none of the virtual vertices k' that the beam
// lines cut into the sides; the remaining directed boundary stitches into
// rings. CancelOpposites and Stitch therefore sort O(n + k) edges, not
// O(n + k + k').
//
// Pieces come beam by beam from the bottom, as BeamTrapezoids emits them: a
// side joins the open side of its edge only where it starts at that side's
// end, so an out-of-order or mismatched piece (a clamped corner, an unsplit
// crossing) simply starts a side of its own.
func Assemble(pieces []scanbeam.Piece) geom.Polygon {
	if len(pieces) == 0 {
		return nil
	}
	// Corners of adjacent pieces that represent the same arrangement vertex
	// can differ by an ulp when computed through different edges (e.g. the
	// two edges of a crossing). Snap every corner onto a shared grid so the
	// edge graph balances exactly.
	eps, maxID := cornerGrid(pieces)
	// Caps: +1 for bottom caps (interior above), -1 for top caps (interior
	// below), in ascending y, each line's caps in piece order.
	caps := make([]ringstitch.Cap, 0, 2*len(pieces))
	for _, p := range pieces {
		tz := snapCorners(p, eps)
		if tz.R1.X > tz.L1.X {
			caps = append(caps, ringstitch.Cap{Y: tz.L1.Y, X0: tz.L1.X, X1: tz.R1.X, Dir: +1})
		}
		if tz.R2.X > tz.L2.X {
			caps = append(caps, ringstitch.Cap{Y: tz.L2.Y, X0: tz.L2.X, X1: tz.R2.X, Dir: -1})
		}
	}
	slices.SortStableFunc(caps, func(a, b ringstitch.Cap) int { return cmp.Compare(a.Y, b.Y) })
	// The net caps come first: a side must keep every joint where one ends.
	edges := ringstitch.NetCaps(make([]ringstitch.Edge, 0, len(caps)+2*len(pieces)), caps)
	edges = joinSides(edges, pieces, eps, maxID)
	return ringstitch.Stitch(ringstitch.CancelOpposites(edges))
}

// joinSides appends the sides of the pieces to dst, whose first len(dst)
// edges are the net caps, with the region interior on the left: right sides
// run up, left sides down. A piece's side extends the open side of the same
// edge id and side when it starts where that side ends, unless a net cap
// ends at the joint — the joint is then a vertex of the output.
func joinSides(dst []ringstitch.Edge, pieces []scanbeam.Piece, eps float64, maxID int32) []ringstitch.Edge {
	net := dst[:len(dst):len(dst)]
	// open[2*id] and open[2*id+1] hold 1 + the index in dst of the edge's
	// open left and right side; 0 while it has none.
	open := make([]int32, 2*int(maxID)+2)
	for _, p := range pieces {
		tz := snapCorners(p, eps)
		if tz.R1 != tz.R2 {
			if k := open[2*p.Right+1] - 1; k >= 0 && dst[k].To == tz.R1 && !capEndsAt(net, tz.R1) {
				dst[k].To = tz.R2
			} else {
				dst = append(dst, ringstitch.Edge{From: tz.R1, To: tz.R2})
				open[2*p.Right+1] = int32(len(dst))
			}
		}
		if tz.L1 != tz.L2 {
			if k := open[2*p.Left] - 1; k >= 0 && dst[k].From == tz.L1 && !capEndsAt(net, tz.L1) {
				dst[k].From = tz.L2
			} else {
				dst = append(dst, ringstitch.Edge{From: tz.L2, To: tz.L1})
				open[2*p.Left] = int32(len(dst))
			}
		}
	}
	return dst
}

// capEndsAt reports whether a net cap ends at p. net is NetCaps output:
// lines by ascending y, each line's pieces by ascending x, so the first
// piece whose right end is not left of p is the only one that can end there.
func capEndsAt(net []ringstitch.Edge, p geom.Point) bool {
	i, _ := slices.BinarySearchFunc(net, p, func(e ringstitch.Edge, p geom.Point) int {
		if c := cmp.Compare(e.From.Y, p.Y); c != 0 {
			return c
		}
		return cmp.Compare(max(e.From.X, e.To.X), p.X)
	})
	return i < len(net) && net[i].From.Y == p.Y && (net[i].From.X == p.X || net[i].To.X == p.X)
}

// cornerGrid returns the snapping grid of the pieces — the geom.GridStep of
// their corners' extent — and their largest edge id.
func cornerGrid(pieces []scanbeam.Piece) (eps float64, maxID int32) {
	box := geom.EmptyBBox()
	for _, p := range pieces {
		box.Extend(p.L1)
		box.Extend(p.R1)
		box.Extend(p.L2)
		box.Extend(p.R2)
		maxID = max(maxID, p.Left, p.Right)
	}
	return geom.GridStep(box), maxID
}

// snapCorners welds the piece's corners that represent the same arrangement
// vertex as another piece's by quantizing every coordinate onto the eps grid
// (geom.SnapPoint); eps 0 leaves them as they are. Quantization is a pure
// function of the coordinate value, so — unlike greedy nearest-neighbour
// clustering, whose groups depend on scan order and can weld two corners
// while leaving a third, equally close one apart — corners that must cancel
// or join downstream always land on the identical representative.
func snapCorners(p scanbeam.Piece, eps float64) engine.Trapezoid {
	if eps == 0 {
		return p.Trapezoid
	}
	return engine.Trapezoid{
		L1: geom.SnapPoint(p.L1, eps), R1: geom.SnapPoint(p.R1, eps),
		L2: geom.SnapPoint(p.L2, eps), R2: geom.SnapPoint(p.R2, eps),
	}
}

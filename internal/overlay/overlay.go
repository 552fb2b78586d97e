// Package overlay implements general polygon clipping — intersection, union,
// difference and symmetric difference of arbitrary (concave,
// multi-contour, self-intersecting) polygons under any of the four fill
// rules. Clip is its one entry point; it takes engine.Options, and the
// registry's "overlay" engine calls it.
//
// The engine is the practical realization of the paper's Algorithm 1:
//
//  1. Find the intersection points of every pair of meeting edges (the
//     paper's Step 3.2): the uniform grid streams each pair of edges whose
//     boxes overlap once (isect.VisitCandidateChunks), and each candidate
//     gets one exact SegIntersection. internal/isect also holds the paper's
//     scanbeam-inversion method (Lemma 4) and a plane sweep, held to the
//     same brute-force oracle.
//  2. Subdivide every edge at its intersection points so that no two edges
//     cross except at shared endpoints (the k and k' vertices), and fold
//     geometric duplicates into one sub-edge with a winding count per
//     polygon, by one sort over flat arrays.
//  3. Sweep the scanbeams bottom to top once and classify every sub-edge,
//     in the beam where it starts, with the prefix sums of Lemmas 1–3:
//     which polygons is the region immediately left of the edge inside of?
//     The sweep is scanbeam.Classify, the one side-labelling kernel.
//  4. Select the edges where the clipping operation changes value across
//     the edge (Lemma 2's contributing edges), direct them so the result
//     interior lies on their left, and stitch them into output rings
//     (Step 3.4/Step 4's merge).
//
// Pair finding with its split-point computation, over chunks of grid cells
// with one split bucket per chunk, and edge selection run in parallel on
// engine.Options.Threads workers; the fold, the classifying sweep and
// stitching are sequential.
package overlay

import (
	"context"

	"polyclip/internal/arrange"
	"polyclip/internal/engine"
	"polyclip/internal/geom"
	"polyclip/internal/guard"
	"polyclip/internal/par"
	"polyclip/internal/scanbeam"
)

// Clip computes `subject op clip` under opt.Rule: outer rings
// counter-clockwise, holes clockwise, nil when the result is empty. Pair
// finding, splitting and edge selection run on opt.Threads workers (<= 0
// means GOMAXPROCS); every vertex is snapped onto the opt.SnapEps grid (<= 0
// derives it from the input magnitude, geom.AutoSnapEps); opt.PreResolved
// skips the joint arrangement resolution. Every pair takes that one path, an
// empty operand or disjoint boxes included: a lone operand's even-odd region
// is read from the same resolved arrangement as any other. The subdivision
// and classification stages poll ctx, and a cancelled run returns ctx.Err()
// instead of a partial result.
func Clip(ctx context.Context, subject, clip geom.Polygon, op engine.Op, opt engine.Options) (geom.Polygon, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	guard.Hit("overlay.clip")
	p := opt.Threads
	if p <= 0 {
		p = par.DefaultParallelism()
	}

	subject = sanitize(subject)
	clip = sanitize(clip)

	eps := opt.SnapEps
	if eps <= 0 {
		eps = geom.AutoSnapEps(subject, clip)
	}

	// Pre-resolve the pair jointly (no-op for operands that only touch at
	// shared vertices, which is the common case). Interior crossings — an
	// operand's own or between the operands — must not reach the
	// subdivision stage as raw geometry. Self-crossings: when both operands
	// share geometry (A∩A, shared borders), a self-crossing is found once
	// per operand copy with the segment arguments in different orders, and
	// SegIntersection is not bit-symmetric under argument swap — the twin
	// split points can land in adjacent snap cells, breaking the winding
	// symmetry between the operands and with it the even-odd parity (a
	// polygram's A∩A loses the area around its crossings). Cross-operand
	// crossings: subdivide snaps each split point independently, and a
	// cluster of crossings a few cells apart (a near-flat sliver edge
	// grazing the other operand's vertex) snaps to distinct grid points
	// whose sub-segments still cross — a non-planar arrangement with
	// unbalanced node degrees that stitching must drop. ResolvePair splits
	// everything at every intersection and welds both operands onto one
	// shared grid, so subdivide meets crossings only at shared exact
	// vertices, which it never splits. Rings keep their directions under
	// every rule: selectEdges reads EvenOdd as the parity of the winding
	// each sub-edge carries. Beyond welding self-crossings, the joint
	// resolve matters when the snap grid is coarse relative to one operand
	// (mixed-extent pairs): sub-eps slivers collapse here exactly as they do
	// in every other engine's pair arrangement.
	if !opt.PreResolved {
		subject, clip = arrange.ResolvePair(subject, clip)
	}

	// Snap the inputs onto the eps grid before pair finding, so that
	// nearly-coincident geometry (e.g. seam caps produced by slab
	// decomposition in different workers) becomes exactly coincident and its
	// overlaps are detected and cancelled, instead of being merged silently
	// after the intersection pass.
	subject = geom.SnapPolygon(subject, eps)
	clip = geom.SnapPolygon(clip, eps)

	edges, owners := gatherEdges(subject, clip)
	segs := subdivide(ctx, edges, owners, eps, p)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	scanbeam.Classify(ctx, segs)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dirs := selectEdges(segs, op, opt.Rule, p)
	return stitch(dirs), nil
}

// canceled is the cheap in-loop cancellation poll.
func canceled(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// sanitize removes degenerate rings.
func sanitize(poly geom.Polygon) geom.Polygon {
	var out geom.Polygon
	for _, r := range poly {
		if len(r) >= 3 {
			out = append(out, r)
		}
	}
	return out
}

// gatherEdges flattens both polygons into one edge list with an owner tag
// per edge (0 = subject, 1 = clip).
func gatherEdges(subject, clip geom.Polygon) ([]geom.Segment, []uint8) {
	var edges []geom.Segment
	for _, r := range subject {
		edges = r.Edges(edges)
	}
	nSub := len(edges)
	for _, r := range clip {
		edges = r.Edges(edges)
	}
	owners := make([]uint8, len(edges))
	for i := nSub; i < len(edges); i++ {
		owners[i] = 1
	}
	return edges, owners
}

// Package overlay implements general polygon clipping — intersection, union,
// difference and symmetric difference of arbitrary (concave,
// multi-contour, self-intersecting) polygons under the even-odd fill rule.
//
// The engine is the practical realization of the paper's Algorithm 1:
//
//  1. Find all pairs of intersecting edges (the paper's Step 3.2 / Lemma 4;
//     finder selectable: uniform grid or the scanbeam-inversion method).
//  2. Subdivide every edge at its intersection points so that no two edges
//     cross except at shared endpoints (the k and k' vertices).
//  3. Decompose the plane into scanbeams and classify every sub-edge with
//     the parity prefix sums of Lemmas 1–3: which polygons is the region
//     immediately left of the edge inside of?
//  4. Select the edges where the clipping operation changes value across
//     the edge (Lemma 2's contributing edges), direct them so the result
//     interior lies on their left, and stitch them into output rings
//     (Step 3.4/Step 4's merge).
//
// Every stage but stitching runs in parallel over its natural units (pairs,
// edges, scanbeams) with configurable parallelism.
package overlay

import (
	"context"

	"polyclip/internal/arrange"
	"polyclip/internal/engine"
	"polyclip/internal/geom"
	"polyclip/internal/guard"
	"polyclip/internal/isect"
	"polyclip/internal/par"
)

// Op aliases the canonical operation type (see internal/engine).
type Op = engine.Op

// Supported clipping operations.
const (
	Intersection = engine.Intersection // subject ∩ clip
	Union        = engine.Union        // subject ∪ clip
	Difference   = engine.Difference   // subject − clip
	Xor          = engine.Xor          // symmetric difference
)

// Finder selects the intersection-finding strategy.
type Finder uint8

// Available finders.
const (
	FinderGrid     Finder = iota // uniform-grid candidate filter (default)
	FinderScanbeam               // the paper's scanbeam + inversion counting
	FinderSweep                  // Bentley–Ottmann plane sweep (the paper's [2])
	FinderBrute                  // O(n²); tests only
)

// FillRule aliases the canonical fill-rule type (see internal/engine).
type FillRule = engine.FillRule

// Supported fill rules.
const (
	// EvenOdd (default): a point is inside when its crossing parity is odd
	// — the rule of GPC and of the paper's self-intersection handling.
	EvenOdd = engine.EvenOdd
	// NonZero: a point is inside when its winding number is nonzero — the
	// rule of most vector graphics models.
	NonZero = engine.NonZero
)

// Options configures a clipping run.
type Options struct {
	// Parallelism is the number of concurrent workers; <= 0 means
	// GOMAXPROCS.
	Parallelism int
	// Finder selects the pair-finding strategy.
	Finder Finder
	// SnapEps is the vertex-identification tolerance; <= 0 means geom.Eps
	// scaled to the input magnitude.
	SnapEps float64
	// Rule is the fill rule for interpreting both operands and the result.
	Rule FillRule
}

// Clip computes `subject op clip` and returns the result polygon. The
// result's outer rings are counter-clockwise and its holes clockwise; an
// empty polygon is returned when the result is empty.
func Clip(subject, clip geom.Polygon, op Op, opt Options) geom.Polygon {
	out, _ := ClipCtx(context.Background(), subject, clip, op, opt)
	return out
}

// ClipCtx is Clip with cooperative cancellation: the subdivision and
// classification stages poll ctx and stop early, and a non-nil error
// (ctx.Err()) is returned instead of a partial result. With an
// already-satisfied context it behaves exactly like Clip.
func ClipCtx(ctx context.Context, subject, clip geom.Polygon, op Op, opt Options) (geom.Polygon, error) {
	return clipCtx(ctx, subject, clip, op, opt, false)
}

// clipCtx is ClipCtx with the joint arrangement resolution skipped when
// resolved promises the pair already went through it
// (engine.Options.PreResolved).
func clipCtx(ctx context.Context, subject, clip geom.Polygon, op Op, opt Options, resolved bool) (geom.Polygon, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	guard.Hit("overlay.clip")
	p := opt.Parallelism
	if p <= 0 {
		p = par.DefaultParallelism()
	}

	subject = sanitize(subject)
	clip = sanitize(clip)

	eps := opt.SnapEps
	if eps <= 0 {
		eps = geom.AutoSnapEps(subject, clip)
	}

	// Fast paths: empty operands. Operands passed through are resolved so
	// the output convention (simple rings, CCW outers / CW holes) holds
	// even for self-intersecting inputs.
	if subject.NumVertices() == 0 {
		switch op {
		case Union, Xor:
			return finish(ctx, resolveSelf(ctx, clip, eps, opt.Rule, p))
		default:
			return nil, ctx.Err()
		}
	}
	if clip.NumVertices() == 0 {
		switch op {
		case Intersection:
			return nil, ctx.Err()
		default:
			return finish(ctx, resolveSelf(ctx, subject, eps, opt.Rule, p))
		}
	}
	// Disjoint bounding boxes: no geometry interacts.
	if !subject.BBox().Intersects(clip.BBox()) {
		switch op {
		case Intersection:
			return nil, ctx.Err()
		case Difference:
			return finish(ctx, resolveSelf(ctx, subject, eps, opt.Rule, p))
		default:
			out := resolveSelf(ctx, subject, eps, opt.Rule, p)
			return finish(ctx, append(out, resolveSelf(ctx, clip, eps, opt.Rule, p)...))
		}
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
	// vertices, which it never splits. The rule picks the resolution family
	// (arrange.ResolvePairRule): EvenOdd re-extracts the even-odd boundary
	// of self-crossing operands, while the winding rules keep ring
	// directions, because winding multiplicity (same-direction overlapping
	// rings, a pentagram's doubly-wound centre) is semantic. Beyond welding
	// self-crossings, the joint resolve matters when the snap grid is coarse
	// relative to one operand (mixed-extent pairs): sub-eps slivers collapse
	// here exactly as they do in every other engine's pair arrangement.
	if !resolved {
		subject, clip = arrange.ResolvePairRule(subject, clip, opt.Rule)
	}

	// Snap the inputs onto the eps grid before pair finding, so that
	// nearly-coincident geometry (e.g. seam caps produced by slab
	// decomposition in different workers) becomes exactly coincident and its
	// overlaps are detected and cancelled, instead of being merged silently
	// after the intersection pass.
	subject = geom.SnapPolygon(subject, eps)
	clip = geom.SnapPolygon(clip, eps)

	edges, owners := gatherEdges(subject, clip)

	finder := opt.Finder
	if finder == FinderScanbeam && (hasHorizontalEdge(subject) || hasHorizontalEdge(clip)) {
		// The scanbeam finder cannot see horizontal edges (they span no
		// beam); the grid finder handles them natively.
		finder = FinderGrid
	}
	var pairs []isect.Pair
	switch finder {
	case FinderScanbeam:
		pairs = isect.ScanbeamPairs(edges, p)
	case FinderSweep:
		pairs = isect.SweepPairs(edges)
	case FinderBrute:
		pairs = isect.BruteForcePairs(edges)
	default:
		pairs = isect.GridPairs(edges, p)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	segs := subdivide(ctx, edges, owners, pairs, eps, p)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	classify(ctx, segs, p)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dirs := selectEdges(segs, op, opt.Rule, p)
	return stitch(segs, dirs), nil
}

// finish discards a possibly-partial result when ctx was cancelled.
func finish(ctx context.Context, out geom.Polygon) (geom.Polygon, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
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

// resolveSelf runs a single polygon through the pipeline (as subject with
// an empty clip under Xor, whose value is simply "inside subject"),
// resolving self-intersections and normalizing ring orientations.
func resolveSelf(ctx context.Context, poly geom.Polygon, eps float64, rule FillRule, p int) geom.Polygon {
	if poly.NumVertices() == 0 {
		return nil
	}
	poly = geom.SnapPolygon(poly, eps)
	edges, owners := gatherEdges(poly, nil)
	pairs := isect.GridPairs(edges, p)
	segs := subdivide(ctx, edges, owners, pairs, eps, p)
	classify(ctx, segs, p)
	dirs := selectEdges(segs, Xor, rule, p)
	return stitch(segs, dirs)
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

// hasHorizontalEdge reports whether any ring has an edge parallel to the
// x-axis.
func hasHorizontalEdge(poly geom.Polygon) bool {
	for _, r := range poly {
		for i := range r {
			j := (i + 1) % len(r)
			if r[i].Y == r[j].Y && r[i] != r[j] {
				return true
			}
		}
	}
	return false
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

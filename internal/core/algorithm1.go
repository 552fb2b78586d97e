package core

import (
	"context"

	"polyclip/internal/arrange"
	"polyclip/internal/engine"
	"polyclip/internal/geom"
	"polyclip/internal/isect"
	"polyclip/internal/par"
	"polyclip/internal/scanbeam"
	"polyclip/internal/segtree"
	"polyclip/internal/vatti"
)

// Alg1Report carries the size quantities of the paper's output-sensitive
// analysis: n input vertices, m scanbeams, k edge intersections and k'
// virtual vertices (the total scanbeam population, i.e. the per-beam edge
// slots allocated by the segment tree). K, and Procs with it, is filled in
// only by AlgorithmOne: no clip needs the count, so the engine path
// (AlgorithmOneRuleCtx) does not pay for it.
type Alg1Report struct {
	N      int   // input vertices
	M      int   // scanbeams
	K      int   // intersection pairs of the raw input (the paper's k); AlgorithmOne only
	KPrime int   // scanbeam population (the paper's k')
	Output int   // output vertices, O(n + k): Step 4 drops the k' virtual ones
	Procs  int   // n + k + k': the paper's processor bound; AlgorithmOne only
	Trapez int   // trapezoids emitted in Step 3
	Work   int64 // total comparisons modelled (for the PRAM cost accounting)
}

// AlgorithmOne clips two polygons with the multicore realization of the
// paper's Algorithm 1: the whole pipeline runs in parallel over scanbeams
// with parallelism p, using the segment tree for Step 2. The pipeline
// resolves crossings before Step 1 with arrange's grid pre-scan, so no two
// active edges cross inside a beam; the scanbeam-inversion count of Step
// 3.2 (isect.CountCrossings) runs only to fill the report's K. Returns the
// result and the full output-sensitivity report.
func AlgorithmOne(a, b geom.Polygon, op engine.Op, p int) (geom.Polygon, Alg1Report) {
	out, rep := AlgorithmOneRuleCtx(context.Background(), a, b, op, engine.EvenOdd, p)
	// Step 3.2 (Lemma 4): the paper's k is a property of the raw input, so
	// count the inversion crossings of the unresolved edges.
	rawEdges := scanbeam.CollectEdges(a, b)
	rawSegs := make([]geom.Segment, len(rawEdges))
	for i, e := range rawEdges {
		rawSegs[i] = e.Seg
	}
	rep.K = int(isect.CountCrossings(rawSegs, p))
	rep.Procs = rep.N + rep.K + rep.KPrime
	return out, rep
}

// AlgorithmOneRuleCtx is AlgorithmOne's pipeline under an explicit fill
// rule, with cooperative cancellation: the shared scanbeam walk accumulates
// signed winding counts, so EvenOdd, NonZero, Positive and Negative all run
// through the same parallel beam pipeline, and the per-beam classification
// loop polls ctx and stops early. On a cancelled ctx the returned polygon
// is nil; callers observe the cancellation via ctx.Err(). The report leaves
// K and Procs zero.
func AlgorithmOneRuleCtx(ctx context.Context, a, b geom.Polygon, op engine.Op, rule engine.FillRule, p int) (geom.Polygon, Alg1Report) {
	if ctx == nil {
		ctx = context.Background()
	}
	if p <= 0 {
		p = par.DefaultParallelism()
	}
	var rep Alg1Report
	rep.N = a.NumVertices() + b.NumVertices()

	// Pre-resolve the arrangement (see internal/arrange): crossings become
	// shared welded vertices, so the event schedule below needs only the
	// endpoint ys and no two active edges cross strictly inside a beam.
	// EvenOdd additionally rewrites self-intersecting operands as simple
	// even-odd rings; the winding rules keep the split rings directed as
	// given so the signed-count walk sees the original multiplicities.
	a, b = arrange.ResolvePairRule(a, b, rule)
	edges := scanbeam.CollectEdges(a, b)
	if len(edges) == 0 {
		return nil, rep
	}

	// Step 1: event schedule (endpoint ys of the resolved edges), sorted.
	ys := make([]float64, 0, 2*len(edges))
	for _, e := range edges {
		ys = append(ys, e.Seg.A.Y, e.Seg.B.Y)
	}
	ys = segtree.Dedup(ys)
	if len(ys) < 2 {
		return nil, rep
	}
	rep.M = len(ys) - 1

	// Step 2: populate scanbeams through the parallel segment tree.
	tree := segtree.Build(ys, len(edges), func(i int32) segtree.Interval {
		lo, hi := edges[i].Seg.YSpan()
		return segtree.Interval{Lo: lo, Hi: hi}
	}, p)
	beams, kprime := tree.AllBeams(p)
	rep.KPrime = kprime

	// Step 3: per-beam classification and trapezoid emission, in parallel.
	// The ordering buffers come from the shared scanbeam pool: the beam loop
	// runs concurrently, so scratches are pooled rather than shared.
	edgeAt := func(id int32) (geom.Segment, uint8, int8) {
		e := &edges[id]
		return e.Seg, e.Owner, e.Delta
	}
	perBeam := make([][]scanbeam.Piece, len(beams))
	par.ForEachItem(len(beams), p, func(bi int) {
		if bi&63 == 0 && canceled(ctx) {
			return
		}
		ids := beams[bi]
		if len(ids) < 2 {
			return
		}
		scratch := scanbeam.Get()
		var out []scanbeam.Piece
		scanbeam.BeamTrapezoids(scratch, ids, ys[bi], ys[bi+1], op, rule, edgeAt, &out)
		scanbeam.Put(scratch)
		perBeam[bi] = out
	})

	var pieces []scanbeam.Piece
	for _, t := range perBeam {
		pieces = append(pieces, t...)
	}
	rep.Trapez = len(pieces)

	// Step 4: merge the per-beam partial polygons, beam by beam from the
	// bottom, so each edge's per-beam sides join into one.
	out := vatti.Assemble(pieces)
	for _, r := range out {
		rep.Output += len(r)
	}
	return out, rep
}

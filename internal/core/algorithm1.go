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
// slots allocated by the segment tree).
type Alg1Report struct {
	N      int   // input vertices
	M      int   // scanbeams
	K      int   // intersection pairs (the paper's k)
	KPrime int   // scanbeam population (the paper's k')
	Output int   // output vertices
	Procs  int   // n + k + k': the paper's processor bound
	Trapez int   // trapezoids emitted in Step 3
	Work   int64 // total comparisons modelled (for the PRAM cost accounting)
}

// AlgorithmOne clips two polygons with the multicore realization of the
// paper's Algorithm 1: the whole pipeline runs in parallel over scanbeams
// with parallelism p, using the segment tree for Step 2 and the
// scanbeam-inversion finder for Step 3.2. Returns the result and the
// output-sensitivity report.
func AlgorithmOne(a, b geom.Polygon, op Op, p int) (geom.Polygon, Alg1Report) {
	return AlgorithmOneCtx(context.Background(), a, b, op, p)
}

// AlgorithmOneCtx is AlgorithmOne with cooperative cancellation: the
// per-beam classification loop polls ctx and stops early. On a cancelled
// ctx the returned polygon is nil; callers observe the cancellation via
// ctx.Err().
func AlgorithmOneCtx(ctx context.Context, a, b geom.Polygon, op Op, p int) (geom.Polygon, Alg1Report) {
	return AlgorithmOneRuleCtx(ctx, a, b, op, engine.EvenOdd, p)
}

// AlgorithmOneRuleCtx is AlgorithmOneCtx under an explicit fill rule: the
// shared scanbeam walk accumulates signed winding counts, so EvenOdd,
// NonZero, Positive and Negative all run through the same parallel beam
// pipeline.
func AlgorithmOneRuleCtx(ctx context.Context, a, b geom.Polygon, op Op, rule engine.FillRule, p int) (geom.Polygon, Alg1Report) {
	if ctx == nil {
		ctx = context.Background()
	}
	if p <= 0 {
		p = par.DefaultParallelism()
	}
	var rep Alg1Report
	rep.N = a.NumVertices() + b.NumVertices()

	// Step 3.2 (Lemma 4): the paper's k is a property of the raw input, so
	// count the inversion crossings before resolution.
	rawEdges := scanbeam.CollectEdges(a, b)
	if len(rawEdges) == 0 {
		return nil, rep
	}
	rawSegs := make([]geom.Segment, len(rawEdges))
	for i, e := range rawEdges {
		rawSegs[i] = e.Seg
	}
	rep.K = int(isect.CountCrossings(rawSegs, p))
	if canceled(ctx) {
		return nil, rep
	}

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
	rep.Procs = rep.N + rep.K + rep.KPrime

	// Step 3: per-beam classification and trapezoid emission, in parallel.
	// The ordering buffers come from the shared scanbeam pool: the beam loop
	// runs concurrently, so scratches are pooled rather than shared.
	edgeAt := func(id int32) (geom.Segment, uint8, int8) {
		e := &edges[id]
		return e.Seg, e.Owner, e.Delta
	}
	perBeam := make([][]vatti.Trapezoid, len(beams))
	par.ForEachItem(len(beams), p, func(bi int) {
		if bi&63 == 0 && canceled(ctx) {
			return
		}
		ids := beams[bi]
		if len(ids) < 2 {
			return
		}
		scratch := scanbeam.Get()
		var out []vatti.Trapezoid
		scanbeam.BeamTrapezoids(scratch, ids, ys[bi], ys[bi+1], op, rule, edgeAt, &out)
		scanbeam.Put(scratch)
		perBeam[bi] = out
	})

	var tzs []vatti.Trapezoid
	for _, t := range perBeam {
		tzs = append(tzs, t...)
	}
	rep.Trapez = len(tzs)

	// Step 4: merge the per-beam partial polygons.
	out := vatti.Assemble(tzs)
	for _, r := range out {
		rep.Output += len(r)
	}
	return out, rep
}

package core

import (
	"context"
	"math"
	"sync/atomic"
	"time"

	"polyclip/internal/rtree"

	"polyclip/internal/engine"
	"polyclip/internal/geom"
	"polyclip/internal/guard"
	"polyclip/internal/par"
)

// Layer is a set of polygon features (a GIS layer). Features within one
// layer are assumed not to overlap each other (true of administrative
// boundaries, urban areas and the like), so the layer as a whole is a valid
// even-odd region.
type Layer []geom.Polygon

// NumVertices returns the total vertex count of the layer.
func (l Layer) NumVertices() int {
	n := 0
	for _, f := range l {
		n += f.NumVertices()
	}
	return n
}

// BBox returns the layer's bounding box (the paper's MBR of the union).
func (l Layer) BBox() geom.BBox {
	box := geom.EmptyBBox()
	for _, f := range l {
		box = box.Union(f.BBox())
	}
	return box
}

// ClipLayers overlays two feature layers with the pthread variant of
// Algorithm 2 (§IV last paragraph): feature MBR y-extents form the event
// list, slabs get roughly equal numbers of events, and features spanning
// slab boundaries are replicated rather than split. Each candidate feature
// pair (bounding boxes overlapping) is clipped by the sequential engine in
// exactly one slab — the slab containing the bottom of the pair's shared
// MBR — which eliminates the redundant outputs the paper removes by
// post-processing. Results are per-pair outputs concatenated; no merge
// phase is needed.
func ClipLayers(a, b Layer, op Op, opt Options) ([]geom.Polygon, *Stats) {
	out, st, err := ClipLayersCtx(context.Background(), a, b, op, opt)
	if err != nil {
		panic(err)
	}
	return out, st
}

// ClipLayersCtx is ClipLayers with cooperative cancellation and panic
// isolation. The pair loop polls ctx, so after cancellation no further
// feature pair is clipped and ctx.Err() is returned. A panic while clipping
// one pair is recovered; unless opt.NoFallback is set the pair is retried
// once with the other sequential engine (the differential rescue, counted
// in Stats.Resilience.Recovered), and only if that also fails does the
// *guard.ClipError — carrying the offending pair — surface as the error.
func ClipLayersCtx(ctx context.Context, a, b Layer, op Op, opt Options) ([]geom.Polygon, *Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p := opt.Threads
	if p <= 0 {
		p = par.DefaultParallelism()
	}
	nslabs := opt.Slabs
	if nslabs <= 0 {
		nslabs = p
	}
	st := &Stats{}
	snapEps := geom.AutoSnapEps(flatten(a), flatten(b))

	// Event list: MBR y-extents of every feature (two events per feature).
	t0 := time.Now()
	boxesA := make([]geom.BBox, len(a))
	boxesB := make([]geom.BBox, len(b))
	ys := make([]float64, 0, 2*(len(a)+len(b)))
	for i, f := range a {
		boxesA[i] = f.BBox()
		ys = append(ys, boxesA[i].MinY, boxesA[i].MaxY)
	}
	for i, f := range b {
		boxesB[i] = f.BBox()
		ys = append(ys, boxesB[i].MinY, boxesB[i].MaxY)
	}
	par.Sort(ys, func(x, y float64) bool { return x < y }, p)
	dedup := ys[:0]
	for i, v := range ys {
		if i == 0 || v != dedup[len(dedup)-1] {
			dedup = append(dedup, v)
		}
	}
	ys = dedup
	st.Sort = time.Since(t0)
	if len(ys) == 0 {
		return nil, st, ctx.Err()
	}

	bounds := slabBoundaries(ys, nslabs, opt.Partition)
	ns := len(bounds) - 1
	st.Slabs = ns

	// Candidate pairs by an MBR grid join (linear in features + candidates,
	// instead of the quadratic per-slab double loop), then each pair is
	// assigned to the slab containing the midpoint of its shared y-range —
	// the replication scheme without the redundant clips.
	t1 := time.Now()
	pairsPerSlab := make([][][2]int32, ns)
	ownerSlab := func(y float64) int {
		for s := 0; s < ns; s++ {
			if y <= bounds[s+1] {
				return s
			}
		}
		return ns - 1
	}
	for _, pr := range mbrJoin(boxesA, boxesB) {
		ba, bb := boxesA[pr[0]], boxesB[pr[1]]
		loY := math.Max(ba.MinY, bb.MinY)
		hiY := math.Min(ba.MaxY, bb.MaxY)
		s := ownerSlab((loY + hiY) / 2)
		pairsPerSlab[s] = append(pairsPerSlab[s], pr)
	}
	st.Partition = time.Since(t1)

	// Per-slab pairwise clipping. Each pair clip is panic-isolated and, on
	// failure, rescued once by the other sequential engine. The slab loop
	// runs under a watchdog: if ctx expires while a pair worker is wedged,
	// the stage is abandoned (buffers discarded, never reused) and a
	// timeout-flavoured *guard.ClipError is returned instead of blocking
	// forever.
	t2 := time.Now()
	var results [][]geom.Polygon
	perThread := make([]time.Duration, ns)
	var firstErr atomic.Pointer[guard.ClipError]
	var rescued atomic.Int32
	res := make([][]geom.Polygon, ns)
	werr := par.ForEachCtx(ctx, ns, p, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			ts := time.Now()
			var out []geom.Polygon
			for _, pr := range pairsPerSlab[s] {
				if canceled(ctx) || firstErr.Load() != nil {
					break
				}
				c, wasRescued, ce := pairClipSafe(ctx, opt, a[pr[0]], b[pr[1]], op, snapEps, pr)
				if ce != nil {
					firstErr.CompareAndSwap(nil, ce)
					break
				}
				if wasRescued {
					rescued.Add(1)
				}
				if len(c) > 0 {
					out = append(out, c)
				}
			}
			res[s] = out
			perThread[s] = time.Since(ts)
		}
	})
	st.Clip = time.Since(t2)
	st.Resilience.Recovered = int(rescued.Load())
	if werr != nil {
		return nil, st, stageError("pair-clip", werr)
	}
	st.PerThread = perThread
	results = res
	if ce := firstErr.Load(); ce != nil {
		return nil, st, ce
	}
	if err := ctx.Err(); err != nil {
		return nil, st, err
	}

	t3 := time.Now()
	var out []geom.Polygon
	for _, r := range results {
		out = append(out, r...)
	}
	st.Merge = time.Since(t3)
	return out, st, nil
}

// pairClipSafe clips one candidate feature pair with panic isolation: a
// panic in the selected engine is recovered and — unless opt.NoFallback —
// the pair is retried once on engine.Reference, a structurally different
// engine (the differential rescue). The returned bool reports a successful
// rescue; a non-nil *guard.ClipError means both the engine and its rescue
// failed (or fallback was disabled).
func pairClipSafe(ctx context.Context, opt Options, a, b geom.Polygon, op Op, snapEps float64, pr [2]int32) (geom.Polygon, bool, *guard.ClipError) {
	eng := slabEngine(opt)
	run := func(e engine.Engine) (out geom.Polygon, ce *guard.ClipError) {
		defer func() {
			if r := recover(); r != nil {
				ce = guard.FromPanic("pair-clip", -1, [2]int{int(pr[0]), int(pr[1])}, r)
			}
		}()
		guard.Hit("core.pair-clip")
		return slabClip(ctx, e, a, b, op, snapEps, false), nil
	}
	out, ce := run(eng)
	if ce == nil {
		return out, false, nil
	}
	if opt.NoFallback {
		return nil, false, ce
	}
	alt, ok := engine.Reference(eng.Name(), engine.EvenOdd)
	if !ok {
		return nil, false, ce
	}
	out, ce2 := run(alt)
	if ce2 != nil {
		return nil, false, ce // surface the original failure
	}
	return out, true, nil
}

func flatten(l Layer) geom.Polygon {
	var out geom.Polygon
	for _, f := range l {
		out = append(out, f...)
	}
	return out
}

// mbrJoin returns every (i, j) with boxesA[i] intersecting boxesB[j], via
// an STR-packed R-tree over the B boxes. Cost is near-linear in boxes plus
// candidates.
func mbrJoin(boxesA, boxesB []geom.BBox) [][2]int32 {
	if len(boxesA) == 0 || len(boxesB) == 0 {
		return nil
	}
	tr := rtree.Build(len(boxesB), func(j int32) geom.BBox { return boxesB[j] })
	return tr.Join(len(boxesA),
		func(i int32) geom.BBox { return boxesA[i] },
		func(j int32) geom.BBox { return boxesB[j] })
}

// Package core implements the paper's two parallel clipping algorithms on
// top of the repository's substrates:
//
//   - AlgorithmOne — the multicore realization of the CREW PRAM Algorithm 1
//     (§III): event schedule by parallel sort, scanbeam population through
//     the parallel segment tree (Step 2), per-scanbeam contributing-vertex
//     classification and trapezoid emission in parallel over beams (Step 3,
//     Lemmas 1–3) with intersections from the inversion method (Lemma 4),
//     and a parallel merge of the partial results (Step 4, Fig. 6).
//
//   - ClipPairCtx — the multi-threaded Algorithm 2 (§IV): the input is
//     partitioned into p horizontal slabs balanced by event count, each slab
//     is clipped independently by a sequential engine after
//     rectangle-clipping both operands to the slab, and the partial outputs
//     are merged by cancelling the seams along slab boundaries. The §IV form
//     for two polygon sets, which hands each feature pair to one slab whole,
//     is batch.Overlay; it cuts its slabs with SlabBoundaries.
//
// All entry points report phase timings (partition / clip / merge) and
// per-thread clip times so the paper's Figures 8–12 can be regenerated.
package core

import (
	"context"
	"errors"

	"polyclip/internal/arrange"
	"sync/atomic"
	"time"

	"polyclip/internal/bandclip"
	"polyclip/internal/engine"
	"polyclip/internal/geom"
	"polyclip/internal/guard"
	"polyclip/internal/par"

	// Linked for their init-time engine registration: any program importing
	// core can resolve the slab hosts (overlay, vatti) by name.
	_ "polyclip/internal/overlay"
	_ "polyclip/internal/vatti"
)

// MergeMode selects how per-slab partial outputs are combined.
type MergeMode uint8

// Merge modes.
const (
	// MergeStitch cancels the horizontal seams along slab boundaries and
	// restitches rings — the paper's Fig. 6 merge, flattened.
	MergeStitch MergeMode = iota
	// MergeConcat concatenates the partial outputs, leaving seam edges in
	// place. The region is identical under the even-odd rule; only the ring
	// structure differs. Fastest; matches the paper's replication variant
	// where "the merging phase is not required".
	MergeConcat
	// MergeUnionTree merges by a reduction tree of pairwise polygon unions,
	// the literal Fig. 6 construction. For the ablation benchmark.
	MergeUnionTree
)

// Options configures a parallel clipping run.
type Options struct {
	// Threads is the number of concurrent workers; <= 0 means GOMAXPROCS.
	Threads int
	// Slabs is the number of horizontal slabs the input is decomposed
	// into; 0 derives the count from the input itself (see
	// adaptiveSlabCount): the arrangement pre-scan's event and crossing
	// counts buy slabs up to twice the thread count, and small inputs
	// collapse to one slab. Setting Slabs > Threads measures true
	// per-slab costs with limited concurrency (used by the experiment
	// harness to model scaling beyond the host's core count: per-slab
	// timers are only CPU-attributable when workers do not outnumber
	// cores).
	Slabs int
	// Engine is the per-slab sequential clipper: an engine that runs
	// single-threaded, honors SnapEps so seam geometry quantizes identically
	// across slabs, and honors PreResolved (overlay and vatti). nil selects
	// overlay.
	Engine engine.Engine
	// Merge selects the partial-output merge strategy.
	Merge MergeMode
	// NoFallback disables the stage retry: a stage that panics or times out
	// surfaces its *guard.ClipError at once instead of being re-run
	// sequentially.
	NoFallback bool
}

// slabEngine resolves the per-slab sequential engine: the configured one, or
// overlay when unset.
func slabEngine(opt Options) engine.Engine {
	if opt.Engine != nil {
		return opt.Engine
	}
	return engine.MustGet("overlay")
}

// slabClip runs a sequential engine on one slab's operands. snapEps is the
// vertex grid shared by every slab of one run, so that seam geometry produced
// independently by different workers quantizes identically. resolved hands
// the host a pair that already went through the joint arrangement resolution
// (engine.Options.PreResolved), so the host only sweeps. A cancelled ctx
// makes cancellable engines bail early; the surrounding loops detect the
// cancellation and discard the partial output.
func slabClip(ctx context.Context, e engine.Engine, a, b geom.Polygon, op engine.Op, snapEps float64, resolved bool) geom.Polygon {
	res, _ := e.Clip(ctx, a, b, op, engine.Options{Threads: 1, SnapEps: snapEps, PreResolved: resolved})
	return res.Polygon
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

// Per-stage shares of the remaining deadline budget. Each stage gets its
// fraction of the time left when it starts (not of the original total), so
// an early stage finishing fast donates its slack to the later ones and a
// slow stage cannot starve the merge entirely.
const (
	fracSort      = 0.10
	fracPartition = 0.20
	fracClip      = 0.55
	fracMerge     = 0.80 // of whatever remains after the clip stage
)

// stageRetryBackoff is the pause before a timed-out or panicked stage is
// retried sequentially — long enough to let a transiently-contended machine
// breathe, short enough to stay well inside any realistic deadline budget.
const stageRetryBackoff = 2 * time.Millisecond

// runStage executes one pipeline stage with a watchdog deadline and one
// retry. When ctx carries a deadline, the stage runs under a child context
// holding the stage's fractional share of the remaining time; a stage that
// exceeds its share is abandoned (workers cannot be killed — they keep
// running and their buffers are discarded, which is why attempt must write
// only to freshly allocated buffers and commit them only on a nil return).
// A timed-out or panicked stage is retried once, after a brief backoff,
// sequentially (p = 1) under the full remaining deadline. When both tries
// fail the stage error is surfaced as a *guard.ClipError; cancellation or
// expiry of ctx itself is surfaced as ctx.Err().
//
// attempt receives the stage context and the parallelism to use, and must
// return a *par.StallError if the stage context expired mid-stage (so the
// watchdog outcome is attributed to the stage, not the run).
func runStage(ctx context.Context, st *engine.Stats, name string, frac float64, p int, noRetry bool, attempt func(sctx context.Context, p int) error) error {
	run := func(pp int, share float64) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = guard.FromPanic(name, -1, guard.NoPair, r)
			}
		}()
		sctx := ctx
		if deadline, ok := ctx.Deadline(); ok {
			var cancel context.CancelFunc
			sctx, cancel = context.WithTimeout(ctx, time.Duration(share*float64(time.Until(deadline))))
			defer cancel()
		}
		return attempt(sctx, pp)
	}

	err := run(p, frac)
	if err == nil {
		return nil
	}
	if cerr := ctx.Err(); cerr != nil {
		// The run as a whole was cancelled or ran out of deadline: not a
		// stage-local failure, nothing to retry.
		return cerr
	}
	var stall *par.StallError
	if errors.As(err, &stall) {
		st.Resilience.StageTimeouts++
	}
	if noRetry {
		return stageError(name, err)
	}
	time.Sleep(stageRetryBackoff)
	st.Resilience.Retries++
	if err2 := run(1, 1.0); err2 == nil {
		st.Resilience.Recovered++
		return nil
	}
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return stageError(name, err)
}

// stageError converts a stage failure into the structured *guard.ClipError
// surfaced to callers, preserving an existing ClipError's deeper
// attribution and tagging watchdog stalls as timeouts.
func stageError(stage string, err error) error {
	var ce *guard.ClipError
	if errors.As(err, &ce) {
		return ce
	}
	var stall *par.StallError
	out := &guard.ClipError{Stage: stage, Slab: -1, Pair: guard.NoPair, Value: err, Err: err}
	if errors.As(err, &stall) {
		out.Timeout = true
	}
	return out
}

// stallIfExpired maps a stage context that expired while the stage's
// workers were (cooperatively) draining onto the same *par.StallError the
// watchdog produces for a hard stall, so runStage treats both identically.
func stallIfExpired(sctx context.Context) error {
	if err := sctx.Err(); err != nil {
		return &par.StallError{Err: err}
	}
	return nil
}

// ClipPairCtx clips two polygons with the multi-threaded Algorithm 2,
// cooperatively honoring ctx: the slab loop polls cancellation before each
// slab, so after ctx is done no further slab is clipped and ctx.Err() is
// returned. A panic in one slab worker is recovered and returned as a
// *guard.ClipError carrying the offending slab index and the worker stack,
// instead of crashing the process.
//
// When ctx carries a deadline, the budget is split across the sweep stages
// (sort / partition / clip / merge) and each stage runs under a watchdog: a
// stage whose workers do not finish inside its share — a straggler wedged on
// pathological geometry, a hung worker — is abandoned and retried once,
// sequentially, on fresh buffers (Stats.Resilience.StageTimeouts / Retries).
// Only if the retry also fails does a timeout-flavoured *guard.ClipError
// surface, feeding the caller's degradation ladder. The run therefore
// returns within a small factor of the configured deadline even when a
// worker hangs outright.
func ClipPairCtx(ctx context.Context, a, b geom.Polygon, op engine.Op, opt Options) (geom.Polygon, *engine.Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p := opt.Threads
	if p <= 0 {
		p = par.DefaultParallelism()
	}
	nslabs := opt.Slabs
	st := &engine.Stats{}
	snapEps := geom.AutoSnapEps(a, b)
	// Decompose the resolved, snapped pair — the same pre-pass every other
	// engine's sweep starts from — not the raw operands. Two alignments
	// must hold at once. First, the quantization ORDER must match the rest
	// of the registry: joint pair resolution (split at every intersection,
	// weld onto the shared grid, re-extract self-crossing operands) and
	// only then the grid snap; snapping raw geometry first collapses
	// sub-grid rings that the resolve pipeline would have re-extracted,
	// and the result measurably diverges from the other engines on
	// coarse-grid (mixed-extent) pairs. Second, slab cuts are placed at
	// event ys and each slab host re-snaps its band onto this same grid —
	// after this pre-pass every event y is a grid value (so cut lines and
	// the caps they produce quantize identically in adjacent hosts) and
	// every cut still passes exactly through the vertices that generated
	// it, which seam cancellation in the merge relies on. This is the pair's
	// one resolve: when the pair is not cut into slabs, the host gets it
	// with PreResolved set and only sweeps; band-clipped slab pieces are
	// new geometry and their hosts resolve them again.
	var crossings int
	a, b, crossings = arrange.ResolvePairEstimate(a, b)
	a = geom.SnapPolygon(a, snapEps)
	b = geom.SnapPolygon(b, snapEps)
	st.CrossingEstimate = crossings
	eng := slabEngine(opt)

	// Step 1–2: event schedule. It only places slab cuts, so with one slab
	// known up front — Slabs 1, or Slabs unset at one thread, where
	// adaptiveSlabCount always picks one — the host gets the pair unsorted.
	if nslabs <= 0 && p <= 1 {
		nslabs = 1
	}
	var bounds []float64
	if nslabs != 1 {
		t0 := time.Now()
		var ys []float64
		err := runStage(ctx, st, "sort", fracSort, p, opt.NoFallback, func(sctx context.Context, pp int) error {
			var out []float64
			if err := par.Run(sctx, func() { out = eventYs(a, b, pp) }); err != nil {
				return err
			}
			ys = out
			return nil
		})
		st.Sort = time.Since(t0)
		if err != nil {
			return nil, st, err
		}
		if len(ys) > 0 {
			if nslabs <= 0 {
				nslabs = adaptiveSlabCount(p, len(ys), crossings)
			}
			bounds = pruneThinSlabs(SlabBoundaries(ys, nslabs), snapEps)
		}
	}
	ns := max(len(bounds)-1, 1)
	st.Slabs = ns
	if ns == 1 {
		t1 := time.Now()
		var out geom.Polygon
		err := runStage(ctx, st, "clip", fracClip, p, opt.NoFallback, func(sctx context.Context, _ int) error {
			var o geom.Polygon
			if err := par.Run(sctx, func() { o = slabClip(sctx, eng, a, b, op, snapEps, true) }); err != nil {
				return err
			}
			if err := stallIfExpired(sctx); err != nil {
				return err
			}
			out = o
			return nil
		})
		st.Clip = time.Since(t1)
		if err != nil {
			return nil, st, err
		}
		st.PerThread = []time.Duration{st.Clip}
		return out, st, nil
	}

	// Steps 4–5: rectangle-clip both operands into each slab.
	t1 := time.Now()
	var subA, subB []geom.Polygon
	err := runStage(ctx, st, "partition", fracPartition, p, opt.NoFallback, func(sctx context.Context, pp int) error {
		sa := make([]geom.Polygon, ns)
		sb := make([]geom.Polygon, ns)
		err := par.ForEachCtx(sctx, ns, pp, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if canceled(sctx) {
					return
				}
				sa[i] = bandclip.Clip(a, bounds[i], bounds[i+1])
				sb[i] = bandclip.Clip(b, bounds[i], bounds[i+1])
			}
		})
		if err != nil {
			return err
		}
		if err := stallIfExpired(sctx); err != nil {
			return err
		}
		subA, subB = sa, sb
		return nil
	})
	st.Partition = time.Since(t1)
	if err != nil {
		return nil, st, err
	}

	// Step 6: per-slab sequential clipping. Each worker is panic-isolated:
	// the first panic is captured with its slab attribution; the stage retry
	// (or, failing that, the caller's fallback chain) handles it.
	t2 := time.Now()
	var partial []geom.Polygon
	err = runStage(ctx, st, "slab-clip", fracClip, p, opt.NoFallback, func(sctx context.Context, pp int) error {
		pt := make([]geom.Polygon, ns)
		tt := make([]time.Duration, ns)
		var slabErr atomic.Pointer[guard.ClipError]
		err := par.ForEachCtx(sctx, ns, pp, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if canceled(sctx) || slabErr.Load() != nil {
					return
				}
				func(i int) {
					defer func() {
						if r := recover(); r != nil {
							slabErr.CompareAndSwap(nil, guard.FromPanic("slab-clip", i, guard.NoPair, r))
						}
					}()
					guard.Hit("core.slab-clip")
					ts := time.Now()
					pt[i] = slabClip(sctx, eng, subA[i], subB[i], op, snapEps, false)
					tt[i] = time.Since(ts)
				}(i)
			}
		})
		if err != nil {
			return err
		}
		if ce := slabErr.Load(); ce != nil {
			return ce
		}
		if err := stallIfExpired(sctx); err != nil {
			return err
		}
		partial = pt
		st.PerThread = tt
		return nil
	})
	st.Clip = time.Since(t2)
	if err != nil {
		return nil, st, err
	}

	// Step 8: merge.
	t3 := time.Now()
	var out geom.Polygon
	err = runStage(ctx, st, "merge", fracMerge, p, opt.NoFallback, func(sctx context.Context, pp int) error {
		var o geom.Polygon
		if err := par.Run(sctx, func() { o = mergePartials(partial, bounds, opt.Merge, snapEps, pp) }); err != nil {
			return err
		}
		out = o
		return nil
	})
	st.Merge = time.Since(t3)
	if err != nil {
		return nil, st, err
	}
	return out, st, nil
}

// eventYs returns the sorted distinct vertex y-coordinates of both operands,
// sorting with parallelism p.
func eventYs(a, b geom.Polygon, p int) []float64 {
	var ys []float64
	for _, poly := range []geom.Polygon{a, b} {
		for _, r := range poly {
			for _, pt := range r {
				ys = append(ys, pt.Y)
			}
		}
	}
	return SortedDistinct(ys, p)
}

// SortedDistinct sorts the event ys in place with parallelism p and returns
// their distinct values, reusing ys's storage; nil when ys is empty.
func SortedDistinct(ys []float64, p int) []float64 {
	if len(ys) == 0 {
		return nil
	}
	par.Sort(ys, func(x, y float64) bool { return x < y }, p)
	out := ys[:0]
	for i, v := range ys {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// minSlabWork is the event-plus-crossing count one slab is worth creating
// for: below it, the fixed per-slab cost (two bandclip passes over the full
// operands, a slab host, a merge seam) exceeds the sweep work the slab
// carries.
const minSlabWork = 256

// adaptiveSlabCount derives the slab count from the input's measured size
// instead of a fixed multiple of the thread count — the output-sensitive
// processor allocation of the paper's Step 3, with the arrangement
// pre-scan's crossing estimate standing in for k. work = events + crossings
// buys one slab per minSlabWork units, clamped to [1, 2p]: small inputs
// collapse to a single slab (skipping partition and merge entirely), dense
// inputs get up to 2p slabs, at most two to each of the slab loop's p
// chunks, and p == 1 always means one slab.
func adaptiveSlabCount(p, events, crossings int) int {
	if p <= 1 {
		return 1
	}
	ns := (events + crossings) / minSlabWork
	if ns < 1 {
		ns = 1
	}
	if ns > 2*p {
		ns = 2 * p
	}
	return ns
}

// pruneThinSlabs drops interior slab boundaries that would leave a slab
// thinner than two cells of the pair's shared snap grid. A sub-cell slab
// cannot survive the per-slab snap rounding: its operands collapse or
// fatten by a full cell inside the slab host, and the drift survives the
// merge as a measurable area error (event ys of a degenerate sliver
// operand can sit arbitrarily close together while the pair grid — sized
// by the full extent — is far coarser). Boundaries are only ever dropped,
// never moved: event-mode cuts pass exactly through input vertices, and
// shifting one onto the grid would slice edges a fraction of a cell away
// from the vertex, leaving near-degenerate caps that adjacent slab hosts
// weld inconsistently.
func pruneThinSlabs(bounds []float64, eps float64) []float64 {
	if eps <= 0 || len(bounds) <= 2 {
		return bounds
	}
	hi := bounds[len(bounds)-1]
	out := bounds[:1]
	for _, v := range bounds[1 : len(bounds)-1] {
		if v-out[len(out)-1] >= 2*eps && hi-v >= 2*eps {
			out = append(out, v)
		}
	}
	return append(out, hi)
}

// SlabBoundaries picks up to p+1 boundaries over the sorted distinct event
// ys so that the p slabs get roughly equal numbers of events — the paper's
// partition ("every thread gets roughly equal number of local event
// points"). Slab s spans [bounds[s], bounds[s+1]]; fewer slabs come back
// when the events cannot fill p of them.
func SlabBoundaries(ys []float64, p int) []float64 {
	lo, hi := ys[0], ys[len(ys)-1]
	if lo == hi || p < 1 {
		return []float64{lo, hi}
	}
	bounds := make([]float64, 0, p+1)
	bounds = append(bounds, lo)
	for i := 1; i < p; i++ {
		v := ys[len(ys)*i/p]
		if v > bounds[len(bounds)-1] && v < hi {
			bounds = append(bounds, v)
		}
	}
	bounds = append(bounds, hi)
	return bounds
}

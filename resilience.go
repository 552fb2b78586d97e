package polyclip

import (
	"context"
	"errors"
	"fmt"

	"polyclip/internal/core"
	"polyclip/internal/engine"
	"polyclip/internal/geom"
	"polyclip/internal/guard"
	"polyclip/internal/par"
)

// ClipError is the structured error surfaced when a clipping worker panics:
// it carries the pipeline stage, the offending slab index or feature pair
// when attributable, the recovered panic value and the worker's stack.
// Retrieve it with errors.As.
type ClipError = guard.ClipError

// ErrInvalidInput tags input-validation failures (non-finite or overflowing
// coordinates). Test with errors.Is.
var ErrInvalidInput = guard.ErrInvalidInput

// coarseFactor scales the snap grid for the retry attempt of the
// differential-fallback chain: a 1024x coarser grid collapses the
// near-degenerate incidences that defeat the default grid.
const coarseFactor = 1024

// attempt is one step of the differential-fallback chain bound to one
// clip's operands and engine options.
type attempt struct {
	name   string // attempt label recorded in Stats.Resilience.Attempts
	engine string // registry name of the engine behind the attempt
	run    func(ctx context.Context) (Polygon, *Stats, error)
}

// chainStep is one entry of the differential-fallback chain: a registry
// engine and the snap grid it runs on.
type chainStep struct {
	name   string // attempt label
	engine string // registry engine name
	coarse bool   // run on the coarseFactor-coarser snap grid
}

// The steps the chains share: overlay on the coarser snap grid, the
// sequential Vatti sweep, and overlay on the default grid as the last
// degraded step (single-threaded, like every degraded step).
var (
	overlayCoarse = chainStep{name: "overlay-coarse", engine: "overlay", coarse: true}
	vattiStep     = chainStep{name: "vatti", engine: "vatti"}
	overlaySeq    = chainStep{name: "overlay-seq", engine: "overlay"}
)

// chains writes down each Algorithm's fallback chain, in full and in
// degraded mode. The full chain runs the requested engine, then overlay on a
// 1024x coarser snap grid, then the structurally different Vatti sweep;
// AlgoSequential, whose own engine is vatti, falls back to overlay on the
// default and then the coarse grid. The degraded chain keeps the cheap
// steps — coarse-grid and sequential — and runs each single-threaded. Every
// engine serves every fill rule, so no chain depends on Options.Rule, and an
// Algorithm missing here is rejected with ErrUnsupported.
var chains = map[Algorithm]struct{ full, degraded []chainStep }{
	AlgoOverlay: {
		full:     []chainStep{{name: "overlay", engine: "overlay"}, overlayCoarse, vattiStep},
		degraded: []chainStep{overlayCoarse, vattiStep, overlaySeq},
	},
	AlgoSlabs: {
		full:     []chainStep{{name: "slabs", engine: "slabs"}, overlayCoarse, vattiStep},
		degraded: []chainStep{overlayCoarse, vattiStep, overlaySeq},
	},
	AlgoScanbeam: {
		full:     []chainStep{{name: "scanbeam", engine: "scanbeam"}, overlayCoarse, vattiStep},
		degraded: []chainStep{overlayCoarse, vattiStep, overlaySeq},
	},
	AlgoSequential: {
		full:     []chainStep{vattiStep, {name: "overlay", engine: "overlay"}, overlayCoarse},
		degraded: []chainStep{vattiStep, overlayCoarse},
	},
}

// ClipCtx computes `subject op clip` through the hardened pipeline:
//
//  1. Both inputs are validated (non-finite or overflowing coordinates are
//     rejected with an error wrapping ErrInvalidInput) and repaired
//     (consecutive duplicates, zero-area spikes and sub-3-vertex rings
//     removed; recorded in Stats.Resilience.Repaired).
//  2. The selected engine runs with panic isolation and cooperative
//     cancellation: ctx is polled inside the parallel loops, and a worker
//     panic is captured as a *ClipError instead of crashing the process.
//  3. The result is audited against cheap invariants (well-formed finite
//     rings, op-specific area bound). On a panic or failed audit the clip
//     is retried once on a 1024x coarser snap grid, then handed to a
//     different engine entirely (the sequential Vatti sweep, which serves
//     every fill rule). Every attempt and its outcome is recorded in
//     Stats.Resilience.Attempts.
//
// The returned error is non-nil only when the inputs are invalid, the fill
// rule or Algorithm is not one of the constants (ErrUnsupported), ctx was
// cancelled, or every engine of the chain failed. Stats is always non-nil.
// Setting Options.NoFallback disables step 3's retries, surfacing the first
// failure directly.
func ClipCtx(ctx context.Context, subject, clip Polygon, op Op, opt Options) (Polygon, *Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var res core.Resilience
	fin := func(st *Stats) *Stats {
		if st == nil {
			st = &Stats{}
		}
		st.Resilience = res
		return st
	}

	if _, ok := chains[opt.Algorithm]; !ok {
		return nil, fin(nil), fmt.Errorf("algorithm %d: %w", opt.Algorithm, ErrUnsupported)
	}
	if err := engine.CheckRule(opt.Rule); err != nil {
		return nil, fin(nil), err
	}
	if err := guard.Validate(subject); err != nil {
		return nil, fin(nil), fmt.Errorf("subject: %w", err)
	}
	if err := guard.Validate(clip); err != nil {
		return nil, fin(nil), fmt.Errorf("clip: %w", err)
	}
	var repS, repC guard.RepairReport
	subject, repS = guard.Repair(subject)
	clip, repC = guard.Repair(clip)
	res.Repaired = repS.Changed() || repC.Changed()

	// Audit references are sound measure bounds, not shoelace areas: the
	// ring-sum area of a self-intersecting input under-states its even-odd
	// measure (a bowtie sums to ~0), which made the audit reject correct
	// results and drag every such clip through the fallback chain.
	areaS, areaC := guard.MeasureBound(subject), guard.MeasureBound(clip)
	chain := attemptChain(subject, clip, op, opt)
	if opt.NoFallback {
		chain = chain[:1]
	}

	var out Polygon
	var st *Stats
	var lastErr error
	for i, at := range chain {
		if err := ctx.Err(); err != nil {
			return nil, fin(st), err
		}
		var err error
		out, st, err = runAttempt(ctx, at)
		if st != nil {
			// Keep the stage-level counters (watchdog timeouts, retries,
			// in-stage recoveries) an attempt accumulated even when the
			// attempt itself failed and the chain moves on.
			res.StageTimeouts += st.Resilience.StageTimeouts
			res.Retries += st.Resilience.Retries
			res.Recovered += st.Resilience.Recovered
		}
		if err != nil {
			if ctx.Err() != nil {
				res.Attempts = append(res.Attempts, at.name+":canceled")
				return nil, fin(st), err
			}
			res.Attempts = append(res.Attempts, at.name+":"+failureKind(err))
			lastErr = err
			continue
		}
		out = guard.HitPoly("polyclip.result", out)
		accept := func(outcome string) (Polygon, *Stats, error) {
			res.Attempts = append(res.Attempts, at.name+":"+outcome)
			sf := fin(st)
			sf.Engine = at.engine
			return out, sf, nil
		}
		if aerr := guard.Audit(out, areaS, areaC, guard.OpKind(op)); aerr != nil {
			res.InvariantFailures++
			// The heuristic bound cannot distinguish a damaged result from a
			// legitimate one on inputs that defeat the area estimate, so
			// consult the differential oracle before discarding the attempt:
			// recompute the measure with a structurally different engine and
			// accept on agreement (cross-engine concordance is the strongest
			// evidence available without a ground truth).
			if !opt.NoFallback {
				if refArea, ok := crossCheckArea(ctx, subject, clip, op, at.engine, opt.Rule); ok &&
					guard.AuditDifferential(out, refArea, areaS+areaC) == nil {
					return accept("differential-ok")
				}
			}
			if i == len(chain)-1 {
				// Every engine agrees (or at least fails the same heuristic
				// bound): the audit is inconclusive, not the result wrong —
				// self-intersecting inputs can defeat the area estimate.
				return accept("audit-inconclusive")
			}
			res.Attempts = append(res.Attempts, at.name+":audit-fail")
			lastErr = aerr
			continue
		}
		return accept("ok")
	}
	return nil, fin(st), lastErr
}

// failureKind labels a failed engine attempt for the Attempts record:
// watchdog-abandoned stages are timeouts, everything else surfaced as a
// recovered panic.
func failureKind(err error) string {
	var stall *par.StallError
	if errors.As(err, &stall) {
		return "timeout"
	}
	var ce *ClipError
	if errors.As(err, &ce) && ce.Timeout {
		return "timeout"
	}
	return "panic"
}

// crossCheckArea computes the measure of `subject op clip` with an engine
// structurally different from the attempt under audit, engine.Reference (the
// sequential Vatti sweep, or overlay when auditing vatti). Panic-isolated; ok
// is false when the reference fails too, leaving the caller to the heuristic
// verdict.
func crossCheckArea(ctx context.Context, subject, clip Polygon, op Op, attemptEngine string, rule FillRule) (area float64, ok bool) {
	defer func() {
		if recover() != nil {
			area, ok = 0, false
		}
	}()
	ref, found := engine.Reference(attemptEngine, rule)
	if !found {
		return 0, false
	}
	res, err := ref.Clip(ctx, subject, clip, op, engine.Options{Threads: 1, Rule: rule})
	if err != nil {
		return 0, false
	}
	return res.Polygon.Area(), true
}

// runAttempt runs one engine attempt with panic isolation.
func runAttempt(ctx context.Context, at attempt) (out Polygon, st *Stats, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, st = nil, nil
			err = guard.FromPanic("clip", -1, guard.NoPair, r)
		}
	}()
	return at.run(ctx)
}

// attemptChain binds the Algorithm's chain — the degraded one with
// opt.Degraded, every step then single-threaded — to the operands and
// options of one clip. opt.Algorithm must be a key of chains.
func attemptChain(subject, clip Polygon, op Op, opt Options) []attempt {
	steps := chains[opt.Algorithm].full
	if opt.Degraded {
		steps = chains[opt.Algorithm].degraded
	}
	coarse := geom.AutoSnapEps(subject, clip) * coarseFactor
	out := make([]attempt, len(steps))
	for i, stp := range steps {
		e := engine.MustGet(stp.engine)
		eopt := engine.Options{
			Threads: opt.Threads, Slabs: opt.Slabs,
			Rule: opt.Rule, NoFallback: opt.NoFallback,
		}
		if opt.Degraded {
			eopt.Threads = 1
		}
		if stp.coarse {
			eopt.SnapEps = coarse
		}
		run := func(ctx context.Context) (Polygon, *Stats, error) {
			res, err := e.Clip(ctx, subject, clip, op, eopt)
			return res.Polygon, res.Stats, err
		}
		out[i] = attempt{name: stp.name, engine: stp.engine, run: run}
	}
	return out
}

// OverlayLayersMergedCtx is OverlayLayersMerged through the hardened
// pipeline (see ClipCtx): each layer is fused into one even-odd region and
// the regions are clipped with validation, repair, panic isolation,
// cancellation and the differential-fallback chain.
func OverlayLayersMergedCtx(ctx context.Context, a, b Layer, op Op, opt Options) (Polygon, *Stats, error) {
	opt.Algorithm = AlgoSlabs
	return ClipCtx(ctx, flattenLayer(a), flattenLayer(b), op, opt)
}

func flattenLayer(l Layer) Polygon {
	var out geom.Polygon
	for _, f := range l {
		out = append(out, f...)
	}
	return out
}

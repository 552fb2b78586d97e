package polyclip

import (
	"context"
	"errors"
	"fmt"
	"slices"

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
	if err := checkOptions(opt); err != nil {
		return nil, &Stats{}, err
	}
	if err := guard.Validate(subject); err != nil {
		return nil, &Stats{}, fmt.Errorf("subject: %w", err)
	}
	if err := guard.Validate(clip); err != nil {
		return nil, &Stats{}, fmt.Errorf("clip: %w", err)
	}
	var repS, repC guard.RepairReport
	subject, repS = guard.Repair(subject)
	clip, repC = guard.Repair(clip)
	return clipChain(ctx, subject, clip, op, opt, repS.Changed() || repC.Changed())
}

// checkOptions rejects an Algorithm or fill rule that is not one of the
// declared constants, before any operand is looked at.
func checkOptions(opt Options) error {
	if _, ok := chains[opt.Algorithm]; !ok {
		return fmt.Errorf("algorithm %d: %w", opt.Algorithm, ErrUnsupported)
	}
	return engine.CheckRule(opt.Rule)
}

// clipChain runs steps 2 and 3 of ClipCtx — the differential-fallback chain
// with its audit — on operands that already passed validation and repair;
// repaired is recorded in Stats.Resilience.Repaired. opt must have passed
// checkOptions.
func clipChain(ctx context.Context, subject, clip Polygon, op Op, opt Options, repaired bool) (Polygon, *Stats, error) {
	res := engine.Resilience{Repaired: repaired}
	fin := func(st *Stats) *Stats {
		if st == nil {
			st = &Stats{}
		}
		st.Resilience = res
		return st
	}

	// Audit references are sound measure bounds, not shoelace areas: the
	// ring-sum area of a self-intersecting input under-states its even-odd
	// measure (a bowtie sums to ~0), which made the audit reject correct
	// results and drag every such clip through the fallback chain.
	areaS, areaC := guard.MeasureBound(subject), guard.MeasureBound(clip)
	chain := chainFor(opt)
	eopt := engine.Options{Threads: opt.Threads, Slabs: opt.Slabs, Rule: opt.Rule, NoFallback: opt.NoFallback}
	if opt.Degraded {
		eopt.Threads = 1
	}

	var out Polygon
	var st *Stats
	var lastErr error
	for i, at := range chain {
		if err := ctx.Err(); err != nil {
			return nil, fin(st), err
		}
		sopt := eopt
		if at.coarse {
			sopt.SnapEps = geom.AutoSnapEps(subject, clip) * coarseFactor
		}
		var err error
		out, st, err = runEngine(ctx, engine.MustGet(at.engine), subject, clip, op, sopt)
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
		if aerr := guard.Audit(out, areaS, areaC, op); aerr != nil {
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

// chainFor returns the steps a clip under opt runs: the Algorithm's full
// chain, its degraded chain with opt.Degraded, and only the first step with
// opt.NoFallback. opt.Algorithm must be a key of chains.
func chainFor(opt Options) []chainStep {
	c := chains[opt.Algorithm].full
	if opt.Degraded {
		c = chains[opt.Algorithm].degraded
	}
	if opt.NoFallback {
		c = c[:1]
	}
	return c
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
// sequential Vatti sweep, or overlay when auditing vatti). ok is false when
// the reference fails too, leaving the caller to the heuristic verdict.
func crossCheckArea(ctx context.Context, subject, clip Polygon, op Op, attemptEngine string, rule FillRule) (area float64, ok bool) {
	ref, found := engine.Reference(attemptEngine, rule)
	if !found {
		return 0, false
	}
	out, _, err := runEngine(ctx, ref, subject, clip, op, engine.Options{Threads: 1, Rule: rule})
	if err != nil {
		return 0, false
	}
	return out.Area(), true
}

// runEngine runs one engine with panic isolation: a panic comes back as a
// *ClipError of the "clip" stage.
func runEngine(ctx context.Context, e engine.Engine, subject, clip Polygon, op Op, opt engine.Options) (out Polygon, st *Stats, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, st, err = nil, nil, guard.FromPanic("clip", -1, guard.NoPair, r)
		}
	}()
	res, err := e.Clip(ctx, subject, clip, op, opt)
	return res.Polygon, res.Stats, err
}

// ClipAllCtx computes op over every polygon of polys — Union is the GIS
// dissolve; Intersection and Xor, being associative too, also fold a set —
// with the paper's Fig. 6 reduction tree: the operands sit at the leaves of
// a complete binary tree, each internal node clips its two children, and
// every level's clips run concurrently, O(log n) rounds in all. Each
// operand is validated (an error wrapping ErrInvalidInput names its index)
// and repaired once, and every pair clip runs ClipCtx's fallback chain with
// the same Options. Difference is not associative and returns an error
// wrapping ErrUnsupported. nil in gives nil out.
//
// Engine output is canonical (counter-clockwise outers, clockwise holes),
// which EvenOdd, NonZero and Positive all read as its own region, so the
// upper levels clip under the caller's rule. Negative reads a
// counter-clockwise ring as outside; it is Positive on reversed rings, so
// under Negative every operand is reversed once and the tree runs under
// Positive.
//
// A pair whose chain fails returns its error, a cancelled ctx returns
// ctx.Err(), and a panic outside the pair clips returns a *ClipError naming
// the "clip-all" stage.
func ClipAllCtx(ctx context.Context, polys []Polygon, op Op, opt Options) (out Polygon, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if op == Difference {
		return nil, fmt.Errorf("difference of a polygon set: %w", ErrUnsupported)
	}
	if err := checkOptions(opt); err != nil {
		return nil, err
	}
	ops := make([]Polygon, len(polys))
	for i, p := range polys {
		if err := guard.Validate(p); err != nil {
			return nil, fmt.Errorf("operand %d: %w", i, err)
		}
		ops[i], _ = guard.Repair(p)
		if opt.Rule == Negative {
			ops[i] = reversed(ops[i])
		}
	}
	if opt.Rule == Negative {
		opt.Rule = Positive
	}
	if len(ops) == 1 {
		// A lone operand's region is its union with nothing: the chain
		// returns it in canonical form, as every larger set comes back.
		ops, op = append(ops, nil), Union
	}
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, guard.FromPanic("clip-all", -1, guard.NoPair, r)
		}
	}()
	return core.ReduceTree(ops, opt.Threads, func(a, b Polygon) (Polygon, error) {
		out, _, err := clipChain(ctx, a, b, op, opt, false)
		return out, err
	})
}

// reversed returns p with the direction of every ring reversed, leaving p
// untouched.
func reversed(p Polygon) Polygon {
	out := make(Polygon, len(p))
	for i, r := range p {
		out[i] = slices.Clone(r)
		out[i].Reverse()
	}
	return out
}

// OverlayLayersMergedCtx is OverlayLayersMerged through the hardened
// pipeline (see ClipCtx): each layer is fused into one even-odd region and
// the regions are clipped with validation, repair, panic isolation,
// cancellation and the differential-fallback chain. It always runs
// AlgoSlabs, the paper's splitting variant, whatever Options.Algorithm
// says.
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

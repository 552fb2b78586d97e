package core

import (
	"context"

	"polyclip/internal/arrange"
	"polyclip/internal/engine"
	"polyclip/internal/geom"
	"polyclip/internal/vatti"
)

// normalizePairRule reduces both operands to the simple polygons covering
// their rule-regions: a winding-aware union of each operand against
// nothing. The result's point set is identical under every fill rule, so
// the even-odd slab pipeline downstream computes the winding-rule answer
// exactly, and the union's merge returns the region's own boundary — the
// resolved operand's vertices, not the sides its beam lines cut — so the
// slab host sweeps operands of the input's size. EvenOdd operands pass
// through untouched — the slab pipeline handles them natively.
//
// The operands are first resolved jointly onto the pair's shared snap grid,
// and each union sweep runs on that joint arrangement as it stands
// (vatti.Clip with PreResolved). Resolving each operand in isolation would pick a
// grid from that operand's own extent; when the extents differ by many
// orders of magnitude the lone-operand arrangement diverges from the pair
// arrangement every other engine sweeps, and the slab result drifts
// outside the cross-engine agreement tolerance.
func normalizePairRule(a, b geom.Polygon, rule engine.FillRule) (geom.Polygon, geom.Polygon) {
	if rule == engine.EvenOdd {
		return a, b
	}
	ra, rb := arrange.ResolvePairRule(a, b, rule)
	opt := engine.Options{Rule: rule, PreResolved: true}
	return vatti.Clip(ra, nil, engine.Union, opt), vatti.Clip(rb, nil, engine.Union, opt)
}

// slabsEngine adapts the multi-threaded Algorithm 2 slab decomposition
// (ClipPairCtx) to the engine registry. Its workers host overlay per slab; it
// never hosts itself — a slab hosting slabs would recurse.
type slabsEngine struct{}

func (slabsEngine) Name() string { return "slabs" }

// Clip runs the slab decomposition. The per-slab clipper (bandclip chain
// pairing) is inherently parity-based, so winding rules are handled by
// normalizing each operand to its rule-region first (see normalizePairRule)
// — after which the even-odd slab pipeline is exact for the requested rule.
func (slabsEngine) Clip(ctx context.Context, a, b geom.Polygon, op engine.Op, opt engine.Options) (engine.Result, error) {
	if err := engine.CheckRule(opt.Rule); err != nil {
		return engine.Result{}, err
	}
	a, b = normalizePairRule(a, b, opt.Rule)
	out, st, err := ClipPairCtx(ctx, a, b, op, Options{
		Threads: opt.Threads, Slabs: opt.Slabs, NoFallback: opt.NoFallback,
	})
	return engine.Result{Polygon: out, Stats: st}, err
}

// scanbeamEngine adapts the CREW PRAM Algorithm 1 realization
// (AlgorithmOneRuleCtx) to the engine registry.
type scanbeamEngine struct{}

func (scanbeamEngine) Name() string { return "scanbeam" }

func (scanbeamEngine) Clip(ctx context.Context, a, b geom.Polygon, op engine.Op, opt engine.Options) (engine.Result, error) {
	if err := engine.CheckRule(opt.Rule); err != nil {
		return engine.Result{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	out, _ := AlgorithmOneRuleCtx(ctx, a, b, op, opt.Rule, opt.Threads)
	if err := ctx.Err(); err != nil {
		return engine.Result{}, err
	}
	return engine.Result{Polygon: out}, nil
}

func init() {
	engine.Register(slabsEngine{})
	engine.Register(scanbeamEngine{})
}

package core

import (
	"context"

	"polyclip/internal/engine"
	"polyclip/internal/geom"
)

// slabsEngine adapts the multi-threaded Algorithm 2 slab decomposition
// (ClipPairCtx) to the engine registry. Its workers host overlay per slab; it
// never hosts itself — a slab hosting slabs would recurse.
type slabsEngine struct{}

func (slabsEngine) Name() string { return "slabs" }

// Clip runs the slab decomposition under opt.Rule: every slab host sweeps
// its piece under the rule, because the band clip keeps the winding number
// of every point inside its band. A pair whose result is empty under the
// rule costs its resolve and the host's arrange.EmptyResult test.
func (slabsEngine) Clip(ctx context.Context, a, b geom.Polygon, op engine.Op, opt engine.Options) (engine.Result, error) {
	if err := engine.CheckRule(opt.Rule); err != nil {
		return engine.Result{}, err
	}
	out, st, err := ClipPairCtx(ctx, a, b, op, Options{
		Threads: opt.Threads, Slabs: opt.Slabs, Rule: opt.Rule, NoFallback: opt.NoFallback,
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

package vatti

import (
	"context"

	"polyclip/internal/engine"
	"polyclip/internal/geom"
)

// clipEngine adapts the sequential scanbeam sweep to the engine registry:
// the differential reference (engine.Reference). Its trapezoid output is
// the package function Trapezoids.
type clipEngine struct{}

func (clipEngine) Name() string { return "vatti" }

func (clipEngine) Clip(ctx context.Context, a, b geom.Polygon, op engine.Op, opt engine.Options) (engine.Result, error) {
	if err := engine.CheckRule(opt.Rule); err != nil {
		return engine.Result{}, err
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return engine.Result{}, err
		}
	}
	return engine.Result{Polygon: Clip(a, b, op, opt)}, nil
}

func init() { engine.Register(clipEngine{}) }

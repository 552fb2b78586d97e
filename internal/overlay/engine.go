package overlay

import (
	"context"

	"polyclip/internal/engine"
	"polyclip/internal/geom"
)

// clipEngine adapts the overlay pipeline to the engine registry: the default
// strategy. The classification stage carries signed winding counts, so all
// four fill rules run natively.
type clipEngine struct{}

func (clipEngine) Name() string { return "overlay" }

func (clipEngine) Clip(ctx context.Context, a, b geom.Polygon, op engine.Op, opt engine.Options) (engine.Result, error) {
	if err := engine.CheckRule(opt.Rule); err != nil {
		return engine.Result{}, err
	}
	out, err := Clip(ctx, a, b, op, opt)
	return engine.Result{Polygon: out}, err
}

func init() { engine.Register(clipEngine{}) }

package overlay

import (
	"context"
	"errors"
	"math"
	"testing"

	"polyclip/internal/engine"
	"polyclip/internal/geom"
)

func manyGon(cx, cy, r float64, n int) geom.Polygon {
	rg := make(geom.Ring, n)
	for i := 0; i < n; i++ {
		a := 2 * math.Pi * float64(i) / float64(n)
		rg[i] = geom.Point{X: cx + r*math.Cos(a), Y: cy + r*math.Sin(a)}
	}
	return geom.Polygon{rg}
}

func TestClipCtxCancelledReturnsError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := manyGon(0, 0, 10, 512)
	b := manyGon(1, 1, 10, 512)
	out, err := Clip(ctx, a, b, engine.Intersection, engine.Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatalf("partial result returned: %d rings", len(out))
	}
}

func TestClipCtxNilContext(t *testing.T) {
	a := manyGon(0, 0, 10, 64)
	b := manyGon(1, 1, 10, 64)
	out, err := Clip(nil, a, b, engine.Intersection, engine.Options{}) //nolint:staticcheck // nil ctx tolerance is part of the contract
	if err != nil {
		t.Fatalf("nil ctx: %v", err)
	}
	want := clipPoly(a, b, engine.Intersection, engine.Options{}).Area()
	if got := out.Area(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("area %g, want %g", got, want)
	}
}

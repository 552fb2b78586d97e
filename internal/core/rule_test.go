package core

import (
	"context"
	"math"
	"runtime"
	"testing"

	"polyclip/internal/data"
	"polyclip/internal/engine"
	"polyclip/internal/geom"
	"polyclip/internal/overlay"
)

// TestClipPairRule: every slab host sweeps its band-clipped piece under
// Options.Rule, so the slab decomposition's area must equal overlay's under
// every rule and op, whether the pair stays whole (Slabs 1) or is cut into
// 3 or 8 slabs. The inputs wind beyond ±1: a star listed twice, the
// self-intersecting star pair and a ring around a same-direction inner
// ring.
func TestClipPairRule(t *testing.T) {
	star := geom.Star(geom.Point{X: 1, Y: 2}, 10, 4, 9, 0.3)
	doubled := geom.Polygon{star, star.Clone()}
	nested := geom.Polygon{geom.Rect(-6, -6, 8, 8), geom.Rect(-2, -3, 5, 4)}
	sa, sb := data.SelfIntersectingPair(3, 101)
	pairs := map[string][2]geom.Polygon{
		"doubled star x nested rings":      {doubled, nested},
		"self-intersecting pair":           {sa, sb},
		"nested rings x self-intersecting": {nested, sb},
		"self-intersecting x doubled star": {sa, doubled},
	}
	for name, pr := range pairs {
		for _, rule := range engine.Rules() {
			for _, op := range engine.Ops() {
				ref, err := overlay.Clip(context.Background(), pr[0], pr[1], op, engine.Options{Threads: 1, Rule: rule})
				if err != nil {
					t.Fatal(err)
				}
				want := ref.Area()
				for _, slabs := range []int{1, 3, 8} {
					got, st := clipPair(t, pr[0], pr[1], op, Options{Threads: 2, Slabs: slabs, Rule: rule, NoFallback: true})
					if a := got.Area(); math.Abs(a-want) > 1e-9*(1+want) {
						t.Errorf("%s %v %v slabs %d (%d cut): area %.12g, overlay %.12g", name, rule, op, slabs, st.Slabs, a, want)
					}
				}
			}
		}
	}
}

// TestSlabsStarPairMemory holds the slabs engine's clip of the 4,096-edge
// star pair (two 2,048-vertex stars of inner radius 0.01, the second turned
// by half a spike) to 64 MiB allocated under each winding rule. The slabs
// engine no longer unions each operand with vatti first, whose trapezoids
// grow with the scanbeam population k'.
func TestSlabsStarPairMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("clips a 4,096-edge pair three times")
	}
	a := geom.Polygon{geom.Star(geom.Point{}, 1, 0.01, 1024, 0)}
	b := geom.Polygon{geom.Star(geom.Point{}, 1, 0.01, 1024, math.Pi/2048)}
	slabs := engine.MustGet("slabs")
	const limit = 64 << 20
	for _, rule := range []engine.FillRule{engine.NonZero, engine.Positive, engine.Negative} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := slabs.Clip(context.Background(), a, b, engine.Intersection, engine.Options{Threads: 1, Rule: rule, NoFallback: true})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("%v: %.1f MiB allocated, area %g", rule, float64(alloc)/(1<<20), res.Polygon.Area())
		if alloc > limit {
			t.Errorf("%v: %.1f MiB allocated, want at most 64 MiB", rule, float64(alloc)/(1<<20))
		}
	}
}

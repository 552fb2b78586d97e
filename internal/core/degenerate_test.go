package core

import (
	"context"
	"math"
	"testing"

	"polyclip/internal/engine"
	"polyclip/internal/geom"
)

func TestPruneThinSlabs(t *testing.T) {
	// A boundary that would leave a slab thinner than two snap cells is
	// dropped; the survivors keep their exact (event-aligned) values.
	b := pruneThinSlabs([]float64{0, 1, 10}, 2)
	if len(b) != 2 || b[0] != 0 || b[1] != 10 {
		t.Errorf("bounds = %v, want [0 10]", b)
	}
	b = pruneThinSlabs([]float64{0, 9.6, 10}, 2)
	if len(b) != 2 {
		t.Errorf("bounds = %v, want [0 10]", b)
	}
	// Two boundaries closer than two cells keep only the first.
	b = pruneThinSlabs([]float64{0, 4.1, 6.3, 10}, 2)
	if len(b) != 3 || b[1] != 4.1 {
		t.Errorf("bounds = %v, want [0 4.1 10]", b)
	}
	// Well-separated boundaries are never moved.
	b = pruneThinSlabs([]float64{0, 3.67, 7, 10}, 1e-9)
	if len(b) != 4 || b[1] != 3.67 || b[2] != 7 {
		t.Errorf("bounds = %v, want [0 3.67 7 10]", b)
	}
	// eps <= 0 and trivial inputs pass through.
	b = pruneThinSlabs([]float64{0, 1, 10}, 0)
	if len(b) != 3 || b[1] != 1 {
		t.Errorf("bounds = %v, want [0 1 10]", b)
	}
}

// TestSlabsSubEpsEventY pins the slab cut against the pair snap grid: a
// degenerate sliver operand contributes an event y one unit above the slab
// floor while the pair grid (sized by the 2e12 extent) is two units coarse.
// An unsnapped cut at y=1 makes each slab host round its sub-cell strip
// differently and the merged union overshoots by ~10%.
func TestSlabsSubEpsEventY(t *testing.T) {
	sliver := geom.Polygon{{{X: 0, Y: 0}, {X: 0, Y: 0}, {X: 0, Y: 1}}}
	tri := geom.Polygon{{{X: 0, Y: 0}, {X: 2e12, Y: 0}, {X: 0, Y: 10}}}
	want := 1e13 // the triangle: the sliver has zero area
	for _, threads := range []int{1, 2, 4} {
		out, _, err := ClipPairCtx(context.Background(), sliver, tri, engine.Union,
			Options{Threads: threads, NoFallback: true})
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if got := out.Area(); math.Abs(got-want) > 1e-6*want {
			t.Errorf("threads=%d: union area = %g, want %g", threads, got, want)
		}
	}
}

// TestSlabsWindingMixedExtent pins the winding-rule operand normalization
// onto the pair snap grid: resolving an operand in its own extent context
// picks a different grid than the pair arrangement every other engine
// sweeps, and the slab result drifts (a 2e12-wide sliver clip against unit
// cells moved the positive-rule difference from 3 to 8).
func TestSlabsWindingMixedExtent(t *testing.T) {
	cells := geom.Polygon{
		{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: 1}},
		{{X: 1, Y: 1}, {X: 2, Y: 1}, {X: 2, Y: 2}, {X: 1, Y: 2}},
		{{X: 2, Y: 0}, {X: 3, Y: 0}, {X: 3, Y: 1}, {X: 2, Y: 1}},
	}
	sliver := geom.Polygon{{{X: 0, Y: 0}, {X: 2e12, Y: 0}, {X: 0, Y: 1e-10}}}
	for _, rule := range []engine.FillRule{engine.NonZero, engine.Positive, engine.Negative} {
		for _, op := range []engine.Op{engine.Intersection, engine.Union, engine.Difference, engine.Xor} {
			var slabs, overlay float64
			for _, e := range engine.All() {
				res, err := e.Clip(context.Background(), cells, sliver, op,
					engine.Options{Threads: 2, Rule: rule, NoFallback: true})
				if err != nil {
					t.Fatalf("%s %v %v: %v", e.Name(), rule, op, err)
				}
				switch e.Name() {
				case "slabs":
					slabs = res.Polygon.Area()
				case "overlay":
					overlay = res.Polygon.Area()
				}
			}
			if math.Abs(slabs-overlay) > 1e-6*(1+overlay) {
				t.Errorf("%v %v: slabs area %g, overlay area %g", rule, op, slabs, overlay)
			}
		}
	}
}

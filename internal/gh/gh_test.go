package gh

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"polyclip/internal/engine"
	"polyclip/internal/geom"
	"polyclip/internal/overlay"
)

func area(p geom.Polygon) float64 {
	var s float64
	for _, r := range p {
		s += math.Abs(r.SignedArea())
	}
	return s
}

func TestRectRectIntersection(t *testing.T) {
	// Offset slightly so crossings are proper (GH's contract excludes
	// vertex-on-edge degeneracies).
	a := geom.Rect(0, 0, 4, 4)
	b := geom.Rect(2.1, 2.1, 6.1, 6.1)
	got := Clip(a, b, engine.Intersection)
	want := 1.9 * 1.9
	if g := area(got); math.Abs(g-want) > 1e-9 {
		t.Errorf("area = %v, want %v", g, want)
	}
}

func TestRectRectUnionAndDifference(t *testing.T) {
	a := geom.Rect(0, 0, 4, 4)
	b := geom.Rect(2.1, 2.1, 6.1, 6.1)
	inter := 1.9 * 1.9
	if g := area(Clip(a, b, engine.Union)); math.Abs(g-(32-inter)) > 1e-9 {
		t.Errorf("union area = %v, want %v", g, 32-inter)
	}
	if g := area(Clip(a, b, engine.Difference)); math.Abs(g-(16-inter)) > 1e-9 {
		t.Errorf("difference area = %v, want %v", g, 16-inter)
	}
}

func TestContainment(t *testing.T) {
	outer := geom.Rect(0, 0, 10, 10)
	inner := geom.Rect(3, 3, 7, 7)
	if g := area(Clip(outer, inner, engine.Intersection)); math.Abs(g-16) > 1e-9 {
		t.Errorf("contained ∩ = %v", g)
	}
	if g := area(Clip(outer, inner, engine.Union)); math.Abs(g-100) > 1e-9 {
		t.Errorf("contained ∪ = %v", g)
	}
	got := Clip(outer, inner, engine.Difference)
	var net float64
	for _, r := range got {
		net += r.SignedArea()
	}
	if math.Abs(net-84) > 1e-9 {
		t.Errorf("contained − net area = %v, want 84 (hole)", net)
	}
	// Subject inside clip.
	if got := Clip(inner, outer, engine.Difference); got != nil {
		t.Errorf("inner−outer = %v", got)
	}
	if g := area(Clip(inner, outer, engine.Intersection)); math.Abs(g-16) > 1e-9 {
		t.Error("inner∩outer should be inner")
	}
}

func TestDisjoint(t *testing.T) {
	a := geom.Rect(0, 0, 1, 1)
	b := geom.Rect(5, 5, 6, 6)
	if got := Clip(a, b, engine.Intersection); got != nil {
		t.Errorf("disjoint ∩ = %v", got)
	}
	if g := area(Clip(a, b, engine.Union)); math.Abs(g-2) > 1e-12 {
		t.Error("disjoint ∪")
	}
	if g := area(Clip(a, b, engine.Difference)); math.Abs(g-1) > 1e-12 {
		t.Error("disjoint −")
	}
}

func TestDegenerateInputs(t *testing.T) {
	a := geom.Rect(0, 0, 1, 1)
	if got := Clip(a, nil, engine.Intersection); got != nil {
		t.Errorf("a∩∅ = %v", got)
	}
	if g := area(Clip(a, nil, engine.Union)); g != 1 {
		t.Errorf("a∪∅ area = %v", g)
	}
	if g := area(Clip(nil, a, engine.Union)); g != 1 {
		t.Errorf("∅∪a area = %v", g)
	}
	if got := Clip(nil, a, engine.Difference); got != nil {
		t.Errorf("∅−a = %v", got)
	}
}

func TestRectangleClipUseCase(t *testing.T) {
	// The paper's Algorithm 2 use: clip arbitrary simple polygons against a
	// slab rectangle. Cross-validate against the overlay engine.
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 20; trial++ {
		poly := geom.RegularPolygon(
			geom.Point{X: rng.Float64()*4 - 2, Y: rng.Float64()*4 - 2},
			1.5+rng.Float64()*2, 5+rng.Intn(9), rng.Float64())
		rect := geom.Rect(-1.83, -0.97, 1.79, 1.03)
		got := Clip(poly, rect, engine.Intersection)
		want, _ := overlay.Clip(context.Background(), geom.Polygon{poly}, geom.Polygon{rect}, engine.Intersection, engine.Options{})
		if math.Abs(area(got)-want.Area()) > 1e-6*(1+want.Area()) {
			t.Errorf("trial %d: gh=%v overlay=%v", trial, area(got), want.Area())
		}
	}
}

func TestConcaveAgainstOverlay(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 15; trial++ {
		a := geom.Star(geom.Point{X: rng.Float64(), Y: rng.Float64()}, 3, 1.2, 5+rng.Intn(5), rng.Float64())
		b := geom.Star(geom.Point{X: 0.7 + rng.Float64(), Y: rng.Float64() - 0.3}, 3, 1.2, 5+rng.Intn(5), rng.Float64())
		for _, op := range []engine.Op{engine.Intersection, engine.Union, engine.Difference} {
			got := Clip(a, b, op)
			want, _ := overlay.Clip(context.Background(), geom.Polygon{a}, geom.Polygon{b}, op, engine.Options{})
			// Compare net signed area (GH emits holes CW in difference).
			var gnet float64
			for _, r := range got {
				gnet += math.Abs(r.SignedArea())
			}
			// Union holes: compare |sum| instead for robustness.
			if math.Abs(gnet-want.Area()) > 1e-6*(1+want.Area()) {
				t.Errorf("trial %d %d: gh=%v overlay=%v", trial, op, gnet, want.Area())
			}
		}
	}
}

package guard

import (
	"errors"
	"math"
	"testing"

	"polyclip/internal/engine"
	"polyclip/internal/geom"
)

func rect(x0, y0, x1, y1 float64) geom.Polygon {
	return geom.Polygon{{{X: x0, Y: y0}, {X: x1, Y: y0}, {X: x1, Y: y1}, {X: x0, Y: y1}}}
}

func TestValidate(t *testing.T) {
	if err := Validate(rect(0, 0, 4, 4)); err != nil {
		t.Fatalf("clean rect: %v", err)
	}
	if err := Validate(nil); err != nil {
		t.Fatalf("empty polygon: %v", err)
	}
	cases := map[string]geom.Polygon{
		"nan":      {{{X: math.NaN(), Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}}},
		"inf":      {{{X: 0, Y: 0}, {X: math.Inf(1), Y: 0}, {X: 1, Y: 1}}},
		"neg-inf":  {{{X: 0, Y: 0}, {X: 1, Y: math.Inf(-1)}, {X: 1, Y: 1}}},
		"overflow": {{{X: 0, Y: 0}, {X: 2 * MaxCoord, Y: 0}, {X: 1, Y: 1}}},
	}
	for name, p := range cases {
		err := Validate(p)
		if err == nil {
			t.Errorf("%s: want error, got nil", name)
			continue
		}
		if !errors.Is(err, ErrInvalidInput) {
			t.Errorf("%s: error %v does not wrap ErrInvalidInput", name, err)
		}
	}
}

func TestRepair(t *testing.T) {
	t.Run("clean input untouched", func(t *testing.T) {
		p := rect(0, 0, 4, 4)
		out, rep := Repair(p)
		if rep.Changed() {
			t.Fatalf("clean rect reported changed: %+v", rep)
		}
		if &out[0][0] != &p[0][0] {
			t.Fatal("clean rect was copied")
		}
	})
	t.Run("duplicates", func(t *testing.T) {
		p := geom.Polygon{{{X: 0, Y: 0}, {X: 0, Y: 0}, {X: 4, Y: 0}, {X: 4, Y: 4}, {X: 0, Y: 4}, {X: 0, Y: 4}}}
		out, rep := Repair(p)
		if rep.DedupedVertices == 0 {
			t.Fatalf("no dedup reported: %+v", rep)
		}
		if len(out[0]) != 4 {
			t.Fatalf("want 4 vertices, got %d: %v", len(out[0]), out[0])
		}
	})
	t.Run("closing duplicate", func(t *testing.T) {
		// Explicitly closed ring: last vertex repeats the first.
		p := geom.Polygon{{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 4, Y: 4}, {X: 0, Y: 4}, {X: 0, Y: 0}}}
		out, rep := Repair(p)
		if !rep.Changed() || len(out[0]) != 4 {
			t.Fatalf("closing duplicate not removed: %v (%+v)", out, rep)
		}
	})
	t.Run("spike", func(t *testing.T) {
		// (4,0) -> (6,0) -> (4,0) is a zero-area spike.
		p := geom.Polygon{{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 6, Y: 0}, {X: 4, Y: 0}, {X: 4, Y: 4}, {X: 0, Y: 4}}}
		out, rep := Repair(p)
		if rep.Spikes == 0 {
			t.Fatalf("no spike reported: %+v", rep)
		}
		if len(out[0]) != 4 {
			t.Fatalf("want 4 vertices after spike removal, got %v", out[0])
		}
	})
	t.Run("degenerate ring dropped", func(t *testing.T) {
		p := geom.Polygon{
			{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 4, Y: 4}, {X: 0, Y: 4}},
			{{X: 9, Y: 9}, {X: 9, Y: 9}, {X: 9, Y: 9}},
		}
		out, rep := Repair(p)
		if rep.DroppedRings != 1 || len(out) != 1 {
			t.Fatalf("degenerate ring not dropped: %v (%+v)", out, rep)
		}
	})
}

func TestAudit(t *testing.T) {
	r := rect(0, 0, 2, 2) // area 4
	if err := Audit(r, 4, 16, engine.Intersection); err != nil {
		t.Fatalf("valid intersection flagged: %v", err)
	}
	// Intersection result cannot exceed the smaller input area.
	if err := Audit(rect(0, 0, 10, 10), 4, 16, engine.Intersection); err == nil {
		t.Fatal("oversized intersection passed audit")
	}
	// Difference result cannot exceed the subject area.
	if err := Audit(rect(0, 0, 10, 10), 4, 16, engine.Difference); err == nil {
		t.Fatal("oversized difference passed audit")
	}
	// Union may reach the sum of the inputs.
	if err := Audit(rect(0, 0, 4, 5), 4, 16, engine.Union); err != nil {
		t.Fatalf("valid union flagged: %v", err)
	}
	// Non-finite result coordinates fail regardless of area.
	bad := geom.Polygon{{{X: 0, Y: 0}, {X: math.NaN(), Y: 0}, {X: 1, Y: 1}}}
	if err := Audit(bad, 4, 16, engine.Union); err == nil {
		t.Fatal("non-finite result passed audit")
	}
	// A ring below three vertices fails.
	if err := Audit(geom.Polygon{{{X: 0, Y: 0}, {X: 1, Y: 1}}}, 4, 16, engine.Union); err == nil {
		t.Fatal("two-vertex ring passed audit")
	}
}

func TestAuditDifferential(t *testing.T) {
	r := rect(0, 0, 2, 2) // area 4
	if err := AuditDifferential(r, 4, 20); err != nil {
		t.Fatalf("exact agreement flagged: %v", err)
	}
	// Disagreement within DiffTol of the scale passes.
	if err := AuditDifferential(r, 4+0.5*DiffTol*20, 20); err != nil {
		t.Fatalf("in-tolerance agreement flagged: %v", err)
	}
	// Disagreement beyond tolerance fails.
	if err := AuditDifferential(r, 4.01, 20); err == nil {
		t.Fatal("out-of-tolerance disagreement passed")
	}
	// The tolerance is relative to the larger of scale and the areas, so a
	// tiny scale does not make agreement at large areas impossible.
	if err := AuditDifferential(r, 4*(1+0.5*DiffTol), 0); err != nil {
		t.Fatalf("relative tolerance did not track the areas: %v", err)
	}
	// A NaN reference area never agrees.
	if err := AuditDifferential(r, math.NaN(), 20); err == nil {
		t.Fatal("NaN reference passed")
	}
}

func TestFaultInjection(t *testing.T) {
	defer ClearFaults()

	t.Run("hit fires and clears", func(t *testing.T) {
		n := 0
		InjectFault("site.a", func() { n++ })
		Hit("site.a")
		Hit("site.a")
		ClearFault("site.a")
		Hit("site.a")
		if n != 2 {
			t.Fatalf("want 2 firings, got %d", n)
		}
	})
	t.Run("unregistered site is a no-op", func(t *testing.T) {
		Hit("site.unknown")
		p := rect(0, 0, 1, 1)
		if got := HitPoly("site.unknown", p); &got[0][0] != &p[0][0] {
			t.Fatal("HitPoly copied the polygon with no fault registered")
		}
	})
	t.Run("hitpoly transforms", func(t *testing.T) {
		InjectFault("site.b", func(p geom.Polygon) geom.Polygon { return nil })
		defer ClearFault("site.b")
		if got := HitPoly("site.b", rect(0, 0, 1, 1)); got != nil {
			t.Fatalf("transformer not applied: %v", got)
		}
	})
	t.Run("once", func(t *testing.T) {
		n := 0
		f := Once(func() { n++ })
		f()
		f()
		if n != 1 {
			t.Fatalf("Once fired %d times", n)
		}
	})
}

func TestWithFault(t *testing.T) {
	n := 0
	t.Run("scoped", func(t *testing.T) {
		WithFault(t, "site.withfault", func() { n++ })
		Hit("site.withfault")
	})
	// The subtest finished, so its cleanup must have cleared the site.
	Hit("site.withfault")
	if n != 1 {
		t.Fatalf("fault fired %d times, want 1 (WithFault cleanup must clear the site)", n)
	}
}

func TestFromPanic(t *testing.T) {
	ce := FromPanic("slab-clip", 2, NoPair, "boom")
	if ce.Stage != "slab-clip" || ce.Slab != 2 || ce.Value != "boom" {
		t.Fatalf("bad attribution: %+v", ce)
	}
	if len(ce.Stack) == 0 {
		t.Fatal("no stack captured")
	}
	// An error panic value is exposed through Unwrap.
	sentinel := errors.New("sentinel")
	ce = FromPanic("clip", -1, NoPair, sentinel)
	if !errors.Is(ce, sentinel) {
		t.Fatal("wrapped error not reachable via errors.Is")
	}
	// A *ClipError passes through, keeping the deepest attribution.
	inner := FromPanic("pair-clip", -1, [2]int{3, 7}, "inner")
	outer := FromPanic("clip", -1, NoPair, inner)
	if outer != inner {
		t.Fatal("nested ClipError was re-wrapped")
	}
}

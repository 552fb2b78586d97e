package polyclip

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"polyclip/internal/guard"
)

func TestOverlayBatchCtx(t *testing.T) {
	a := strings.NewReader("POLYGON ((0 0, 4 0, 4 4, 0 4))\nPOLYGON ((10 10, 12 10, 12 12, 10 12))\n")
	b := strings.NewReader(`{"type":"FeatureCollection","features":[
		{"type":"Feature","geometry":{"type":"Polygon","coordinates":[[[2,2],[6,2],[6,6],[2,6],[2,2]]]}}]}`)
	outs, st, err := OverlayBatchCtx(context.Background(), a, b, Intersection, BatchOptions{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || outs[0].A != 0 || outs[0].B != 0 {
		t.Fatalf("outputs: %+v", outs)
	}
	if area := outs[0].Poly.Area(); area < 3.99 || area > 4.01 {
		t.Fatalf("area %v, want 4", area)
	}
	if st.FeaturesA != 2 || st.FeaturesB != 1 || st.CandidatePairs != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestOverlayBatchCtxBadInput(t *testing.T) {
	b := strings.NewReader("POLYGON ((0 0, 1 0, 1 1))\n")
	if _, _, err := OverlayBatchCtx(context.Background(),
		strings.NewReader("POLYGON ((nope))\n"), b, Intersection, BatchOptions{}); err == nil {
		t.Fatal("bad WKT accepted")
	}
}

// TestOverlayBatchLayersCtxMatchesClipCtx holds every batch output to the
// hardened single-pair path on the same pair.
func TestOverlayBatchLayersCtxMatchesClipCtx(t *testing.T) {
	a := Layer{rect(0, 0, 4, 4), rect(8, 8, 12, 12)}
	b := Layer{rect(2, 2, 6, 6), rect(9, 9, 11, 11)}
	outs, _, err := OverlayBatchLayersCtx(context.Background(), a, b, Intersection, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 {
		t.Fatalf("%d outputs, want 2", len(outs))
	}
	for _, o := range outs {
		want, _, err := ClipCtx(context.Background(), a[o.A], b[o.B], Intersection, Options{Algorithm: AlgoSequential})
		if err != nil {
			t.Fatal(err)
		}
		if d := o.Poly.Area() - want.Area(); math.Abs(d) > 1e-9 {
			t.Fatalf("pair (%d,%d): area %v, ClipCtx %v", o.A, o.B, o.Poly.Area(), want.Area())
		}
	}
}

// TestOverlayBatchInputContract: every feature is validated and repaired
// before any pair is clipped, like ClipCtx's operands.
func TestOverlayBatchInputContract(t *testing.T) {
	frame := Layer{rect(-1, -1, 7, 7), rect(20, 20, 21, 21)}
	for name, bad := range map[string]Polygon{
		"NaN":   {{{X: 0, Y: 0}, {X: math.NaN(), Y: 0}, {X: 1, Y: 1}}},
		"+Inf":  {{{X: 0, Y: 0}, {X: math.Inf(1), Y: 0}, {X: 1, Y: 1}}},
		"1e200": rect(0, 0, 4e200, 4e200),
	} {
		l := Layer{rect(0, 0, 1, 1), bad}
		_, _, err := OverlayBatchLayersCtx(context.Background(), frame, l, Intersection, BatchOptions{})
		if !errors.Is(err, ErrInvalidInput) || !strings.Contains(err.Error(), "layer b feature 1") {
			t.Errorf("%s feature: error %v, want ErrInvalidInput naming layer b feature 1", name, err)
		}
	}

	dup := Polygon{{{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 2, Y: 0}, {X: 2, Y: 2}, {X: 0, Y: 2}}}
	spike := Polygon{{{X: 3, Y: 0}, {X: 5, Y: 0}, {X: 6, Y: 0}, {X: 5, Y: 0}, {X: 5, Y: 2}, {X: 3, Y: 2}}}
	outs, st, err := OverlayBatchLayersCtx(context.Background(), Layer{dup, spike}, frame, Intersection, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Repaired != 2 || len(outs) != 2 {
		t.Fatalf("%d features repaired, %d outputs; want 2 and 2", st.Repaired, len(outs))
	}
	for _, o := range outs {
		if math.Abs(o.Poly.Area()-4) > 1e-9 {
			t.Fatalf("repaired feature %d: area %v, want 4", o.A, o.Poly.Area())
		}
	}

	// Two same-direction squares in one feature: NonZero fills their
	// overlap, EvenOdd leaves it a hole.
	twoSquares := Layer{append(rect(0, 0, 4, 4), rect(2, 2, 6, 6)...)}
	for rule, want := range map[FillRule]float64{NonZero: 28, EvenOdd: 24} {
		outs, _, err := OverlayBatchLayersCtx(context.Background(), twoSquares, frame, Intersection, BatchOptions{Rule: rule})
		if err != nil {
			t.Fatal(err)
		}
		if len(outs) != 1 || math.Abs(outs[0].Poly.Area()-want) > 1e-9 {
			t.Fatalf("%v: outputs %+v, want one of area %v", rule, outs, want)
		}
	}
}

// TestOverlayBatchWorkerPanic: a worker panic in the slab fan-out surfaces
// as a *ClipError naming the stage, not as a raw panic, and leaves nothing
// behind: the next call returns the full result.
func TestOverlayBatchWorkerPanic(t *testing.T) {
	a := Layer{rect(0, 0, 4, 4), rect(10, 0, 14, 4)}
	b := Layer{rect(2, 2, 6, 6), rect(12, 2, 16, 6)}
	guard.WithFault(t, "par.worker", guard.Once(func() { panic("worker crash") }))
	_, _, err := OverlayBatchLayersCtx(context.Background(), a, b, Intersection, BatchOptions{Threads: 1})
	var ce *ClipError
	if !errors.As(err, &ce) || ce.Stage != "batch-clip" {
		t.Fatalf("error %T (%v), want a *ClipError from stage batch-clip", err, err)
	}
	outs, _, err := OverlayBatchLayersCtx(context.Background(), a, b, Intersection, BatchOptions{Threads: 1})
	if err != nil || len(outs) != 2 {
		t.Fatalf("after the fault: %v, %d outputs; want 2", err, len(outs))
	}
}

package core

import (
	"context"
	"math"
	"testing"

	"polyclip/internal/data"
	"polyclip/internal/engine"
	"polyclip/internal/geom"
)

// TestClipLayersMergedCtx runs the merged-layer overlay through the
// cancellable entry point: both layers fused into one region each.
func TestClipLayersMergedCtx(t *testing.T) {
	la := Layer{geom.RectPolygon(0, 0, 2, 2), geom.RectPolygon(4, 0, 6, 2)}
	lb := Layer{geom.RectPolygon(1, 1, 5, 3)}
	got, _, err := ClipPairCtx(context.Background(), fuse(la), fuse(lb), engine.Intersection, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Each square overlaps the band in a 1x1 corner.
	if want := 2.0; math.Abs(got.Area()-want) > 1e-9 {
		t.Errorf("merged layer intersection area = %v, want %v", got.Area(), want)
	}
}

func TestAdaptiveSlabCount(t *testing.T) {
	cases := []struct {
		p, events, crossings, want int
	}{
		{0, 10000, 10000, 1}, // sequential always one slab
		{1, 10000, 10000, 1}, // sequential always one slab
		{4, 10, 0, 1},        // tiny input collapses to one slab
		{4, 100000, 0, 8},    // dense input clamps to 2p
		{-3, 100000, 100, 1}, // non-positive parallelism is sequential
		{8, 512, 512, 4},     // mid range: (events+crossings)/minSlabWork
		{8, 255, 0, 1},       // just under one work unit
		{2, 1024, 4096, 4},   // crossings alone can drive the count to 2p
	}
	for _, c := range cases {
		if got := adaptiveSlabCount(c.p, c.events, c.crossings); got != c.want {
			t.Errorf("adaptiveSlabCount(%d, %d, %d) = %d, want %d",
				c.p, c.events, c.crossings, got, c.want)
		}
	}
}

// TestAdaptiveSlabsDefault pins the Slabs==0 behaviour: the slab count is
// derived from the input (events + the pre-scan crossing estimate), the
// estimate is surfaced in Stats, and the result matches the sequential
// engine regardless of which count the heuristic picks.
func TestAdaptiveSlabsDefault(t *testing.T) {
	a := geom.Polygon{geom.Star(geom.Point{X: 0.5, Y: 0.5}, 5, 2, 64, 0.3)}
	b := geom.Polygon{geom.Star(geom.Point{X: 0.7, Y: 0.4}, 5, 2, 64, 0.6)}
	for _, op := range []engine.Op{engine.Intersection, engine.Union} {
		got, st, err := ClipPairCtx(context.Background(), a, b, op, Options{Threads: 4})
		if err != nil {
			t.Fatalf("op=%v: %v", op, err)
		}
		if st.CrossingEstimate <= 0 {
			t.Errorf("op=%v: crossing stars should report a positive estimate, got %d", op, st.CrossingEstimate)
		}
		if st.Slabs < 1 || st.Slabs > 8 {
			t.Errorf("op=%v: adaptive slab count %d outside [1, 2*Threads]", op, st.Slabs)
		}
		want := seqArea(a, b, op)
		if math.Abs(got.Area()-want) > 1e-6*(1+want) {
			t.Errorf("op=%v: got %v want %v (slabs=%d)", op, got.Area(), want, st.Slabs)
		}
	}

	// Disjoint small operands: the estimate floors at the consecutive-edge
	// vertex touches (8 for two squares) and the tiny work total keeps the
	// heuristic at a single slab, skipping partition and merge.
	a = geom.RectPolygon(0, 0, 1, 1)
	b = geom.RectPolygon(5, 5, 6, 6)
	_, st, err := ClipPairCtx(context.Background(), a, b, engine.Intersection, Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.CrossingEstimate >= minSlabWork {
		t.Errorf("disjoint pair: crossing estimate = %d, want a small touch-only count", st.CrossingEstimate)
	}
	if st.Slabs != 1 {
		t.Errorf("disjoint pair: slabs = %d, want 1", st.Slabs)
	}

	// An explicit Slabs pin still wins over the heuristic.
	_, st = clipPair(t, geom.RectPolygon(0, 0, 4, 4), geom.RectPolygon(2, 2, 6, 6), engine.Intersection,
		Options{Threads: 4, Slabs: 3})
	if st.Slabs != 3 {
		t.Errorf("pinned slabs: got %d, want 3", st.Slabs)
	}
}

// TestOneSlabSkipsSort: when the slab count is one before any event is
// sorted — Slabs 1, or Slabs unset at one thread — the host gets the whole
// pair and the sort stage never runs; the output matches the sorted path's.
func TestOneSlabSkipsSort(t *testing.T) {
	a, b := data.SyntheticPair(5, 512, 512)
	want := seqArea(a, b, engine.Xor)
	for _, opt := range []Options{{Threads: 1}, {Threads: 4, Slabs: 1}} {
		got, st := clipPair(t, a, b, engine.Xor, opt)
		if st.Sort != 0 || st.Slabs != 1 {
			t.Errorf("%+v: sort %v over %d slabs, want no sort and one slab", opt, st.Sort, st.Slabs)
		}
		if math.Abs(got.Area()-want) > 1e-6*(1+want) {
			t.Errorf("%+v: area %v, want %v", opt, got.Area(), want)
		}
	}
	// Threads 2 with Slabs unset still sorts, to count the events.
	if _, st := clipPair(t, a, b, engine.Xor, Options{Threads: 2}); st.Sort == 0 {
		t.Errorf("Threads 2: sort stage did not run")
	}
}

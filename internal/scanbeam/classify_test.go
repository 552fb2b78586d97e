package scanbeam

import (
	"cmp"
	"context"
	"slices"
	"testing"

	"polyclip/internal/arrange"
	"polyclip/internal/data"
	"polyclip/internal/geom"
)

// seg is a test segment from (x0, y0) to (x1, y1), directed as the ring
// walks it, of operand owner: its endpoints are put in (Lo, Hi) order and
// its winding contribution signed by Seg's convention.
func seg(owner int, x0, y0, x1, y1 float64) Seg {
	a, b := geom.Point{X: x0, Y: y0}, geom.Point{X: x1, Y: y1}
	var s Seg
	if b.Less(a) {
		s = Seg{Lo: b, Hi: a}
		s.Wind[owner] = 1
	} else {
		s = Seg{Lo: a, Hi: b}
		s.Wind[owner] = -1
	}
	return s
}

func TestClassify(t *testing.T) {
	type want struct {
		lo, hi geom.Point
		left   [2]int16
	}
	for _, tc := range []struct {
		name string
		segs []Seg
		want []want
	}{{
		// Counter-clockwise squares, the clip [1,3]² nested in the subject
		// [0,4]², in (Lo, Hi) order. The clip's bottom edge starts where
		// its left edge does: the inclusive count at x = 1 puts the strip
		// above it inside both operands. The subject's top edge lies on the
		// topmost y and keeps Left zero.
		name: "nested-squares",
		segs: []Seg{
			seg(0, 0, 0, 4, 0), seg(0, 0, 4, 0, 0), seg(0, 4, 0, 4, 4),
			seg(1, 1, 1, 3, 1), seg(1, 1, 3, 1, 1), seg(1, 3, 1, 3, 3),
			seg(1, 3, 3, 1, 3), seg(0, 4, 4, 0, 4),
		},
		want: []want{
			{geom.Point{X: 0, Y: 0}, geom.Point{X: 4, Y: 0}, [2]int16{1, 0}},
			{geom.Point{X: 0, Y: 0}, geom.Point{X: 0, Y: 4}, [2]int16{0, 0}},
			{geom.Point{X: 4, Y: 0}, geom.Point{X: 4, Y: 4}, [2]int16{1, 0}},
			{geom.Point{X: 1, Y: 1}, geom.Point{X: 3, Y: 1}, [2]int16{1, 1}},
			{geom.Point{X: 1, Y: 1}, geom.Point{X: 1, Y: 3}, [2]int16{1, 0}},
			{geom.Point{X: 3, Y: 1}, geom.Point{X: 3, Y: 3}, [2]int16{1, 1}},
			{geom.Point{X: 1, Y: 3}, geom.Point{X: 3, Y: 3}, [2]int16{1, 0}},
			{geom.Point{X: 0, Y: 4}, geom.Point{X: 4, Y: 4}, [2]int16{0, 0}},
		},
	}, {
		// A counter-clockwise right triangle: the vertical edge starts at
		// the horizontal's left end and counts toward it (a strict count
		// would leave the strip above the base outside); the diagonal,
		// through the right end at x = 2, does not.
		name: "triangle",
		segs: []Seg{seg(0, 0, 0, 2, 0), seg(0, 0, 2, 0, 0), seg(0, 2, 0, 0, 2)},
		want: []want{
			{geom.Point{X: 0, Y: 0}, geom.Point{X: 2, Y: 0}, [2]int16{1, 0}},
			{geom.Point{X: 0, Y: 0}, geom.Point{X: 0, Y: 2}, [2]int16{0, 0}},
			{geom.Point{X: 2, Y: 0}, geom.Point{X: 0, Y: 2}, [2]int16{1, 0}},
		},
	}, {
		// Horizontals only, all on the one y: there is no beam, and every
		// segment lies on the topmost boundary.
		name: "flat",
		segs: []Seg{seg(0, 0, 1, 2, 1), seg(1, 3, 1, 5, 1)},
		want: []want{
			{geom.Point{X: 0, Y: 1}, geom.Point{X: 2, Y: 1}, [2]int16{0, 0}},
			{geom.Point{X: 3, Y: 1}, geom.Point{X: 5, Y: 1}, [2]int16{0, 0}},
		},
	}} {
		Classify(context.Background(), tc.segs)
		if len(tc.segs) != len(tc.want) {
			t.Fatalf("%s: %d segments, want %d", tc.name, len(tc.segs), len(tc.want))
		}
		for i, w := range tc.want {
			s := tc.segs[i]
			if s.Lo != w.lo || s.Hi != w.hi {
				t.Fatalf("%s: segment %d is %v-%v, want %v-%v (not in (Lo, Hi) order)", tc.name, i, s.Lo, s.Hi, w.lo, w.hi)
			}
			if s.Left != w.left {
				t.Errorf("%s: segment %v-%v has Left %v, want %v", tc.name, s.Lo, s.Hi, s.Left, w.left)
			}
		}
	}

	Classify(context.Background(), nil)

	// A cancelled ctx stops the sweep at its first poll: no panic, and no
	// segment is labelled.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	segs := []Seg{seg(0, 0, 0, 2, 0), seg(0, 0, 2, 0, 0), seg(0, 2, 0, 0, 2)}
	Classify(ctx, segs)
	for _, s := range segs {
		if s.Left != [2]int16{} {
			t.Errorf("cancelled sweep labelled %v-%v with %v", s.Lo, s.Hi, s.Left)
		}
	}
}

// resolvedSegs returns the resolved arrangement of the pair as segments in
// (Lo, Hi) order, as overlay's fold returns them.
func resolvedSegs(a, b geom.Polygon) []Seg {
	ra, rb := arrange.ResolvePair(a, b)
	var segs []Seg
	for owner, p := range []geom.Polygon{ra, rb} {
		for _, e := range p.Edges() {
			segs = append(segs, seg(owner, e.A.X, e.A.Y, e.B.X, e.B.Y))
		}
	}
	slices.SortFunc(segs, func(s, t Seg) int {
		return cmp.Or(s.Lo.Compare(t.Lo), s.Hi.Compare(t.Hi))
	})
	return segs
}

// TestClassifyAllocs pins Classify's allocations on the resolved
// InterleavedPair(1001, 512), whose active list peaks a few edges at a
// time: the start order, the beam entries grown geometrically and the
// horizontals' prefix sums.
func TestClassifyAllocs(t *testing.T) {
	segs := resolvedSegs(data.InterleavedPair(1001, 512))
	allocs := testing.AllocsPerRun(10, func() { Classify(context.Background(), segs) })
	if allocs > 8 {
		t.Errorf("Classify allocates %.0f objects per call, want <= 8", allocs)
	}
}

// BenchmarkClassify labels the resolved arrangement of two data pairs —
// SyntheticPair(1, 4096, 4096) and InterleavedPair(1001, 512) — whose
// segments are given in (Lo, Hi) order, as overlay's fold returns them.
func BenchmarkClassify(b *testing.B) {
	syn1, syn2 := data.SyntheticPair(1, 4096, 4096)
	il1, il2 := data.InterleavedPair(1001, 512)
	for _, c := range []struct {
		name string
		a, b geom.Polygon
	}{{"synthetic=4096", syn1, syn2}, {"interleaved=512", il1, il2}} {
		segs := resolvedSegs(c.a, c.b)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Classify(context.Background(), segs)
			}
		})
	}
}

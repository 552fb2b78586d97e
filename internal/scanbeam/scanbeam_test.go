package scanbeam

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"polyclip/internal/engine"
	"polyclip/internal/geom"
)

func TestSortByX(t *testing.T) {
	entries := []Entry{{X: 3, ID: 0}, {X: 1, ID: 1}, {X: 2, ID: 2}, {X: 1, ID: 3}}
	SortByX(entries)
	for i := 1; i < len(entries); i++ {
		if entries[i-1].X > entries[i].X {
			t.Fatalf("not sorted at %d: %v", i, entries)
		}
	}
}

func TestScratchEntries(t *testing.T) {
	var s Scratch
	a := s.Entries(4)
	if len(a) != 4 {
		t.Fatalf("Entries(4) has len %d", len(a))
	}
	a[0] = Entry{X: 9}
	// A smaller request reuses the backing array.
	b := s.Entries(2)
	if len(b) != 2 || b[0].X != 9 {
		t.Errorf("Entries(2) did not reuse backing array: %v", b)
	}
	if c := s.Entries(100); len(c) != 100 {
		t.Errorf("Entries(100) has len %d", len(c))
	}
}

func TestScratchGrowKeep(t *testing.T) {
	var s Scratch
	buf := s.Grow(8)
	if len(buf) != 0 || cap(buf) < 8 {
		t.Fatalf("Grow(8): len=%d cap=%d", len(buf), cap(buf))
	}
	for i := 0; i < 8; i++ {
		buf = append(buf, Entry{X: float64(i)})
	}
	s.Keep(buf)
	// The retained capacity serves the next Grow without allocation.
	buf2 := s.Grow(8)
	if cap(buf2) < 8 || len(buf2) != 0 {
		t.Errorf("Grow after Keep: len=%d cap=%d", len(buf2), cap(buf2))
	}
}

func TestPool(t *testing.T) {
	s := Get()
	if s == nil {
		t.Fatal("Get returned nil")
	}
	s.Entries(16)
	Put(s)
	if s2 := Get(); s2 == nil {
		t.Fatal("Get after Put returned nil")
	}
}

func TestClampCorners(t *testing.T) {
	tz := engine.Trapezoid{
		L1: geom.Point{X: 2, Y: 0}, R1: geom.Point{X: 1, Y: 0}, // inverted bottom
		L2: geom.Point{X: 0, Y: 1}, R2: geom.Point{X: 3, Y: 1}, // well-formed top
	}
	ClampCorners(&tz)
	if tz.L1.X != 1.5 || tz.R1.X != 1.5 {
		t.Errorf("bottom not collapsed to midpoint: %+v", tz)
	}
	if tz.L2.X != 0 || tz.R2.X != 3 {
		t.Errorf("well-formed top modified: %+v", tz)
	}
}

// vertical returns an upward vertical segment at x spanning [y0, y1].
func vertical(x, y0, y1 float64) geom.Segment {
	return geom.Segment{A: geom.Point{X: x, Y: y0}, B: geom.Point{X: x, Y: y1}}
}

func TestBeamTrapezoidsUnion(t *testing.T) {
	// A CCW region between two verticals: the left bound descends (+1), the
	// right bound ascends (-1).
	edges := []geom.Segment{vertical(0, 0, 1), vertical(2, 0, 1)}
	deltas := []int8{1, -1}
	edgeAt := func(id int32) (geom.Segment, uint8, int8) { return edges[id], 0, deltas[id] }
	var scratch Scratch
	var out []Piece
	BeamTrapezoids(&scratch, []int32{0, 1}, 0, 1, engine.Union, engine.EvenOdd, edgeAt, &out)
	if len(out) != 1 {
		t.Fatalf("emitted %d trapezoids, want 1", len(out))
	}
	if a := out[0].Area(); math.Abs(a-2) > 1e-12 {
		t.Errorf("trapezoid area = %g, want 2", a)
	}
}

func TestBeamTrapezoidsIntersection(t *testing.T) {
	// Subject spans [0, 4], clip spans [2, 6]: intersection strip is [2, 4].
	edges := []geom.Segment{
		vertical(0, 0, 1), vertical(4, 0, 1), // subject
		vertical(2, 0, 1), vertical(6, 0, 1), // clip
	}
	owners := []uint8{0, 0, 1, 1}
	deltas := []int8{1, -1, 1, -1}
	edgeAt := func(id int32) (geom.Segment, uint8, int8) { return edges[id], owners[id], deltas[id] }
	var scratch Scratch
	var out []Piece
	BeamTrapezoids(&scratch, []int32{0, 1, 2, 3}, 0, 1, engine.Intersection, engine.EvenOdd, edgeAt, &out)
	if len(out) != 1 {
		t.Fatalf("emitted %d trapezoids, want 1", len(out))
	}
	tz := out[0]
	if tz.L1.X != 2 || tz.R1.X != 4 {
		t.Errorf("strip bounds [%g, %g], want [2, 4]", tz.L1.X, tz.R1.X)
	}
	// Xor of the same beam: two strips, [0,2] and [4,6].
	out = out[:0]
	BeamTrapezoids(&scratch, []int32{0, 1, 2, 3}, 0, 1, engine.Xor, engine.EvenOdd, edgeAt, &out)
	if len(out) != 2 {
		t.Fatalf("xor emitted %d trapezoids, want 2", len(out))
	}
}

func TestBeamTrapezoidsCoincidentGroup(t *testing.T) {
	// Subject and clip are the same strip [0, 2], so edges 0 and 2 coincide
	// on the left and 1 and 3 on the right, and clip edge 4 at x = 2 starts
	// the strip [2, 3].
	edges := []geom.Segment{
		vertical(0, 0, 1), vertical(2, 0, 1), // subject
		vertical(0, 0, 1), vertical(2, 0, 1), vertical(2, 0, 1), vertical(3, 0, 1), // clip
	}
	owners := []uint8{0, 0, 1, 1, 1, 1}
	deltas := []int8{1, -1, 1, -1, 1, -1}
	edgeAt := func(id int32) (geom.Segment, uint8, int8) { return edges[id], owners[id], deltas[id] }
	var scratch Scratch
	for _, tc := range []struct {
		op   engine.Op
		want []Piece
	}{
		// Each group is one boundary named by its smallest id; edges 1, 3
		// and 4 at x = 2 leave the union inside, so it is one piece.
		{engine.Intersection, []Piece{{Trapezoid: engine.Trapezoid{
			L1: geom.Point{X: 0, Y: 0}, R1: geom.Point{X: 2, Y: 0}, L2: geom.Point{X: 0, Y: 1}, R2: geom.Point{X: 2, Y: 1},
		}, Left: 0, Right: 1}}},
		{engine.Union, []Piece{{Trapezoid: engine.Trapezoid{
			L1: geom.Point{X: 0, Y: 0}, R1: geom.Point{X: 3, Y: 0}, L2: geom.Point{X: 0, Y: 1}, R2: geom.Point{X: 3, Y: 1},
		}, Left: 0, Right: 5}}},
		// Xor is outside on both sides of the left group: no zero-width
		// piece between edges 0 and 2.
		{engine.Xor, []Piece{{Trapezoid: engine.Trapezoid{
			L1: geom.Point{X: 2, Y: 0}, R1: geom.Point{X: 3, Y: 0}, L2: geom.Point{X: 2, Y: 1}, R2: geom.Point{X: 3, Y: 1},
		}, Left: 1, Right: 5}}},
	} {
		for _, ids := range [][]int32{{0, 1, 2, 3, 4, 5}, {5, 4, 3, 2, 1, 0}} {
			var out []Piece
			BeamTrapezoids(&scratch, ids, 0, 1, tc.op, engine.EvenOdd, edgeAt, &out)
			if !slices.Equal(out, tc.want) {
				t.Errorf("%v, ids %v: pieces %+v, want %+v", tc.op, ids, out, tc.want)
			}
		}
	}
}

func TestBeamTrapezoidsWindingRules(t *testing.T) {
	// A doubly-wound subject: two nested CCW intervals [0,6] and [2,4] in one
	// beam, so the winding is 1 on [0,2]∪[4,6] and 2 on [2,4]. Under EvenOdd
	// the middle is a hole; NonZero and Positive fill it; Negative selects
	// nothing. The clip operand is absent, so Union reads pure subject
	// insideness.
	edges := []geom.Segment{
		vertical(0, 0, 1), vertical(6, 0, 1),
		vertical(2, 0, 1), vertical(4, 0, 1),
	}
	deltas := []int8{1, -1, 1, -1}
	edgeAt := func(id int32) (geom.Segment, uint8, int8) { return edges[id], 0, deltas[id] }
	ids := []int32{0, 1, 2, 3}
	var scratch Scratch

	area := func(rule engine.FillRule) float64 {
		var out []Piece
		BeamTrapezoids(&scratch, ids, 0, 1, engine.Union, rule, edgeAt, &out)
		var sum float64
		for _, tz := range out {
			sum += tz.Area()
		}
		return sum
	}
	if a := area(engine.EvenOdd); math.Abs(a-4) > 1e-12 {
		t.Errorf("evenodd area = %g, want 4 (doubly-wound middle excluded)", a)
	}
	if a := area(engine.NonZero); math.Abs(a-6) > 1e-12 {
		t.Errorf("nonzero area = %g, want 6", a)
	}
	if a := area(engine.Positive); math.Abs(a-6) > 1e-12 {
		t.Errorf("positive area = %g, want 6", a)
	}
	if a := area(engine.Negative); a != 0 {
		t.Errorf("negative area = %g, want 0 (all winding positive)", a)
	}

	// Reversing every delta flips the winding sign: Positive and Negative
	// swap, EvenOdd and NonZero are unchanged.
	for i := range deltas {
		deltas[i] = -deltas[i]
	}
	if a := area(engine.Negative); math.Abs(a-6) > 1e-12 {
		t.Errorf("negative area after reversal = %g, want 6", a)
	}
	if a := area(engine.Positive); a != 0 {
		t.Errorf("positive area after reversal = %g, want 0", a)
	}
	if a := area(engine.EvenOdd); math.Abs(a-4) > 1e-12 {
		t.Errorf("evenodd area after reversal = %g, want 4", a)
	}
}

func TestCollectEdges(t *testing.T) {
	// One CCW square: of its 4 edges the horizontals are dropped, leaving 2.
	// The CCW walk ascends the right bound (2,0)->(2,2), delta -1, and
	// descends the left bound (0,2)->(0,0), delta +1 — so a left-to-right
	// crossing of the interior reads winding +1.
	sq := geom.Polygon{{{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 2, Y: 2}, {X: 0, Y: 2}}}
	edges := CollectEdges(sq, nil)
	if len(edges) != 2 {
		t.Fatalf("collected %d edges, want 2 (horizontals dropped)", len(edges))
	}
	for _, e := range edges {
		if e.Seg.A.Y >= e.Seg.B.Y {
			t.Errorf("edge not upward-normalized: %+v", e)
		}
		if e.Owner != 0 {
			t.Errorf("subject edge owner = %d", e.Owner)
		}
		switch e.Seg.A.X {
		case 0: // left bound: original direction downward
			if e.Delta != 1 {
				t.Errorf("left bound delta = %d, want +1", e.Delta)
			}
		case 2: // right bound: original direction upward
			if e.Delta != -1 {
				t.Errorf("right bound delta = %d, want -1", e.Delta)
			}
		default:
			t.Errorf("unexpected edge x: %+v", e)
		}
	}
	// Clip edges carry owner 1.
	both := CollectEdges(nil, sq)
	for _, e := range both {
		if e.Owner != 1 {
			t.Errorf("clip edge owner = %d, want 1", e.Owner)
		}
	}
}

// beam is one visit of SweepStarts.
type beam struct {
	yb, yt float64
	active []int32
}

// startOrder returns the ids of spans in (low y, id) order.
func startOrder(spans [][2]float64) []int32 {
	order := make([]int32, len(spans))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(i, j int32) int { return cmp.Compare(spans[i][0], spans[j][0]) })
	return order
}

// sweepSpans runs SweepStarts over spans given by id and records every
// beam.
func sweepSpans(spans [][2]float64) []beam {
	var got []beam
	SweepStarts(startOrder(spans), func(id int32) (float64, float64) { return spans[id][0], spans[id][1] },
		func(yb, yt float64, active []int32) bool {
			got = append(got, beam{yb, yt, slices.Clone(active)})
			return true
		})
	return got
}

func TestSweepSchedule(t *testing.T) {
	// Edge 0 spans y [0, 2], edge 1 spans [1, 3]: beams are [0,1], [1,2], [2,3]
	// with active sets {0}, {0, 1}, {1}.
	got := sweepSpans([][2]float64{{0, 2}, {1, 3}})
	want := []beam{{0, 1, []int32{0}}, {1, 2, []int32{0, 1}}, {2, 3, []int32{1}}}
	if !beamsEqual(got, want) {
		t.Errorf("beams %v, want %v", got, want)
	}
}

func TestSweepEmptyBeams(t *testing.T) {
	// A gap between the two edges' extents leaves a beam with no active
	// edge, and a horizontal below everything opens the sweep with one.
	got := sweepSpans([][2]float64{{0, 1}, {2, 3}, {-1, -1}})
	want := []beam{{-1, 0, nil}, {0, 1, []int32{0}}, {1, 2, nil}, {2, 3, []int32{1}}}
	if !beamsEqual(got, want) {
		t.Errorf("beams %v, want %v", got, want)
	}
	// A lone horizontal, or none at all, spans no beam.
	for _, spans := range [][][2]float64{{{5, 5}}, nil} {
		if got := sweepSpans(spans); len(got) != 0 {
			t.Errorf("spans %v: beams %v, want none", spans, got)
		}
	}
}

// TestSweepStartsSignedZero pins which zero a boundary keeps: the next
// start's, else the first ending edge's in start order.
func TestSweepStartsSignedZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		spans [][2]float64
		neg   bool
	}{
		{[][2]float64{{-1, negZero}, {0, 1}}, false},
		{[][2]float64{{-1, 0}, {negZero, 1}}, true},
		{[][2]float64{{-1, negZero}, {-1, 0}}, true},
		{[][2]float64{{-1, 0}, {-1, negZero}}, false},
	} {
		got := sweepSpans(tc.spans)
		if len(got) == 0 || got[0].yt != 0 || math.Signbit(got[0].yt) != tc.neg {
			t.Errorf("spans %v: beams %v, want the first to end at a zero with sign bit %v", tc.spans, got, tc.neg)
		}
	}
}

// TestSweepStartsEndsOnNaN feeds spans with NaN ends: the sweep must still
// end after a few beams instead of revisiting one line forever.
func TestSweepStartsEndsOnNaN(t *testing.T) {
	nan := math.NaN()
	for _, spans := range [][][2]float64{
		{{nan, nan}},
		{{0, 1}, {nan, 2}},
		{{0, nan}, {1, 2}, {nan, nan}},
	} {
		visits := 0
		SweepStarts(startOrder(spans), func(id int32) (float64, float64) { return spans[id][0], spans[id][1] },
			func(yb, yt float64, active []int32) bool {
				visits++
				return visits < 100
			})
		if visits >= 100 {
			t.Errorf("spans %v: the sweep did not end", spans)
		}
	}
}

// TestSweepStartsMatchesDefinition holds the driver to the definition of the
// schedule: for each pair of consecutive distinct endpoint ys, the ids whose
// span covers that beam, in insertion order (low y, then id). Random span
// sets draw ys from a few values, so they repeat; about one edge in five is
// horizontal, the gaps between extents leave empty beams, and zero comes as
// −0 or +0.
func TestSweepStartsMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	negZero := math.Copysign(0, -1)
	for trial := 0; trial < 2000; trial++ {
		spans := make([][2]float64, 1+rng.Intn(24))
		y := func() float64 {
			v := float64(rng.Intn(9) - 4)
			if v == 0 && rng.Intn(2) == 0 {
				v = negZero
			}
			return v
		}
		for i := range spans {
			lo, hi := y(), y()
			if rng.Intn(5) == 0 {
				hi = lo
			}
			if hi < lo {
				lo, hi = hi, lo
			}
			spans[i] = [2]float64{lo, hi}
		}
		var ys []float64
		for _, s := range spans {
			ys = append(ys, s[0], s[1])
		}
		slices.Sort(ys)
		ys = slices.Compact(ys)
		order := startOrder(spans)
		var want []beam
		for k := 0; k+1 < len(ys); k++ {
			b := beam{yb: ys[k], yt: ys[k+1]}
			for _, id := range order {
				if spans[id][0] <= b.yb && spans[id][1] >= b.yt {
					b.active = append(b.active, id)
				}
			}
			want = append(want, b)
		}
		if got := sweepSpans(spans); !beamsEqual(got, want) {
			t.Fatalf("spans %v:\nbeams %v\nwant  %v", spans, got, want)
		}
	}
}

// beamsEqual compares beams by value: their scanlines with == (−0 equals
// +0) and their active ids in order.
func beamsEqual(a, b []beam) bool {
	return slices.EqualFunc(a, b, func(x, y beam) bool {
		return x.yb == y.yb && x.yt == y.yt && slices.Equal(x.active, y.active)
	})
}

// TestSweepStartsAllocs pins the driver at zero allocations: the active list
// lives in the consumed prefix of starts.
func TestSweepStartsAllocs(t *testing.T) {
	spans := [][2]float64{{0, 2}, {0, 4}, {1, 3}, {2, 4}, {3, 4}, {4, 4}}
	starts := make([]int32, len(spans))
	span := func(i int32) (float64, float64) { return spans[i][0], spans[i][1] }
	visit := func(yb, yt float64, active []int32) bool { return true }
	got := testing.AllocsPerRun(50, func() {
		for i := range starts {
			starts[i] = int32(i)
		}
		SweepStarts(starts, span, visit)
	})
	if got != 0 {
		t.Errorf("SweepStarts allocates %v objects/op, pinned at 0", got)
	}
}

package isect

import (
	"math/rand"
	"reflect"
	"testing"

	"polyclip/internal/geom"
)

func pairsEqual(t *testing.T, name string, got, want []Pair) {
	t.Helper()
	got = dedupPairs(append([]Pair(nil), got...))
	want = dedupPairs(append([]Pair(nil), want...))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: got %v, want %v", name, got, want)
	}
}

func TestSimpleCross(t *testing.T) {
	edges := []geom.Segment{
		{A: geom.Point{X: 0, Y: 0}, B: geom.Point{X: 2, Y: 2}},
		{A: geom.Point{X: 0, Y: 2}, B: geom.Point{X: 2, Y: 0}},
	}
	want := []Pair{{0, 1}}
	pairsEqual(t, "brute", BruteForcePairs(edges), want)
	pairsEqual(t, "grid", GridPairs(edges, 1), want)
	pairsEqual(t, "scanbeam", ScanbeamPairs(edges, 1), want)
}

func TestNoIntersections(t *testing.T) {
	edges := []geom.Segment{
		{A: geom.Point{X: 0, Y: 0}, B: geom.Point{X: 1, Y: 1}},
		{A: geom.Point{X: 5, Y: 0}, B: geom.Point{X: 6, Y: 1}},
		{A: geom.Point{X: 10, Y: 0}, B: geom.Point{X: 11, Y: 1}},
	}
	if got := ScanbeamPairs(edges, 1); len(got) != 0 {
		t.Errorf("scanbeam found %v", got)
	}
	if got := GridPairs(edges, 1); len(got) != 0 {
		t.Errorf("grid found %v", got)
	}
}

func TestSharedEndpointNotMissedNotDuplicated(t *testing.T) {
	// Two edges sharing a bottom endpoint intersect (at that point).
	edges := []geom.Segment{
		{A: geom.Point{X: 0, Y: 0}, B: geom.Point{X: -1, Y: 2}},
		{A: geom.Point{X: 0, Y: 0}, B: geom.Point{X: 1, Y: 2}},
	}
	want := []Pair{{0, 1}}
	pairsEqual(t, "scanbeam shared endpoint", ScanbeamPairs(edges, 1), want)
}

func TestFig4Configuration(t *testing.T) {
	// Four edges in one scanbeam whose bottom order is {3,2,4,1} relative to
	// the top order {1,2,3,4}: inversion pairs (3,1),(3,2),(4,1),(2,1) —
	// 4 crossings (paper Fig. 4). Build concrete segments achieving it:
	// edge i has top x = i; bottom xs chosen so bottom order is 3,2,4,1.
	topX := map[int]float64{1: 1, 2: 2, 3: 3, 4: 4}
	botX := map[int]float64{3: 0, 2: 1, 4: 2, 1: 3}
	var edges []geom.Segment
	for id := 1; id <= 4; id++ {
		edges = append(edges, geom.Segment{
			A: geom.Point{X: botX[id], Y: 0},
			B: geom.Point{X: topX[id], Y: 10},
		})
	}
	// ids in slice: edge id i -> index i-1
	want := []Pair{{0, 1}, {0, 2}, {0, 3}, {1, 2}} // (1,2)(1,3)(1,4)(2,3) by index
	got := ScanbeamPairs(edges, 1)
	pairsEqual(t, "fig4", got, want)
	if k := CountCrossings(edges, 1); k != 4 {
		t.Errorf("CountCrossings = %d, want 4", k)
	}
}

func randomEdges(rng *rand.Rand, n int, span float64) []geom.Segment {
	edges := make([]geom.Segment, n)
	for i := range edges {
		a := geom.Point{X: rng.Float64() * span, Y: rng.Float64() * span}
		b := geom.Point{X: a.X + (rng.Float64()-0.5)*10, Y: a.Y + (rng.Float64()-0.5)*10}
		if a.Y == b.Y {
			b.Y += 0.001
		}
		edges[i] = geom.Segment{A: a, B: b}
	}
	return edges
}

func TestFindersAgreeOnRandomInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(60)
		edges := randomEdges(rng, n, 40)
		want := BruteForcePairs(edges)
		pairsEqual(t, "grid vs brute", GridPairs(edges, 2), want)
		pairsEqual(t, "scanbeam vs brute", ScanbeamPairs(edges, 2), want)
	}
}

func TestFindersAgreeOnPolygonEdges(t *testing.T) {
	// Two overlapping regular polygons: all intersections are cross-polygon.
	a := geom.RegularPolygon(geom.Point{X: 0, Y: 0}, 10, 12, 0.13)
	b := geom.RegularPolygon(geom.Point{X: 4, Y: 3}, 10, 9, 0.31)
	edges := append(a.Edges(nil), b.Edges(nil)...)
	want := BruteForcePairs(edges)
	pairsEqual(t, "grid", GridPairs(edges, 4), want)
	pairsEqual(t, "scanbeam", ScanbeamPairs(edges, 4), want)
	if len(want) == 0 {
		t.Fatal("expected intersections between overlapping polygons")
	}
}

func TestSelfIntersectingStarPairs(t *testing.T) {
	star := geom.SelfIntersectingStar(geom.Point{X: 0, Y: 0}, 5, 5, 0.17)
	edges := star.Edges(nil)
	want := BruteForcePairs(edges)
	pairsEqual(t, "scanbeam star", ScanbeamPairs(edges, 1), want)
	// A pentagram has 5 proper crossings plus 5 shared-endpoint pairs.
	if len(want) != 10 {
		t.Errorf("pentagram pairs = %d, want 10", len(want))
	}
}

func TestCountCrossingsMatchesProperCrossings(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 10; trial++ {
		edges := randomEdges(rng, 40, 30)
		var proper int64
		for i := range edges {
			for j := i + 1; j < len(edges); j++ {
				if geom.SegmentsCross(edges[i], edges[j]) {
					proper++
				}
			}
		}
		got := CountCrossings(edges, 2)
		// Inversion count equals proper crossings exactly (touches produce
		// no inversion under the tie-breaking rules).
		if got != proper {
			t.Errorf("trial %d: inversions=%d proper crossings=%d", trial, got, proper)
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	edges := randomEdges(rng, 300, 100)
	seq := ScanbeamPairs(edges, 1)
	parallel := ScanbeamPairs(edges, 8)
	pairsEqual(t, "scanbeam p=8 vs p=1", parallel, seq)
	gs := GridPairs(edges, 1)
	gp := GridPairs(edges, 8)
	pairsEqual(t, "grid p=8 vs p=1", gp, gs)
}

func TestGridHandlesDegenerateExtent(t *testing.T) {
	// All edges on a vertical line: grid width 0.
	edges := []geom.Segment{
		{A: geom.Point{X: 1, Y: 0}, B: geom.Point{X: 1, Y: 2}},
		{A: geom.Point{X: 1, Y: 1}, B: geom.Point{X: 1, Y: 3}},
	}
	got := GridPairs(edges, 1)
	if len(got) != 1 {
		t.Errorf("vertical overlap pairs = %v", got)
	}
}

func TestSweepSimpleCross(t *testing.T) {
	edges := []geom.Segment{
		{A: geom.Point{X: 0, Y: 0}, B: geom.Point{X: 2, Y: 2}},
		{A: geom.Point{X: 0, Y: 2}, B: geom.Point{X: 2, Y: 0}},
	}
	pairsEqual(t, "sweep", SweepPairs(edges), []Pair{{0, 1}})
}

func TestSweepMatchesBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(50)
		edges := randomEdges(rng, n, 40)
		want := BruteForcePairs(edges)
		pairsEqual(t, "sweep vs brute", SweepPairs(edges), want)
	}
}

func TestSweepPolygonEdges(t *testing.T) {
	a := geom.RegularPolygon(geom.Point{X: 0, Y: 0}, 10, 14, 0.13)
	b := geom.RegularPolygon(geom.Point{X: 4, Y: 3}, 10, 11, 0.31)
	edges := append(a.Edges(nil), b.Edges(nil)...)
	pairsEqual(t, "sweep polys", SweepPairs(edges), BruteForcePairs(edges))
}

func TestSweepWithHorizontals(t *testing.T) {
	edges := []geom.Segment{
		{A: geom.Point{X: 0, Y: 1}, B: geom.Point{X: 4, Y: 1}}, // horizontal
		{A: geom.Point{X: 2, Y: 0}, B: geom.Point{X: 2, Y: 2}}, // crosses it
		{A: geom.Point{X: 6, Y: 0}, B: geom.Point{X: 6, Y: 2}}, // disjoint
	}
	pairsEqual(t, "sweep horizontals", SweepPairs(edges), []Pair{{0, 1}})
}

func TestSweepPentagram(t *testing.T) {
	star := geom.SelfIntersectingStar(geom.Point{X: 0, Y: 0}, 5, 5, 0.17)
	edges := star.Edges(nil)
	pairsEqual(t, "sweep star", SweepPairs(edges), BruteForcePairs(edges))
}

func TestSweepEmpty(t *testing.T) {
	if got := SweepPairs(nil); got != nil {
		t.Errorf("SweepPairs(nil) = %v", got)
	}
}

func TestSweepDenseCrossings(t *testing.T) {
	// A pencil of segments sharing the y-extent: thousands of crossings with
	// massive event ties stress the event-ordering logic.
	rng := rand.New(rand.NewSource(307))
	var edges []geom.Segment
	for i := 0; i < 120; i++ {
		x0 := rng.Float64() * 20
		x1 := rng.Float64() * 20
		edges = append(edges, geom.Segment{
			A: geom.Point{X: x0, Y: 0},
			B: geom.Point{X: x1, Y: 10},
		})
	}
	pairsEqual(t, "sweep dense", SweepPairs(edges), BruteForcePairs(edges))
}

func TestAllFourFindersAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(311))
	for trial := 0; trial < 10; trial++ {
		edges := randomEdges(rng, 40, 25)
		want := BruteForcePairs(edges)
		pairsEqual(t, "grid", GridPairs(edges, 2), want)
		pairsEqual(t, "scanbeam", ScanbeamPairs(edges, 2), want)
		pairsEqual(t, "sweep", SweepPairs(edges), want)
	}
}

package rtree

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"polyclip/internal/geom"
)

func randomBoxes(rng *rand.Rand, n int, span float64) []geom.BBox {
	boxes := make([]geom.BBox, n)
	for i := range boxes {
		x := rng.Float64() * span
		y := rng.Float64() * span
		boxes[i] = geom.BBox{MinX: x, MinY: y, MaxX: x + rng.Float64()*5, MaxY: y + rng.Float64()*5}
	}
	return boxes
}

// ids returns the window query's candidates whose own box meets q, sorted:
// SearchRect plus the exact per-item test its callers run.
func ids(t *Tree, q geom.BBox, boxes []geom.BBox) []int32 {
	var got []int32
	for _, id := range t.SearchRect(q, nil) {
		if boxes[id].Intersects(q) {
			got = append(got, id)
		}
	}
	sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
	return got
}

func TestEmptyTree(t *testing.T) {
	tr := Build(0, nil)
	if got := tr.SearchRect(geom.BBox{MaxX: 1, MaxY: 1}, nil); got != nil {
		t.Errorf("empty tree returned %v", got)
	}
	tr.JoinVisit(1, func(int32) geom.BBox { return geom.BBox{MaxX: 1, MaxY: 1} }, nil,
		func(i, j int32) { t.Errorf("empty tree joined (%d, %d)", i, j) })
}

func TestSingleItem(t *testing.T) {
	boxes := []geom.BBox{{MinX: 1, MinY: 1, MaxX: 2, MaxY: 2}}
	tr := Build(1, func(i int32) geom.BBox { return boxes[i] })
	if got := ids(tr, geom.BBox{MinX: 0, MinY: 0, MaxX: 3, MaxY: 3}, boxes); len(got) != 1 {
		t.Errorf("got %v", got)
	}
	if got := ids(tr, geom.BBox{MinX: 5, MinY: 5, MaxX: 6, MaxY: 6}, boxes); len(got) != 0 {
		t.Errorf("got %v", got)
	}
}

// TestSearchMatchesBruteForce holds the window query to a scan of every
// box: no item whose box meets the window is missed, and each candidate is
// returned once.
func TestSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{5, 17, 100, 1000, 5000} {
		boxes := randomBoxes(rng, n, 100)
		tr := Build(n, func(i int32) geom.BBox { return boxes[i] })
		var buf []int32
		for q := 0; q < 20; q++ {
			x := rng.Float64() * 100
			y := rng.Float64() * 100
			query := geom.BBox{MinX: x, MinY: y, MaxX: x + rng.Float64()*20, MaxY: y + rng.Float64()*20}
			var want []int32
			for i, b := range boxes {
				if b.Intersects(query) {
					want = append(want, int32(i))
				}
			}
			got := ids(tr, query, boxes)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d query %d: got %d items want %d", n, q, len(got), len(want))
			}
			buf = tr.SearchRect(query, buf[:0])
			seen := make(map[int32]bool, len(buf))
			for _, id := range buf {
				if seen[id] {
					t.Fatalf("n=%d query %d: id %d returned twice", n, q, id)
				}
				seen[id] = true
			}
		}
	}
}

func TestJoinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	boxesA := randomBoxes(rng, 120, 60)
	boxesB := randomBoxes(rng, 150, 60)
	tr := Build(len(boxesB), func(i int32) geom.BBox { return boxesB[i] })
	var got [][2]int32
	tr.JoinVisit(len(boxesA),
		func(i int32) geom.BBox { return boxesA[i] },
		func(j int32) geom.BBox { return boxesB[j] },
		func(i, j int32) { got = append(got, [2]int32{i, j}) })
	var want [][2]int32
	for i := range boxesA {
		for j := range boxesB {
			if boxesA[i].Intersects(boxesB[j]) {
				want = append(want, [2]int32{int32(i), int32(j)})
			}
		}
	}
	sortPairs := func(ps [][2]int32) {
		sort.Slice(ps, func(a, b int) bool {
			if ps[a][0] != ps[b][0] {
				return ps[a][0] < ps[b][0]
			}
			return ps[a][1] < ps[b][1]
		})
	}
	sortPairs(got)
	sortPairs(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("join: got %d pairs want %d", len(got), len(want))
	}
}

func TestDegenerateIdenticalBoxes(t *testing.T) {
	boxes := make([]geom.BBox, 64)
	for i := range boxes {
		boxes[i] = geom.BBox{MinX: 1, MinY: 1, MaxX: 2, MaxY: 2}
	}
	tr := Build(64, func(i int32) geom.BBox { return boxes[i] })
	got := ids(tr, geom.BBox{MinX: 1.5, MinY: 1.5, MaxX: 1.6, MaxY: 1.6}, boxes)
	if len(got) != 64 {
		t.Errorf("got %d, want 64", len(got))
	}
}

// TestJoinVisitAllocs is the allocation regression pin: the streaming join
// must cost a constant number of allocations (the reused traversal stack)
// no matter how many items or candidate pairs flow through it, so that
// million-feature joins never materialize per-pair state.
func TestJoinVisitAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	boxesA := randomBoxes(rng, 500, 80)
	boxesB := randomBoxes(rng, 500, 80)
	tr := Build(len(boxesB), func(i int32) geom.BBox { return boxesB[i] })
	boxA := func(i int32) geom.BBox { return boxesA[i] }
	boxB := func(j int32) geom.BBox { return boxesB[j] }
	var pairs int
	visit := func(i, j int32) { pairs++ }
	allocs := testing.AllocsPerRun(10, func() {
		tr.JoinVisit(len(boxesA), boxA, boxB, visit)
	})
	if pairs == 0 {
		t.Fatal("join produced no pairs; the alloc measurement is vacuous")
	}
	if allocs > 2 {
		t.Errorf("JoinVisit allocates %.1f objects/run, want <= 2 (stack only)", allocs)
	}
}

// TestSearchRectAllocs mirrors TestJoinVisitAllocs for the window query: over
// a warm reused buffer, a query must allocate nothing at all — the tile
// pipeline runs one query per tile, and tiles come by the million.
func TestSearchRectAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	boxes := randomBoxes(rng, 600, 80)
	tr := Build(len(boxes), func(i int32) geom.BBox { return boxes[i] })
	query := geom.BBox{MinX: 10, MinY: 10, MaxX: 60, MaxY: 60}
	buf := tr.SearchRect(query, nil)
	if len(buf) == 0 {
		t.Fatal("query returned no candidates; the alloc measurement is vacuous")
	}
	allocs := testing.AllocsPerRun(10, func() {
		buf = tr.SearchRect(query, buf[:0])
	})
	if allocs != 0 {
		t.Errorf("SearchRect allocates %.1f objects/run over a warm buffer, want 0", allocs)
	}
}

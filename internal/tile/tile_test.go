package tile

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"polyclip/internal/acache"
	"polyclip/internal/data"
	"polyclip/internal/engine"
	"polyclip/internal/geom"
	"polyclip/internal/prepared"
	"polyclip/internal/vatti"
)

func testLayer() geom.Polygon {
	var p geom.Polygon
	rng := rand.New(rand.NewSource(11))
	for gy := 0; gy < 4; gy++ {
		for gx := 0; gx < 4; gx++ {
			c := geom.Point{X: float64(gx)*10 + 5, Y: float64(gy)*10 + 5}
			p = append(p, geom.RegularPolygon(c, 2+rng.Float64()*2.5, 3+rng.Intn(6), rng.Float64()))
			if (gx+gy)%3 == 0 {
				p = append(p, geom.RegularPolygon(c, 1, 4, rng.Float64()))
			}
		}
	}
	p = append(p, geom.Star(geom.Point{X: 20, Y: 20}, 12, 5, 9, 0.2))
	return p
}

func testSpec(layer geom.Polygon, minZ, maxZ int) Spec {
	return Spec{MinZoom: minZ, MaxZoom: maxZ, Extent: SquareExtent(layer.BBox())}
}

func key(t Tile) [3]int64 { return [3]int64{int64(t.Z), int64(t.X), int64(t.Y)} }

// TestCutMatchesNaive pins the heart of the pipeline: prepared quadtree
// cutting emits the same tile keys as exhaustive per-tile clipping, and each
// tile covers the same region.
func TestCutMatchesNaive(t *testing.T) {
	layer := testLayer()
	spec := testSpec(layer, 0, 4)
	for _, rule := range engine.Rules() {
		fast, fstats, err := Cut(context.Background(), layer, spec, Options{Rule: rule, Threads: 4})
		if err != nil {
			t.Fatalf("%v: %v", rule, err)
		}
		naive, _, err := Cut(context.Background(), layer, spec, Options{Rule: rule, Threads: 4, Naive: true})
		if err != nil {
			t.Fatalf("%v naive: %v", rule, err)
		}
		nm := make(map[[3]int64]geom.Polygon, len(naive))
		for _, tl := range naive {
			nm[key(tl)] = tl.Poly
		}
		if len(fast) != len(naive) {
			t.Errorf("%v: %d prepared tiles vs %d naive", rule, len(fast), len(naive))
		}
		for _, tl := range fast {
			want, ok := nm[key(tl)]
			if !ok {
				t.Errorf("%v: tile %d/%d/%d missing from naive cut", rule, tl.Z, tl.X, tl.Y)
				continue
			}
			b := spec.Box(tl.Z, tl.X, tl.Y)
			tol := 1e-9 * b.Width() * b.Height()
			if d := vatti.Clip(tl.Poly, want, engine.Xor, engine.Options{Rule: engine.EvenOdd}).Area(); d > tol {
				t.Errorf("%v: tile %d/%d/%d differs from naive by area %g", rule, tl.Z, tl.X, tl.Y, d)
			}
		}
		// Under Negative every CCW-only ring reads empty, so the pyramid
		// prunes at the root; for the filled rules both fast paths must fire.
		if len(fast) > 0 && (fstats.Prepared.FastInside == 0 || fstats.Prepared.FastOutside == 0) {
			t.Errorf("%v: fast paths never taken: %+v", rule, fstats.Prepared)
		}
		if fstats.Prepared.Rescues != 0 {
			t.Errorf("%v: %d leaf clips rescued by the sweep", rule, fstats.Prepared.Rescues)
		}
		if rule == engine.Negative && len(fast) != 0 {
			t.Errorf("negative: CCW-only layer produced %d tiles", len(fast))
		}
	}
}

// TestCutDeterministic pins bit-identical output at the contract thread
// counts 1/2/8.
func TestCutDeterministic(t *testing.T) {
	layer := testLayer()
	spec := testSpec(layer, 0, 5)
	var base string
	for _, threads := range []int{1, 2, 8} {
		tiles, _, err := Cut(context.Background(), layer, spec, Options{Rule: engine.NonZero, Threads: threads})
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		s := fmt.Sprint(tiles)
		if base == "" {
			base = s
		} else if s != base {
			t.Fatalf("threads=%d: output differs from threads=1", threads)
		}
	}
}

// TestPreparedBeatsNaive is the prepared pipeline's speed gate: cutting a
// 16-ring layer into zooms 0–4 must take at most half the time of the naive
// per-tile clips. Each side takes the best of 3 runs.
func TestPreparedBeatsNaive(t *testing.T) {
	layer := data.TileLayer(data.TileLayerOptions{Rings: 16, Seed: 42})
	spec := testSpec(layer, 0, 4)
	best := func(naive bool) time.Duration {
		b := time.Duration(math.MaxInt64)
		for i := 0; i < 3; i++ {
			start := time.Now()
			if _, _, err := Cut(context.Background(), layer, spec,
				Options{Rule: engine.EvenOdd, Naive: naive}); err != nil {
				t.Fatalf("naive=%v: %v", naive, err)
			}
			b = min(b, time.Since(start))
		}
		return b
	}
	naive, prep := best(true), best(false)
	if 2*prep > naive {
		t.Fatalf("prepared cut %v is not 2x faster than naive %v", prep, naive)
	}
	t.Logf("naive %v, prepared %v (%.1fx)", naive, prep, float64(naive)/float64(prep))
}

// TestCutAreaConservation: at every zoom the cut is a partition, so tile
// areas sum to the area of layer ∩ extent — the chaos-family invariant.
func TestCutAreaConservation(t *testing.T) {
	layer := testLayer()
	spec := testSpec(layer, 0, 5)
	tiles, _, err := Cut(context.Background(), layer, spec, Options{Rule: engine.EvenOdd})
	if err != nil {
		t.Fatal(err)
	}
	want := prepared.NaiveClipRect(layer, spec.Extent, engine.EvenOdd).Area()
	sums := make(map[int]float64)
	for _, tl := range tiles {
		sums[tl.Z] += tl.Poly.Area()
	}
	for z := spec.MinZoom; z <= spec.MaxZoom; z++ {
		if d := math.Abs(sums[z] - want); d > 1e-6*want {
			t.Errorf("zoom %d: tile areas sum to %g, layer∩extent is %g", z, sums[z], want)
		}
	}
}

// TestStatsAccounting: every leaf tile of the pyramid is pruned, filled, or
// clipped — no tile is visited twice or dropped — and for a boundary-sparse
// layer (one big disk) the vast majority are settled wholesale.
func TestStatsAccounting(t *testing.T) {
	layer := geom.Polygon{geom.RegularPolygon(geom.Point{X: 20, Y: 20}, 15, 64, 0)}
	spec := testSpec(layer, 0, 5)
	for _, threads := range []int{1, 8} {
		_, st, err := Cut(context.Background(), layer, spec, Options{Rule: engine.EvenOdd, Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Pruned + st.Filled + st.Leaves; got != spec.NumTiles() {
			t.Errorf("threads=%d: pruned %d + filled %d + leaves %d = %d, want %d",
				threads, st.Pruned, st.Filled, st.Leaves, got, spec.NumTiles())
		}
		if st.Zooms != 6 {
			t.Errorf("zooms = %d, want 6", st.Zooms)
		}
		// Output-sensitivity: the deep zoom has 1024+ tiles but only the
		// boundary's share may reach a real clip.
		if st.Leaves >= spec.NumTiles()/2 {
			t.Errorf("threads=%d: %d of %d tiles reached a clip — pyramid not pruning", threads, st.Leaves, spec.NumTiles())
		}
	}
}

// TestCutCache: a shared cache canonicalizes the layer once across cuts.
func TestCutCache(t *testing.T) {
	layer := testLayer()
	spec := testSpec(layer, 0, 3)
	cache := acache.New(32 << 20)
	opt := Options{Rule: engine.Positive, Cache: cache}
	a, _, err := Cut(context.Background(), layer, spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Cut(context.Background(), layer, spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Error("cached cut differs from first cut")
	}
	st := cache.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("cache stats = %+v, want 1 hit / 1 miss", st)
	}
}

func TestSpecValidate(t *testing.T) {
	good := geom.BBox{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	cases := []struct {
		spec Spec
		ok   bool
	}{
		{Spec{0, 3, good}, true},
		{Spec{2, 2, good}, true},
		{Spec{-1, 3, good}, false},
		{Spec{3, 2, good}, false},
		{Spec{0, MaxZoomLimit + 1, good}, false},
		{Spec{0, 3, geom.BBox{}}, false},
	}
	for i, tc := range cases {
		if err := tc.spec.Validate(); (err == nil) != tc.ok {
			t.Errorf("case %d: Validate() = %v, want ok=%v", i, err, tc.ok)
		}
	}
	if _, _, err := Cut(context.Background(), nil, Spec{MinZoom: -1}, Options{}); err == nil {
		t.Error("Cut accepted an invalid spec")
	}
}

func TestSpecGeometry(t *testing.T) {
	s := Spec{MinZoom: 0, MaxZoom: 2, Extent: geom.BBox{MinX: 0, MinY: 0, MaxX: 8, MaxY: 8}}
	if n := s.NumTiles(); n != 1+4+16 {
		t.Errorf("NumTiles = %d, want 21", n)
	}
	if b := s.Box(2, 1, 2); b != (geom.BBox{MinX: 2, MinY: 4, MaxX: 4, MaxY: 6}) {
		t.Errorf("Box(2,1,2) = %+v", b)
	}
	// Adjacent tiles share bit-identical boundaries.
	if s.Box(2, 1, 2).MaxX != s.Box(2, 2, 2).MinX {
		t.Error("adjacent tile boundaries disagree")
	}
	sq := SquareExtent(geom.BBox{MinX: 0, MinY: 0, MaxX: 10, MaxY: 2})
	if w, h := sq.Width(), sq.Height(); math.Abs(w-h) > 1e-12 || w <= 10 {
		t.Errorf("SquareExtent not a padded square: %gx%g", w, h)
	}
	sqp := SquareExtent(geom.BBox{MinX: 3, MinY: 4, MaxX: 3, MaxY: 4})
	if sqp.Width() <= 0 {
		t.Error("SquareExtent of a point must have positive side")
	}
}

// TestEmptyLayer: cutting nothing yields nothing, at every zoom, both modes.
func TestEmptyLayer(t *testing.T) {
	spec := Spec{MinZoom: 0, MaxZoom: 3, Extent: geom.BBox{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}}
	for _, naive := range []bool{false, true} {
		tiles, st, err := Cut(context.Background(), nil, spec, Options{Naive: naive})
		if err != nil {
			t.Fatal(err)
		}
		if len(tiles) != 0 {
			t.Errorf("naive=%v: empty layer produced %d tiles", naive, len(tiles))
		}
		if naive && st.Pruned != spec.NumTiles() {
			t.Errorf("naive empty cut pruned %d, want %d", st.Pruned, spec.NumTiles())
		}
	}
}

// TestLayerOutsideExtent: a layer wholly off-pyramid cuts to nothing.
func TestLayerOutsideExtent(t *testing.T) {
	layer := geom.Polygon{geom.Rect(100, 100, 110, 110)}
	spec := Spec{MinZoom: 0, MaxZoom: 4, Extent: geom.BBox{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}}
	for _, naive := range []bool{false, true} {
		tiles, _, err := Cut(context.Background(), layer, spec, Options{Naive: naive})
		if err != nil {
			t.Fatal(err)
		}
		if len(tiles) != 0 {
			t.Errorf("naive=%v: off-extent layer produced %d tiles", naive, len(tiles))
		}
	}
}

// TestCanceledContext: cancellation surfaces as an error from Cut.
func TestCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	layer := testLayer()
	spec := testSpec(layer, 4, 6)
	if _, _, err := Cut(ctx, layer, spec, Options{Rule: engine.EvenOdd}); err == nil {
		t.Error("Cut ignored a canceled context")
	}
	if _, _, err := Cut(ctx, layer, spec, Options{Naive: true}); err == nil {
		t.Error("naive Cut ignored a canceled context")
	}
}

func TestGridRange(t *testing.T) {
	cases := []struct {
		vmin, vmax float64
		lo, hi     int32
	}{
		{2, 6, 1, 4},   // interior span
		{-5, 20, 0, 4}, // clamped both sides
		{12, 20, 0, 0}, // fully right of extent
		{-9, -1, 0, 0}, // fully left of extent
		{4, 4, 2, 3},   // point on a grid line
		{0, 8, 0, 4},   // exact extent
	}
	for i, tc := range cases {
		lo, hi := gridRange(tc.vmin, tc.vmax, 0, 8, 4)
		if lo != tc.lo || hi != tc.hi {
			t.Errorf("case %d: gridRange = [%d, %d), want [%d, %d)", i, lo, hi, tc.lo, tc.hi)
		}
	}
}

package batch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"polyclip/internal/acache"
	"polyclip/internal/data"
	"polyclip/internal/engine"
	"polyclip/internal/geom"
	"polyclip/internal/guard"
	"polyclip/internal/rtree"
	"polyclip/internal/wkt"
)

// testLayers synthesizes two overlapping feature layers with repeats.
func testLayers(n int, repeat float64) (a, b []geom.Polygon) {
	a = data.Features(data.FeatureOptions{N: n, Dist: "mixed", RepeatFrac: repeat, Seed: 41})
	b = data.Features(data.FeatureOptions{N: n, Dist: "mixed", RepeatFrac: repeat, Seed: 42})
	return a, b
}

// render serializes an output list canonically for bit-identity comparison.
func render(outs []Output) string {
	var sb strings.Builder
	for _, o := range outs {
		fmt.Fprintf(&sb, "%d|%d|%s\n", o.A, o.B, wkt.Marshal(o.Poly))
	}
	return sb.String()
}

// TestOverlayMatchesBruteForce holds the batch path to an oracle that
// shares none of its machinery: every (i, j) of A × B box-tested without
// the R-tree, each overlapping pair clipped by vatti single-threaded, in
// (A, B) order. The (A, B, WKT) lists must match exactly.
func TestOverlayMatchesBruteForce(t *testing.T) {
	a, b := testLayers(300, 0)
	outs, st, err := Overlay(context.Background(), a, b, engine.Intersection,
		Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.CandidatePairs == 0 || st.Outputs == 0 {
		t.Fatalf("degenerate workload: %+v", st)
	}
	vatti := engine.MustGet("vatti")
	var want []Output
	for i := range a {
		for j := range b {
			if !a[i].BBox().Intersects(b[j].BBox()) {
				continue
			}
			res, err := vatti.Clip(context.Background(), a[i], b[j], engine.Intersection, engine.Options{Threads: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Polygon) > 0 {
				want = append(want, Output{A: int32(i), B: int32(j), Poly: res.Polygon})
			}
		}
	}
	if got, ref := render(outs), render(want); got != ref {
		t.Fatalf("batch gave %d outputs, brute force %d; first lines:\nbatch: %.200s\nbrute: %.200s",
			len(outs), len(want), got, ref)
	}
}

// TestOverlayDeterminism is the determinism pin: bit-identical output at
// threads 1/2/8 and under shuffled slab processing order.
func TestOverlayDeterminism(t *testing.T) {
	a, b := testLayers(400, 0.4)
	const slabs = 9
	var want string
	for _, threads := range []int{1, 2, 8} {
		for trial := 0; trial < 2; trial++ {
			opt := Options{Threads: threads, Slabs: slabs}
			if trial == 1 {
				opt.slabOrder = rand.New(rand.NewSource(int64(threads))).Perm(slabs)
			}
			outs, st, err := Overlay(context.Background(), a, b, engine.Intersection, opt)
			if err != nil {
				t.Fatal(err)
			}
			if st.Slabs != slabs || len(st.PerSlab) != slabs {
				t.Fatalf("%d slabs, %d slab times; want %d", st.Slabs, len(st.PerSlab), slabs)
			}
			got := render(outs)
			if want == "" {
				want = got
				continue
			}
			if got != want {
				t.Fatalf("output differs at threads=%d shuffled=%v", threads, trial == 1)
			}
		}
	}
}

// TestOverlayClipsSpanningPairOnce: a pair whose shared MBR spans every
// slab belongs to one slab only, so it is clipped once and output once.
func TestOverlayClipsSpanningPairOnce(t *testing.T) {
	a := []geom.Polygon{geom.RectPolygon(0, 0, 10, 100)}
	b := []geom.Polygon{geom.RectPolygon(5, 0, 15, 100)}
	// Small features elsewhere give the partition events to cut at.
	for i := 0; i < 16; i++ {
		a = append(a, geom.RectPolygon(20, float64(i*6), 21, float64(i*6+1)))
	}
	counts = map[[2]geom.Digest]int{}
	outs, st, err := Overlay(context.Background(), a, b, engine.Intersection,
		Options{Engine: "batch-test-counting", Threads: 2, Slabs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if st.Slabs != 8 {
		t.Fatalf("%d slabs, want 8", st.Slabs)
	}
	if n := counts[[2]geom.Digest{geom.Hash(a[0]), geom.Hash(b[0])}]; n != 1 || len(counts) != 1 {
		t.Fatalf("spanning pair clipped %d times, %d pairs clipped", n, len(counts))
	}
	if len(outs) != 1 || math.Abs(outs[0].Poly.Area()-500) > 1e-6 {
		t.Fatalf("outputs %+v, want one of area 500", outs)
	}
}

// TestOverlayCacheHits checks repeated operands are served by an earlier
// identical pair instead of being clipped again.
func TestOverlayCacheHits(t *testing.T) {
	a, b := testLayers(400, 0.5)
	_, st, err := Overlay(context.Background(), a, b, engine.Intersection,
		Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Hits == 0 {
		t.Fatalf("no cache hits despite 50%% repeated operands: %+v", st.Cache)
	}
}

// countingEngine delegates to vatti and counts the clips of each digest
// pair: the fixture that shows one engine run per distinct pair.
type countingEngine struct{}

var (
	countMu sync.Mutex
	counts  map[[2]geom.Digest]int
)

func (countingEngine) Name() string { return "batch-test-counting" }
func (countingEngine) Clip(ctx context.Context, a, b geom.Polygon, op engine.Op, opt engine.Options) (engine.Result, error) {
	countMu.Lock()
	counts[[2]geom.Digest{geom.Hash(a), geom.Hash(b)}]++
	countMu.Unlock()
	return engine.MustGet("vatti").Clip(ctx, a, b, op, opt)
}

func init() { engine.Register(countingEngine{}) }

// TestOverlayClipsEachDigestPairOnce: within one call the engine runs once
// per distinct (digest A, digest B) candidate pair, every other candidate
// pair is a hit, and the output matches the engine it delegates to.
func TestOverlayClipsEachDigestPairOnce(t *testing.T) {
	a, b := testLayers(400, 0.5)
	counts = map[[2]geom.Digest]int{}
	outs, st, err := Overlay(context.Background(), a, b, engine.Intersection,
		Options{Engine: "batch-test-counting", Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	boxB := make([]geom.BBox, len(b))
	for j, f := range b {
		boxB[j] = f.BBox()
	}
	pairs := 0
	distinct := map[[2]geom.Digest]bool{}
	rtree.Build(len(b), func(j int32) geom.BBox { return boxB[j] }).JoinVisit(len(a),
		func(i int32) geom.BBox { return a[i].BBox() },
		func(j int32) geom.BBox { return boxB[j] },
		func(i, j int32) {
			pairs++
			distinct[[2]geom.Digest{geom.Hash(a[i]), geom.Hash(b[j])}] = true
		})
	if st.CandidatePairs != pairs || len(distinct) == pairs {
		t.Fatalf("%d candidate pairs (join: %d), %d distinct: want repeats",
			st.CandidatePairs, pairs, len(distinct))
	}
	if len(counts) != len(distinct) {
		t.Fatalf("engine saw %d digest pairs, the join has %d", len(counts), len(distinct))
	}
	for k, n := range counts {
		if n != 1 || !distinct[k] {
			t.Fatalf("digest pair %v clipped %d times (a candidate: %v)", k, n, distinct[k])
		}
	}
	if st.Cache.Misses != uint64(len(distinct)) || st.Cache.Entries != len(distinct) ||
		st.Cache.Hits+st.Cache.Misses != uint64(st.CandidatePairs) || st.Cache.Bytes != 0 {
		t.Fatalf("cache stats %+v for %d pairs, %d distinct", st.Cache, st.CandidatePairs, len(distinct))
	}
	ref, _, err := Overlay(context.Background(), a, b, engine.Intersection, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if render(outs) != render(ref) {
		t.Fatal("grouped outputs differ from vatti's")
	}
}

// TestOverlayLeavesSharedCacheAlone: a batch overlay keeps nothing past the
// call, so the process-wide cache the tile pipeline uses does not move.
func TestOverlayLeavesSharedCacheAlone(t *testing.T) {
	a, b := testLayers(200, 0.5)
	before := acache.Shared().Stats()
	if _, _, err := Overlay(context.Background(), a, b, engine.Union, Options{Threads: 2}); err != nil {
		t.Fatal(err)
	}
	if after := acache.Shared().Stats(); after != before {
		t.Fatalf("shared cache moved: %+v -> %+v", before, after)
	}
}

func TestOverlayOps(t *testing.T) {
	a, b := testLayers(60, 0)
	for _, op := range engine.Ops() {
		outs, _, err := Overlay(context.Background(), a, b, op,
			Options{Threads: 2})
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		// Union/xor of overlapping pairs always produce output.
		if (op == engine.Union || op == engine.Xor) && len(outs) == 0 {
			t.Fatalf("%v produced no outputs", op)
		}
	}
}

func TestOverlayValidation(t *testing.T) {
	a, b := testLayers(4, 0)
	_, _, err := Overlay(context.Background(), a, b, engine.Intersection, Options{Engine: "no-such-engine"})
	if !errors.Is(err, engine.ErrUnsupported) {
		t.Fatalf("unknown engine: %v", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "no-such-engine") || strings.Contains(msg, "rule") {
		t.Errorf("unknown engine: error %q must name the engine and no fill rule", msg)
	}
	if _, _, err := Overlay(context.Background(), a, b, engine.Intersection,
		Options{Rule: engine.FillRule(9)}); !errors.Is(err, engine.ErrUnsupported) {
		t.Fatalf("FillRule(9): %v", err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := Overlay(cancelled, a, b, engine.Intersection, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: %v", err)
	}
	outs, st, err := Overlay(context.Background(), nil, b, engine.Intersection, Options{})
	if err != nil || len(outs) != 0 || st.CandidatePairs != 0 {
		t.Fatalf("empty layer: %v %v %+v", outs, err, st)
	}
}

// panicEngine always panics: the rescue fixture.
type panicEngine struct{}

func (panicEngine) Name() string { return "batch-test-panic" }
func (panicEngine) Clip(context.Context, geom.Polygon, geom.Polygon, engine.Op, engine.Options) (engine.Result, error) {
	panic("batch-test-panic engine always panics")
}

func init() { engine.Register(panicEngine{}) }

// TestOverlayPanicRescue: a panicking primary engine is rescued per pair by
// engine.Reference (vatti); with NoFallback the ClipError surfaces, naming
// the pair.
func TestOverlayPanicRescue(t *testing.T) {
	a, b := testLayers(40, 0)
	outs, st, err := Overlay(context.Background(), a, b, engine.Intersection,
		Options{Engine: "batch-test-panic", Threads: 2})
	if err != nil {
		t.Fatalf("rescue failed: %v", err)
	}
	if st.Rescued == 0 || st.Rescued != st.CandidatePairs {
		t.Fatalf("rescued %d of %d pairs", st.Rescued, st.CandidatePairs)
	}
	ref, _, err := Overlay(context.Background(), a, b, engine.Intersection,
		Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The rescue ran vatti, the default engine: the areas must match.
	var got, want float64
	for _, o := range outs {
		got += o.Poly.Area()
	}
	for _, o := range ref {
		want += o.Poly.Area()
	}
	if diff := got - want; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("rescued area %v != reference %v", got, want)
	}

	_, _, err = Overlay(context.Background(), a, b, engine.Intersection,
		Options{Engine: "batch-test-panic", NoFallback: true})
	var ce *guard.ClipError
	if !errors.As(err, &ce) {
		t.Fatalf("NoFallback: want *guard.ClipError, got %v", err)
	}
	if ce.Pair == guard.NoPair {
		t.Fatal("ClipError does not name the pair")
	}
}

func TestReadFeaturesWKT(t *testing.T) {
	in := "POLYGON ((0 0, 2 0, 2 2, 0 2))\n\n  MULTIPOLYGON (((4 4, 5 4, 5 5)), ((6 6, 7 6, 7 7)))\n"
	fs, err := ReadFeatures(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 2 || len(fs[1]) != 2 {
		t.Fatalf("got %d features (feature 1: %d rings)", len(fs), len(fs[1]))
	}
	if _, err := ReadFeatures(strings.NewReader("POLYGON ((bogus))\n")); err == nil ||
		!strings.Contains(err.Error(), "line 1") {
		t.Fatalf("bad WKT: %v", err)
	}
}

func TestReadFeaturesGeoJSON(t *testing.T) {
	fc := `  {"type":"FeatureCollection","features":[
		{"type":"Feature","geometry":{"type":"Polygon","coordinates":[[[0,0],[2,0],[2,2],[0,2],[0,0]]]}}]}`
	fs, err := ReadFeatures(strings.NewReader(fc))
	if err != nil || len(fs) != 1 {
		t.Fatalf("FeatureCollection: %v (%d features)", err, len(fs))
	}
	nd := `{"type":"Polygon","coordinates":[[[0,0],[1,0],[1,1],[0,0]]]}
{"type":"Polygon","coordinates":[[[3,3],[4,3],[4,4],[3,3]]]}`
	fs, err = ReadFeatures(strings.NewReader(nd))
	if err != nil || len(fs) != 2 {
		t.Fatalf("ndjson: %v (%d features)", err, len(fs))
	}
	fs, err = ReadFeatures(strings.NewReader("  \n\t "))
	if err != nil || len(fs) != 0 {
		t.Fatalf("blank input: %v (%d features)", err, len(fs))
	}
}

// TestOverlayFromStreams wires ReadFeatures into Overlay end to end.
func TestOverlayFromStreams(t *testing.T) {
	a := "POLYGON ((0 0, 4 0, 4 4, 0 4))\n"
	b := "POLYGON ((2 2, 6 2, 6 6, 2 6))\n"
	fa, err := ReadFeatures(strings.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	fb, err := ReadFeatures(strings.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	outs, _, err := Overlay(context.Background(), fa, fb, engine.Intersection, Options{})
	if err != nil || len(outs) != 1 {
		t.Fatalf("%v (%d outputs)", err, len(outs))
	}
	if area := outs[0].Poly.Area(); area < 3.99 || area > 4.01 {
		t.Fatalf("intersection area %v, want 4", area)
	}
}

package polyclip

import (
	"context"
	"math"
	"strings"
	"testing"
)

func rect(minX, minY, maxX, maxY float64) Polygon {
	return Polygon{Ring{
		{X: minX, Y: minY}, {X: maxX, Y: minY}, {X: maxX, Y: maxY}, {X: minX, Y: maxY},
	}}
}

func TestClipAllOps(t *testing.T) {
	a := rect(0, 0, 4, 4)
	b := rect(2, 2, 6, 6)
	cases := map[Op]float64{Intersection: 4, Union: 28, Difference: 12, Xor: 24}
	for op, want := range cases {
		if got := Area(Clip(a, b, op)); math.Abs(got-want) > 1e-6 {
			t.Errorf("%v: area = %v, want %v", op, got, want)
		}
	}
}

func TestClipWithAllAlgorithms(t *testing.T) {
	a := rect(0, 0, 4, 4)
	b := rect(2, 2, 6, 6)
	for _, alg := range []Algorithm{AlgoOverlay, AlgoSlabs, AlgoScanbeam, AlgoSequential} {
		got, _ := ClipWith(a, b, Intersection, Options{Algorithm: alg, Threads: 3})
		if math.Abs(Area(got)-4) > 1e-6 {
			t.Errorf("algorithm %d: area = %v", alg, Area(got))
		}
	}
}

func TestClipWithStatsFromSlabs(t *testing.T) {
	a := rect(0, 0, 4, 4)
	b := rect(2, 2, 6, 6)
	_, st := ClipWith(a, b, Union, Options{Algorithm: AlgoSlabs, Threads: 2})
	if st == nil || st.Slabs < 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestTrapezoids(t *testing.T) {
	a := rect(0, 0, 4, 4)
	b := rect(2, 2, 6, 6)
	tzs := Trapezoids(a, b, Intersection)
	var sum float64
	for _, tz := range tzs {
		sum += tz.Area()
	}
	if math.Abs(sum-4) > 1e-6 {
		t.Errorf("trapezoid area = %v", sum)
	}
}

func TestOverlayLayers(t *testing.T) {
	la := Layer{rect(0, 0, 2, 2), rect(4, 0, 6, 2)}
	lb := Layer{rect(1, 1, 5, 3)}
	got, st, err := OverlayBatchLayersCtx(context.Background(), la, lb, Intersection, BatchOptions{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, g := range got {
		sum += Area(g.Poly)
	}
	if math.Abs(sum-2) > 1e-6 {
		t.Errorf("layer overlay area = %v (results=%d)", sum, len(got))
	}
	if st.CandidatePairs != 2 {
		t.Errorf("%d candidate pairs, want 2", st.CandidatePairs)
	}
	// Merged, each layer is one region: the union counts the overlap once,
	// and the intersection is the two 1x1 corners the band covers.
	for op, want := range map[Op]float64{Union: 4 + 4 + 8 - 2, Intersection: 2} {
		merged, _ := OverlayLayersMerged(la, lb, op, Options{Threads: 2})
		if math.Abs(Area(merged)-want) > 1e-6 {
			t.Errorf("merged %v area = %v, want %v", op, Area(merged), want)
		}
	}
}

func TestWKTRoundTrip(t *testing.T) {
	a := rect(0, 0, 4, 4)
	s := FormatWKT(a)
	got, err := ParseWKT(s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(Area(got)-16) > 1e-9 {
		t.Errorf("area = %v", Area(got))
	}
}

func TestQuickstartDocExample(t *testing.T) {
	a := rect(0, 0, 4, 4)
	b := rect(2, 2, 6, 6)
	out := Clip(a, b, Intersection)
	if math.Abs(Area(out)-4) > 1e-6 {
		t.Errorf("doc example area = %v", Area(out))
	}
}

func TestUnionAllAndIntersectAll(t *testing.T) {
	tiles := []Polygon{
		rect(0, 0, 2, 2), rect(1, 0, 3, 2), rect(2, 0, 4, 2),
	}
	u := UnionAll(tiles, Options{Threads: 2})
	if math.Abs(Area(u)-8) > 1e-6 {
		t.Errorf("dissolve area = %v, want 8", Area(u))
	}
	i := IntersectAll(tiles, Options{Threads: 2})
	if Area(i) > 1e-9 {
		t.Errorf("3-way intersection = %v, want 0", Area(i))
	}
	over := []Polygon{rect(0, 0, 4, 4), rect(1, 1, 5, 5), rect(2, 2, 6, 6)}
	i2 := IntersectAll(over, Options{Threads: 2})
	if math.Abs(Area(i2)-4) > 1e-6 {
		t.Errorf("3-way overlap = %v, want 4", Area(i2))
	}
}

func TestNonZeroRulePublicAPI(t *testing.T) {
	// Two same-direction overlapping rings: NonZero treats them as a union.
	p := Polygon{
		Ring{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 4, Y: 4}, {X: 0, Y: 4}},
		Ring{{X: 2, Y: 2}, {X: 6, Y: 2}, {X: 6, Y: 6}, {X: 2, Y: 6}},
	}
	frame := rect(-1, -1, 7, 7)
	nz, st := ClipWith(p, frame, Intersection, Options{Rule: NonZero})
	if math.Abs(Area(nz)-28) > 1e-6 {
		t.Errorf("nonzero area = %v, want 28", Area(nz))
	}
	if st.Engine != "overlay" {
		t.Errorf("nonzero clip ran engine %q, want overlay", st.Engine)
	}
	eo, _ := ClipWith(p, frame, Intersection, Options{})
	if math.Abs(Area(eo)-24) > 1e-6 {
		t.Errorf("even-odd area = %v, want 24", Area(eo))
	}
}

func TestWindingRulesAllAlgorithmsPublicAPI(t *testing.T) {
	// Every strategy now hosts every fill rule: the same winding-sensitive
	// input must produce the analytic area through each Algorithm, with no
	// fallback rescue masking a primary-engine failure.
	p := Polygon{
		Ring{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 4, Y: 4}, {X: 0, Y: 4}},
		Ring{{X: 2, Y: 2}, {X: 6, Y: 2}, {X: 6, Y: 6}, {X: 2, Y: 6}},
	}
	frame := rect(-1, -1, 7, 7)
	want := map[FillRule]float64{NonZero: 28, Positive: 28, Negative: 0, EvenOdd: 24}
	for _, algo := range []Algorithm{AlgoOverlay, AlgoSlabs, AlgoScanbeam, AlgoSequential} {
		for rule, area := range want {
			out, st, err := ClipCtx(context.Background(), p, frame, Intersection,
				Options{Rule: rule, Algorithm: algo, NoFallback: true})
			if err != nil {
				t.Errorf("algo=%d rule=%v: %v", algo, rule, err)
				continue
			}
			if math.Abs(Area(out)-area) > 1e-6 {
				t.Errorf("algo=%d rule=%v: area = %v, want %v", algo, rule, Area(out), area)
			}
			if len(st.Resilience.Attempts) != 1 || !strings.HasSuffix(st.Resilience.Attempts[0], ":ok") {
				t.Errorf("algo=%d rule=%v: attempts %v, want one clean attempt", algo, rule, st.Resilience.Attempts)
			}
		}
	}
}

func TestGeoJSONRoundTripPublicAPI(t *testing.T) {
	a := rect(0, 0, 4, 4)
	raw, err := FormatGeoJSON(a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseGeoJSON(raw)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(Area(got)-16) > 1e-12 {
		t.Errorf("area = %v", Area(got))
	}
	layer := Layer{rect(0, 0, 1, 1), rect(2, 2, 3, 3)}
	lraw, err := FormatGeoJSONLayer(layer)
	if err != nil {
		t.Fatal(err)
	}
	lgot, err := ParseGeoJSONLayer(lraw)
	if err != nil || len(lgot) != 2 {
		t.Fatalf("layer round trip: %v %v", lgot, err)
	}
}

// TestFormatGeoJSONNonFinite: a non-finite coordinate is an error naming
// its ring and vertex, not a panic.
func TestFormatGeoJSONNonFinite(t *testing.T) {
	bad := Polygon{Ring{{X: 0, Y: 0}, {X: 1, Y: math.NaN()}, {X: 1, Y: 1}}}
	if raw, err := FormatGeoJSON(bad); err == nil || raw != nil ||
		!strings.HasPrefix(err.Error(), "geojson: ring 0: vertex 1: non-finite coordinate") {
		t.Errorf("FormatGeoJSON: %q, %v", raw, err)
	}
	if raw, err := FormatGeoJSONLayer(Layer{rect(0, 0, 1, 1), bad}); err == nil || raw != nil ||
		!strings.HasPrefix(err.Error(), "geojson: feature 1: ring 0: vertex 1: non-finite coordinate") {
		t.Errorf("FormatGeoJSONLayer: %q, %v", raw, err)
	}
}

// TestDegenerateInputsAllAlgorithmsAgree feeds classic degenerate inputs to
// every execution strategy and checks they neither crash nor disagree: the
// repair pass normalizes the garbage away, so all four engines must land on
// the same region.
func TestDegenerateInputsAllAlgorithmsAgree(t *testing.T) {
	clip := rect(2, 2, 6, 6)
	cases := []struct {
		name    string
		subject Polygon
		area    float64 // expected intersection area with clip
	}{
		{"empty polygon", Polygon{}, 0},
		{"single-point ring", Polygon{{{X: 3, Y: 3}}}, 0},
		{"two-point ring", Polygon{{{X: 3, Y: 3}, {X: 5, Y: 5}}}, 0},
		{"all-collinear ring", Polygon{{{X: 0, Y: 0}, {X: 2, Y: 2}, {X: 4, Y: 4}, {X: 3, Y: 3}}}, 0},
		{"duplicate consecutive vertices", Polygon{{
			{X: 0, Y: 0}, {X: 0, Y: 0}, {X: 4, Y: 0}, {X: 4, Y: 4}, {X: 4, Y: 4}, {X: 0, Y: 4},
		}}, 4},
		{"zero-area spike", Polygon{{
			{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 8, Y: 0}, {X: 4, Y: 0}, {X: 4, Y: 4}, {X: 0, Y: 4},
		}}, 4},
		{"explicitly closed ring", Polygon{{
			{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 4, Y: 4}, {X: 0, Y: 4}, {X: 0, Y: 0},
		}}, 4},
	}
	algs := []struct {
		name string
		alg  Algorithm
	}{
		{"overlay", AlgoOverlay}, {"slabs", AlgoSlabs},
		{"scanbeam", AlgoScanbeam}, {"sequential", AlgoSequential},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, a := range algs {
				out, _ := ClipWith(tc.subject, clip, Intersection, Options{Algorithm: a.alg})
				if got := Area(out); math.Abs(got-tc.area) > 1e-9 {
					t.Errorf("%s: area %g, want %g (result %v)", a.name, got, tc.area, out)
				}
			}
		})
	}
}

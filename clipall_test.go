package polyclip

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"polyclip/internal/guard"
)

// clipAll runs ClipAllCtx and fails the test on an error.
func clipAll(t *testing.T, polys []Polygon, op Op, opt Options) Polygon {
	t.Helper()
	out, err := ClipAllCtx(context.Background(), polys, op, opt)
	if err != nil {
		t.Fatalf("ClipAllCtx(%v): %v", op, err)
	}
	return out
}

func TestUnionAllAndIntersectAll(t *testing.T) {
	tiles := []Polygon{
		rect(0, 0, 2, 2), rect(1, 0, 3, 2), rect(2, 0, 4, 2),
	}
	u := clipAll(t, tiles, Union, Options{Threads: 2})
	if math.Abs(Area(u)-8) > 1e-6 {
		t.Errorf("dissolve area = %v, want 8", Area(u))
	}
	i := clipAll(t, tiles, Intersection, Options{Threads: 2})
	if Area(i) > 1e-9 {
		t.Errorf("3-way intersection = %v, want 0", Area(i))
	}
	over := []Polygon{rect(0, 0, 4, 4), rect(1, 1, 5, 5), rect(2, 2, 6, 6)}
	i2 := clipAll(t, over, Intersection, Options{Threads: 2})
	if math.Abs(Area(i2)-4) > 1e-6 {
		t.Errorf("3-way overlap = %v, want 4", Area(i2))
	}
}

func TestUnionAllGrid(t *testing.T) {
	// 4x4 grid of unit squares sharing edges dissolves into one 4x4 square.
	var polys []Polygon
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			polys = append(polys, rect(float64(i), float64(j), float64(i+1), float64(j+1)))
		}
	}
	got := clipAll(t, polys, Union, Options{Threads: 4})
	if math.Abs(Area(got)-16) > 1e-6 {
		t.Errorf("dissolved area = %v, want 16", Area(got))
	}
	if len(got) != 1 {
		t.Errorf("rings = %d, want 1", len(got))
	}
}

func TestUnionAllEmptyAndSingle(t *testing.T) {
	if got := clipAll(t, nil, Union, Options{Threads: 2}); got != nil {
		t.Errorf("union of nil = %v", got)
	}
	single := []Polygon{rect(0, 0, 1, 1)}
	if got := clipAll(t, single, Union, Options{Threads: 2}); math.Abs(Area(got)-1) > 1e-12 {
		t.Errorf("single = %v", Area(got))
	}
}

func TestIntersectAll(t *testing.T) {
	polys := []Polygon{rect(0, 0, 10, 10), rect(2, 0, 12, 10), rect(4, 0, 14, 10)}
	got := clipAll(t, polys, Intersection, Options{Threads: 2})
	if math.Abs(Area(got)-60) > 1e-6 {
		t.Errorf("common area = %v, want 60", Area(got))
	}
	// Disjoint operand empties the result.
	polys = append(polys, rect(100, 100, 101, 101))
	if got := clipAll(t, polys, Intersection, Options{Threads: 2}); Area(got) > 1e-9 {
		t.Errorf("disjoint intersection = %v", Area(got))
	}
	if got := clipAll(t, nil, Intersection, Options{Threads: 2}); got != nil {
		t.Errorf("intersection of nil = %v", got)
	}
}

// TestClipAllCtxHonoursRule: the tree clips under the caller's fill rule.
// The first operand is two same-direction overlapping squares, whose
// NonZero region is their union (28), not their even-odd xor (24).
func TestClipAllCtxHonoursRule(t *testing.T) {
	twice := Polygon{rect(0, 0, 4, 4)[0], rect(2, 2, 6, 6)[0]}
	opt := Options{Rule: NonZero, Threads: 2}
	if got := Area(clipAll(t, []Polygon{twice, rect(10, 10, 11, 11)}, Union, opt)); math.Abs(got-29) > 1e-9 {
		t.Errorf("NonZero union = %v, want 29", got)
	}
	if got := Area(clipAll(t, []Polygon{twice, rect(1, 1, 5, 5)}, Intersection, opt)); math.Abs(got-14) > 1e-9 {
		t.Errorf("NonZero intersection = %v, want 14", got)
	}

	// Negative reads clockwise rings as inside, and the canonical
	// (counter-clockwise) output of a lower level as outside; the tree must
	// still read 16 + 16 - 8 + 1.
	squares := []Polygon{reversed(rect(0, 0, 4, 4)), reversed(rect(2, 0, 6, 4)), reversed(rect(10, 10, 11, 11))}
	if got := Area(clipAll(t, squares, Union, Options{Rule: Negative, Threads: 2})); math.Abs(got-25) > 1e-9 {
		t.Errorf("Negative union of three clockwise squares = %v, want 25", got)
	}
}

func TestClipAllCtxRejectsInvalidOperand(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		polys := []Polygon{rect(0, 0, 4, 4), rect(2, 2, 6, 6), {{{X: 0, Y: 0}, {X: bad, Y: 0}, {X: 1, Y: 1}}}}
		for _, op := range []Op{Union, Intersection} {
			out, err := ClipAllCtx(context.Background(), polys, op, Options{})
			if !errors.Is(err, ErrInvalidInput) {
				t.Fatalf("%v vertex, %v: err %v, want ErrInvalidInput", bad, op, err)
			}
			if !strings.Contains(err.Error(), "operand 2") {
				t.Errorf("%v vertex, %v: error %q does not name operand 2", bad, op, err)
			}
			if out != nil {
				t.Errorf("%v vertex, %v: result %v returned with the error", bad, op, out)
			}
		}
	}
}

func TestClipAllCtxRejectsDifferenceAndBadOptions(t *testing.T) {
	polys := []Polygon{rect(0, 0, 4, 4), rect(2, 2, 6, 6)}
	for name, tc := range map[string]struct {
		op  Op
		opt Options
	}{
		"difference": {Difference, Options{}},
		"algorithm":  {Union, Options{Algorithm: AlgoSequential + 1}},
		"rule":       {Union, Options{Rule: Negative + 1}},
	} {
		if _, err := ClipAllCtx(context.Background(), polys, tc.op, tc.opt); !errors.Is(err, ErrUnsupported) {
			t.Errorf("%s: err %v, want ErrUnsupported", name, err)
		}
	}
}

// TestClipAllCtxFailuresAreErrors: a panic in the tree's own loop, a failed
// pair chain and a cancelled ctx all come back as errors.
func TestClipAllCtxFailuresAreErrors(t *testing.T) {
	polys := []Polygon{rect(0, 0, 4, 4), rect(2, 2, 6, 6), rect(1, 1, 3, 3)}
	t.Run("tree-panic", func(t *testing.T) {
		guard.WithFault(t, "par.worker", guard.Once(func() { panic("injected worker crash") }))
		_, err := ClipAllCtx(context.Background(), polys, Union, Options{Threads: 2})
		var ce *ClipError
		if !errors.As(err, &ce) {
			t.Fatalf("err %T (%v), want a *ClipError", err, err)
		}
		if ce.Stage != "clip-all" {
			t.Errorf("stage %q, want clip-all", ce.Stage)
		}
	})
	t.Run("pair-chain", func(t *testing.T) {
		guard.WithFault(t, "overlay.clip", guard.Once(func() { panic("injected engine crash") }))
		_, err := ClipAllCtx(context.Background(), polys, Union, Options{Threads: 1, NoFallback: true})
		var ce *ClipError
		if !errors.As(err, &ce) || ce.Stage != "clip" {
			t.Fatalf("err %v, want the pair chain's *ClipError", err)
		}
	})
	t.Run("canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if out, err := ClipAllCtx(ctx, polys, Union, Options{}); !errors.Is(err, context.Canceled) || out != nil {
			t.Fatalf("got %v, %v; want nil, context.Canceled", out, err)
		}
	})
}

// TestClipAllCtxPairMatchesClipCtx: on two operands the tree is one pair
// clip, so its area must match ClipCtx's over the golden corpus, for every
// op it serves, every rule and every Algorithm.
func TestClipAllCtxPairMatchesClipCtx(t *testing.T) {
	algs := []Algorithm{AlgoOverlay, AlgoSlabs, AlgoScanbeam, AlgoSequential}
	rules := []FillRule{EvenOdd, NonZero, Positive, Negative}
	for _, c := range corpusGeometries() {
		a, err := ParseWKT(c.Subject)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ParseWKT(c.Clip)
		if err != nil {
			t.Fatal(err)
		}
		scale := guard.MeasureBound(a) + guard.MeasureBound(b)
		for _, op := range []Op{Union, Intersection, Xor} {
			for _, rule := range rules {
				for _, alg := range algs {
					opt := Options{Algorithm: alg, Rule: rule, Threads: 2}
					want, _, err := ClipCtx(context.Background(), a, b, op, opt)
					if err != nil {
						t.Fatalf("%s %v rule %v alg %d: ClipCtx: %v", c.Name, op, rule, alg, err)
					}
					got, err := ClipAllCtx(context.Background(), []Polygon{a, b}, op, opt)
					if err != nil {
						t.Fatalf("%s %v rule %v alg %d: ClipAllCtx: %v", c.Name, op, rule, alg, err)
					}
					if d := math.Abs(Area(got) - Area(want)); d > 1e-6*math.Max(scale, Area(want)) {
						t.Errorf("%s %v rule %v alg %d: area %g, ClipCtx %g", c.Name, op, rule, alg, Area(got), Area(want))
					}
				}
			}
		}
	}
}

package engine_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"polyclip/internal/arrange"
	"polyclip/internal/engine"
	"polyclip/internal/geom"
	"polyclip/internal/guard"
	"polyclip/internal/wkt"

	// Registers all four engines: core contributes slabs + scanbeam and links
	// overlay + vatti for theirs.
	_ "polyclip/internal/core"
)

// diffCase mirrors the golden differential corpus schema (see the root
// package's differential test, which owns regeneration).
type diffCase struct {
	Name    string             `json:"name"`
	Subject string             `json:"subject"`
	Clip    string             `json:"clip"`
	Areas   map[string]float64 `json:"areas"`
}

const corpusDir = "../../testdata/differential"

// corpusCase is one parsed golden case.
type corpusCase struct {
	name          string
	subject, clip geom.Polygon
	areas         map[string]float64
}

// goldenCorpus loads and parses every case of the golden differential corpus.
func goldenCorpus(t *testing.T) []corpusCase {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(corpusDir, "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden files in %s (err=%v)", corpusDir, err)
	}
	var out []corpusCase
	for _, fn := range files {
		raw, err := os.ReadFile(fn)
		if err != nil {
			t.Fatal(err)
		}
		var c diffCase
		if err := json.Unmarshal(raw, &c); err != nil {
			t.Fatalf("%s: %v", fn, err)
		}
		subj, err := wkt.Unmarshal(c.Subject)
		if err != nil {
			t.Fatalf("%s: subject WKT: %v", c.Name, err)
		}
		clip, err := wkt.Unmarshal(c.Clip)
		if err != nil {
			t.Fatalf("%s: clip WKT: %v", c.Name, err)
		}
		out = append(out, corpusCase{c.Name, subj, clip, c.Areas})
	}
	return out
}

// TestConformanceGoldenCorpus runs every registered engine against the golden
// differential corpus: each engine must reproduce the pinned area of every
// operation on every case, with internal fallbacks disabled so a drifting
// engine fails by name rather than being silently rescued.
func TestConformanceGoldenCorpus(t *testing.T) {
	engines := engine.All()
	if len(engines) < 4 {
		t.Fatalf("registry has %d engines, want at least 4 (overlay, scanbeam, slabs, vatti)", len(engines))
	}
	for _, c := range goldenCorpus(t) {
		t.Run(c.name, func(t *testing.T) {
			scale := guard.MeasureBound(c.subject) + guard.MeasureBound(c.clip)
			for _, op := range engine.Ops() {
				want, ok := c.areas[op.String()]
				if !ok {
					t.Fatalf("golden file has no %s area", op)
				}
				for _, e := range engines {
					res, err := e.Clip(context.Background(), c.subject, c.clip, op,
						engine.Options{Threads: 4, NoFallback: true})
					if err != nil {
						t.Errorf("%s %s: %v", e.Name(), op, err)
						continue
					}
					if got := res.Polygon.Area(); math.Abs(got-want) > 1e-6*math.Max(scale, want) {
						t.Errorf("%s %s: area = %g, want %g", e.Name(), op, got, want)
					}
				}
			}
		})
	}
}

// TestConformanceEvenOddRegions holds every registered engine to the
// even-odd region of operands whose own edges cross or coincide, read as
// the parity of the winding each engine carries: a bowtie's two lobes at
// every coordinate scale, a pentagram's five tips (its doubly wound centre
// is outside), a doubled ring's empty region, and two rectangles sharing
// an edge fused into one. Each region is taken both as the operand united
// with nothing and as its intersection with a box that covers it.
func TestConformanceEvenOddRegions(t *testing.T) {
	rect := func(x0, y0, x1, y1 float64) geom.Ring {
		return geom.Ring{{X: x0, Y: y0}, {X: x1, Y: y0}, {X: x1, Y: y1}, {X: x0, Y: y1}}
	}
	type region struct {
		name string
		p    geom.Polygon
		area float64
	}
	var cases []region
	for _, s := range []float64{1e100, 1, 1e-100} {
		bowtie := geom.Ring{{X: -s, Y: -s}, {X: s, Y: s}, {X: s, Y: -s}, {X: -s, Y: s}}
		cases = append(cases, region{fmt.Sprintf("bowtie/scale=%g", s), geom.Polygon{bowtie}, 2 * s * s})
	}
	square := rect(0, 0, 3, 3)
	cases = append(cases,
		region{"pentagram", geom.Polygon{polygram(5, 10)}, polygramArea(5, 10)},
		region{"doubled-ring", geom.Polygon{square, square.Clone()}, 0},
		region{"rects-sharing-edge", geom.Polygon{rect(0, 0, 1, 1), rect(1, 0, 2, 1)}, 2},
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			box := c.p.BBox()
			cover := geom.Polygon{rect(2*box.MinX, 2*box.MinY, 2*box.MaxX, 2*box.MaxY)}
			for _, e := range engine.All() {
				for _, run := range []struct {
					op   engine.Op
					clip geom.Polygon
				}{{engine.Union, nil}, {engine.Intersection, cover}} {
					res, err := e.Clip(context.Background(), c.p, run.clip, run.op,
						engine.Options{Threads: 4, Rule: engine.EvenOdd, NoFallback: true})
					if err != nil {
						t.Fatalf("%s %s: %v", e.Name(), run.op, err)
					}
					got := res.Polygon.Area()
					if c.area == 0 && len(res.Polygon) != 0 || math.Abs(got-c.area) > 1e-9*c.area {
						t.Errorf("%s %s: area = %g (%d rings), want %g", e.Name(), run.op, got, len(res.Polygon), c.area)
					}
				}
			}
		})
	}
}

// polygram returns the {n/2} star polygon with circumradius r: each vertex
// joined to the one two steps on.
func polygram(n int, r float64) geom.Ring {
	ring := make(geom.Ring, n)
	for i := range ring {
		a := math.Pi/2 + 2*math.Pi*float64(i*2%n)/float64(n)
		ring[i] = geom.Point{X: r * math.Cos(a), Y: r * math.Sin(a)}
	}
	return ring
}

// polygramArea is the even-odd area of the {n/2} polygram with
// circumradius R: the ring-sum area (n/2)·R²·sin(4π/n), which counts the
// doubly wound inner n-gon twice, less twice that n-gon, n·r²·sin(2π/n)
// for its circumradius r = R·cos(2π/n)/cos(π/n).
func polygramArea(n int, R float64) float64 {
	fn := float64(n)
	r := R * math.Cos(2*math.Pi/fn) / math.Cos(math.Pi/fn)
	return fn/2*R*R*math.Sin(4*math.Pi/fn) - fn*r*r*math.Sin(2*math.Pi/fn)
}

// TestConformancePreResolved pins the one resolve seam: each slab host
// (overlay, vatti), handed the corpus pair already resolved
// (arrange.ResolvePair) with PreResolved set, must return the same area as
// it does on the raw pair — over the golden corpus, every rule and every
// operation.
func TestConformancePreResolved(t *testing.T) {
	hosts := []engine.Engine{engine.MustGet("overlay"), engine.MustGet("vatti")}
	for _, c := range goldenCorpus(t) {
		t.Run(c.name, func(t *testing.T) {
			scale := guard.MeasureBound(c.subject) + guard.MeasureBound(c.clip)
			ra, rb := arrange.ResolvePair(c.subject, c.clip)
			for _, rule := range engine.Rules() {
				for _, op := range engine.Ops() {
					for _, e := range hosts {
						opt := engine.Options{Threads: 1, Rule: rule, NoFallback: true}
						raw, err := e.Clip(context.Background(), c.subject, c.clip, op, opt)
						if err != nil {
							t.Fatalf("%s %s/%s raw: %v", e.Name(), rule, op, err)
						}
						opt.PreResolved = true
						pre, err := e.Clip(context.Background(), ra, rb, op, opt)
						if err != nil {
							t.Fatalf("%s %s/%s pre-resolved: %v", e.Name(), rule, op, err)
						}
						want := raw.Polygon.Area()
						if got := pre.Polygon.Area(); math.Abs(got-want) > 1e-6*math.Max(scale, want) {
							t.Errorf("%s %s/%s: pre-resolved area = %g, raw area = %g", e.Name(), rule, op, got, want)
						}
					}
				}
			}
		})
	}
}

// reverse returns p with every ring's direction flipped (CCW <-> CW).
func reverse(p geom.Polygon) geom.Polygon {
	out := make(geom.Polygon, len(p))
	for i, r := range p {
		nr := make(geom.Ring, len(r))
		for j := range r {
			nr[j] = r[len(r)-1-j]
		}
		out[i] = nr
	}
	return out
}

// TestConformanceRuleMatrix drives every registered engine through the full
// fill-rule x operation matrix on winding-sensitive inputs (two
// same-direction overlapping rings, in both orientations, whose region
// differs between every pair of rules). Every cell must produce the analytic
// area.
func TestConformanceRuleMatrix(t *testing.T) {
	// Both rings CCW: winding +1 each, +2 on the overlap square.
	ccwSubject := geom.Polygon{
		{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 4, Y: 4}, {X: 0, Y: 4}},
		{{X: 2, Y: 2}, {X: 6, Y: 2}, {X: 6, Y: 6}, {X: 2, Y: 6}},
	}
	ccwFrame := geom.RectPolygon(-1, -1, 7, 7) // area 64, contains the subject
	scenarios := []struct {
		name          string
		subject, clip geom.Polygon
		want          map[engine.FillRule]map[engine.Op]float64
	}{
		{
			name: "ccw", subject: ccwSubject, clip: ccwFrame,
			want: map[engine.FillRule]map[engine.Op]float64{
				// EvenOdd: the doubly-covered overlap square is a hole; region = 24.
				engine.EvenOdd: {
					engine.Intersection: 24, engine.Union: 64,
					engine.Difference: 0, engine.Xor: 40,
				},
				// NonZero: same-direction overlap stays interior; region = 28.
				engine.NonZero: {
					engine.Intersection: 28, engine.Union: 64,
					engine.Difference: 0, engine.Xor: 36,
				},
				// Positive: all winding is positive, so Positive == NonZero.
				engine.Positive: {
					engine.Intersection: 28, engine.Union: 64,
					engine.Difference: 0, engine.Xor: 36,
				},
				// Negative: nothing winds below zero — both operands are empty.
				engine.Negative: {
					engine.Intersection: 0, engine.Union: 0,
					engine.Difference: 0, engine.Xor: 0,
				},
			},
		},
		{
			// Every ring reversed: winding negates, so Positive and Negative
			// swap while the sign-blind rules are unchanged.
			name: "cw", subject: reverse(ccwSubject), clip: reverse(ccwFrame),
			want: map[engine.FillRule]map[engine.Op]float64{
				engine.EvenOdd: {
					engine.Intersection: 24, engine.Union: 64,
					engine.Difference: 0, engine.Xor: 40,
				},
				engine.NonZero: {
					engine.Intersection: 28, engine.Union: 64,
					engine.Difference: 0, engine.Xor: 36,
				},
				engine.Positive: {
					engine.Intersection: 0, engine.Union: 0,
					engine.Difference: 0, engine.Xor: 0,
				},
				engine.Negative: {
					engine.Intersection: 28, engine.Union: 64,
					engine.Difference: 0, engine.Xor: 36,
				},
			},
		},
	}
	for _, sc := range scenarios {
		for _, e := range engine.All() {
			for _, rule := range engine.Rules() {
				for _, op := range engine.Ops() {
					res, err := e.Clip(context.Background(), sc.subject, sc.clip, op,
						engine.Options{Threads: 2, Rule: rule, NoFallback: true})
					if err != nil {
						t.Errorf("%s %s %s/%s: %v", sc.name, e.Name(), rule, op, err)
						continue
					}
					if got := res.Polygon.Area(); math.Abs(got-sc.want[rule][op]) > 1e-6 {
						t.Errorf("%s %s %s/%s: area = %g, want %g", sc.name, e.Name(), rule, op, got, sc.want[rule][op])
					}
				}
			}
		}
	}
}

// TestConformanceCancellation checks that every engine surfaces an
// already-cancelled context as an error instead of returning a result.
func TestConformanceCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := geom.RectPolygon(0, 0, 4, 4)
	b := geom.RectPolygon(2, 2, 6, 6)
	for _, e := range engine.All() {
		_, err := e.Clip(ctx, a, b, engine.Intersection, engine.Options{Threads: 1})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", e.Name(), err)
		}
	}
}

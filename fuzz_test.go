package polyclip

import (
	"context"
	"errors"
	"math"
	"testing"

	"polyclip/internal/engine"
	"polyclip/internal/guard"
)

// wktSeeds is the degenerate seed corpus shared by the parser and clipping
// fuzz targets: empty geometries, unclosed/duplicated/collinear rings,
// spikes, holes, self-intersections, huge and tiny coordinates, and
// syntactically broken inputs.
var wktSeeds = []string{
	"POLYGON EMPTY",
	"MULTIPOLYGON EMPTY",
	"POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))",
	"POLYGON ((0 0, 4 0, 4 4, 0 4))",
	"POLYGON ((0 0))",
	"POLYGON ((0 0, 1 1))",
	"POLYGON ((0 0, 2 2, 4 4, 3 3))",
	"POLYGON ((0 0, 0 0, 4 0, 4 4, 4 4, 0 4))",
	"POLYGON ((0 0, 4 0, 8 0, 4 0, 4 4, 0 4))",
	"POLYGON ((0 0, 10 0, 10 10, 0 10), (2 2, 8 2, 8 8, 2 8))",
	"POLYGON ((0 0, 4 4, 4 0, 0 4))",
	"POLYGON ((0 8, -4.7 -6.47, 7.6 2.47, -7.6 2.47, 4.7 -6.47))",
	"POLYGON ((1 7, -4.69 -3.37, 6.85 3.67, -4.85 3.67, 6.69 -3.37))",
	"POLYGON ((0 0, 5 1e-8, 10 -1e-8, 15 1e-8, 20 0, 10 8))",
	"MULTIPOLYGON (((0 0, 1 0, 1 1, 0 1)), ((1 1, 2 1, 2 2, 1 2)), ((2 0, 3 0, 3 1, 2 1)))",
	"MULTIPOLYGON (((0 0, 4 0, 4 4, 0 4)), ((10 10, 14 10, 14 14, 10 14)))",
	"POLYGON ((1e100 1e100, 2e100 1e100, 2e100 2e100))",
	"POLYGON ((1e-12 0, 2e-12 0, 2e-12 1e-12))",
	"POLYGON ((-1.5 -2.5, 3.25 -2.5, 3.25 4.75, -1.5 4.75))",
	"POLYGON ((1e999 0, 1 0, 1 1))",
	"POLYGON ((NaN 0, 1 0, 1 1))",
	"POLYGON",
	"POLYGON ((",
	"LINESTRING (0 0, 1 1)",
	"",
}

// FuzzParseWKT checks the WKT parser never panics and never lets a
// non-finite coordinate through.
func FuzzParseWKT(f *testing.F) {
	for _, s := range wktSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParseWKT(s)
		if err != nil {
			return
		}
		if verr := p.Validate(); verr != nil {
			t.Fatalf("accepted invalid polygon from %q: %v", s, verr)
		}
		// Round-trip: what we print must parse again.
		if _, err := ParseWKT(FormatWKT(p)); err != nil {
			t.Fatalf("re-parse of %q failed: %v", FormatWKT(p), err)
		}
	})
}

// FuzzParseGeoJSON checks the GeoJSON parser never panics and never lets a
// non-finite coordinate through.
func FuzzParseGeoJSON(f *testing.F) {
	seeds := []string{
		`{"type":"Polygon","coordinates":[[[0,0],[4,0],[4,4],[0,4],[0,0]]]}`,
		`{"type":"Polygon","coordinates":[]}`,
		`{"type":"Polygon","coordinates":[[[0,0],[0,0],[0,0]]]}`,
		`{"type":"MultiPolygon","coordinates":[[[[0,0],[4,0],[4,4]]],[[[9,9],[12,9],[12,12]]]]}`,
		`{"type":"Feature","geometry":{"type":"Polygon","coordinates":[[[0,0],[1,0],[1,1]]]}}`,
		`{"type":"Polygon","coordinates":[[[1e999,0],[1,0],[1,1]]]}`,
		`{"type":"Point","coordinates":[0,0]}`,
		`{"type":"Polygon"`,
		`null`,
		``,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParseGeoJSON(data)
		if err != nil {
			return
		}
		if verr := p.Validate(); verr != nil {
			t.Fatalf("accepted invalid polygon from %q: %v", data, verr)
		}
	})
}

// FuzzClipRoundTrip throws arbitrary WKT pairs at the hardened clipping
// pipeline: whatever parses must clip without a crash, and the result must
// satisfy the same invariants the audit enforces.
func FuzzClipRoundTrip(f *testing.F) {
	for i, s := range wktSeeds {
		f.Add(s, wktSeeds[(i+2)%len(wktSeeds)], uint8(i%4))
	}
	f.Fuzz(func(t *testing.T, ws, wc string, opByte uint8) {
		subject, err := ParseWKT(ws)
		if err != nil {
			return
		}
		clip, err := ParseWKT(wc)
		if err != nil {
			return
		}
		// Cap the work per input: the fuzzer's job here is crash hunting,
		// not throughput.
		if subject.NumVertices() > 64 || clip.NumVertices() > 64 {
			return
		}
		op := Op(opByte % 4)
		out, _, err := ClipCtx(context.Background(), subject, clip, op, Options{Threads: 2})
		if err != nil {
			// Invalid inputs (overflowing coordinates) are allowed to be
			// rejected — but only with a real error, never a panic.
			return
		}
		for ri, r := range out {
			if len(r) < 3 {
				t.Fatalf("ring %d of result has %d vertices (ops %q %v %q)", ri, len(r), ws, op, wc)
			}
		}
		a := Area(out)
		if math.IsNaN(a) || math.IsInf(a, 0) {
			t.Fatalf("non-finite result area (ops %q %v %q)", ws, op, wc)
		}
		// Differential oracle on every surviving input — self-intersecting
		// and near-collinear seeds included: the sequential Vatti sweep must
		// agree with the default engine's measure (no fallback, so a
		// disagreement cannot be rescued away).
		seq, _, err := ClipCtx(context.Background(), subject, clip, op,
			Options{Algorithm: AlgoSequential, Threads: 1, NoFallback: true})
		if err != nil {
			t.Fatalf("vatti cross-check errored: %v (ops %q %v %q)", err, ws, op, wc)
		}
		scale := guard.MeasureBound(subject) + guard.MeasureBound(clip)
		if va := Area(seq); math.Abs(va-a) > 1e-6*math.Max(scale, math.Max(va, a)) {
			t.Fatalf("vatti area %g disagrees with default engine %g (ops %q %v %q)", va, a, ws, op, wc)
		}
	})
}

// FuzzClipAllEngines drives every registered engine through the registry on
// the same WKT pair, operation, AND fill rule: no engine may panic or reject
// the rule (every engine serves every rule), and all engines that accept the
// input must agree on the clipped measure under that rule.
// Engines run with NoFallback, so a drifting engine fails by name rather
// than being silently rescued by a sibling.
func FuzzClipAllEngines(f *testing.F) {
	for i, s := range wktSeeds {
		f.Add(s, wktSeeds[(i+3)%len(wktSeeds)], uint8(i%4), uint8(i/4%4))
	}
	f.Fuzz(func(t *testing.T, ws, wc string, opByte, ruleByte uint8) {
		subject, err := ParseWKT(ws)
		if err != nil {
			return
		}
		clip, err := ParseWKT(wc)
		if err != nil {
			return
		}
		if subject.NumVertices() > 64 || clip.NumVertices() > 64 {
			return
		}
		op := Op(opByte % 4)
		rules := engine.Rules()
		rule := rules[int(ruleByte)%len(rules)]
		scale := guard.MeasureBound(subject) + guard.MeasureBound(clip)

		type outcome struct {
			name string
			area float64
		}
		var got []outcome
		for _, e := range engine.All() {
			res, err := e.Clip(context.Background(), subject, clip, op,
				engine.Options{Threads: 2, Rule: rule, NoFallback: true})
			if err != nil {
				// Real errors (overflowing coordinates, guard rejections) are
				// acceptable; only panics are bugs, and those crash the fuzzer.
				// No engine may reject one of the four rules.
				if errors.Is(err, engine.ErrUnsupported) {
					t.Fatalf("%s: rejected rule %v: %v", e.Name(), rule, err)
				}
				continue
			}
			a := Area(res.Polygon)
			if math.IsNaN(a) || math.IsInf(a, 0) {
				t.Fatalf("%s: non-finite area (ops %q %v %q rule %v)", e.Name(), ws, op, wc, rule)
			}
			got = append(got, outcome{e.Name(), a})
		}
		// Cross-check: every pair of succeeding engines must agree under the
		// fuzzed rule.
		for i := 1; i < len(got); i++ {
			x, y := got[0], got[i]
			if math.Abs(x.area-y.area) > 1e-6*math.Max(scale, math.Max(x.area, y.area)) {
				t.Fatalf("engines disagree under rule %v: %s area %g vs %s area %g (ops %q %v %q)",
					rule, x.name, x.area, y.name, y.area, ws, op, wc)
			}
		}
	})
}

package geojson

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
	"testing/iotest"

	"polyclip/internal/data"
	"polyclip/internal/geom"
)

// TestDecodeAcrossRefills decodes the pin's layers, a feature larger than
// the buffer and one with a properties string larger than the buffer one
// byte per Read and half a Read at a time, and requires the features of a
// whole-buffer read, bit for bit.
func TestDecodeAcrossRefills(t *testing.T) {
	docs := map[string][]byte{}
	for _, d := range pinDocs(t) {
		docs[d.name+"/ndjson"] = d.ndjson
		docs[d.name+"/collection"] = d.fc
	}
	big := make(geom.Ring, 10000)
	for i := range big {
		a := 2 * math.Pi * float64(i) / float64(len(big))
		big[i] = geom.Point{X: 1e3 * math.Cos(a) / 3, Y: -1e-3 * math.Sin(a) / 7}
	}
	g, err := Marshal(geom.Polygon{big})
	if err != nil {
		t.Fatal(err)
	}
	if len(g) <= bufSize {
		t.Fatalf("a %d-byte feature does not straddle the %d-byte buffer", len(g), bufSize)
	}
	docs["big-ring"] = append(append([]byte(squareFeature+"\n"), g...), "\n"+squareFeature+"\n"...)
	docs["big-properties"] = []byte(`{"type":"FeatureCollection","features":[` + squareFeature +
		`,{"type":"Feature","properties":{"note":"` + strings.Repeat("é\\\"x", 100<<10/4) + `"},"geometry":` +
		string(g) + `}]}`)

	for name, doc := range docs {
		whole, err := collectFrom(bytes.NewReader(doc))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want, err := collectOracle(doc); err != nil || !sameFeatures(whole, want) {
			t.Fatalf("%s: %d features, oracle %d (%v)", name, len(whole), len(want), err)
		}
		for _, wrap := range []struct {
			name string
			r    func(io.Reader) io.Reader
		}{{"OneByteReader", iotest.OneByteReader}, {"HalfReader", iotest.HalfReader}} {
			got, err := collectFrom(wrap.r(bytes.NewReader(doc)))
			if err != nil {
				t.Fatalf("%s via %s: %v", name, wrap.name, err)
			}
			if !sameFeatures(got, whole) {
				t.Errorf("%s via %s: features differ from a whole-buffer read", name, wrap.name)
			}
		}
	}
}

// TestDecodeAllocs pins the allocations of decoding the overlay
// workloads' 1,000-feature ndjson layer: fewer than four per feature (the
// encoding/json reader made fifteen).
func TestDecodeAllocs(t *testing.T) {
	nd, _ := writeLayer(t, data.Features(data.FeatureOptions{N: 1000, RepeatFrac: 0.5, Seed: 1}))
	allocs := testing.AllocsPerRun(5, func() {
		if err := DecodeFeatures(bytes.NewReader(nd), func(geom.Polygon) error { return nil }); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 4*1000 {
		t.Errorf("decoding 1,000 features made %.0f allocations, want fewer than 4,000", allocs)
	}
}

// TestDecodeReadError returns a reader's own failure, not an end of input.
func TestDecodeReadError(t *testing.T) {
	failure := errors.New("disk on fire")
	r := io.MultiReader(strings.NewReader(squareFeature+"\n"+squareFeature[:20]), iotest.ErrReader(failure))
	err := DecodeFeatures(r, func(geom.Polygon) error { return nil })
	var pe *ParseError
	if !errors.As(err, &pe) || !strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("error %v, want a ParseError carrying the read error", err)
	}
}

// TestDecodeRules pins the reading rules the package doc states, nesting
// depth as encoding/json counted it, and a syntax error for every kind of
// token; where no object repeats a member name, the oracle agrees.
func TestDecodeRules(t *testing.T) {
	square := `[[[0,0],[2,0],[2,2],[0,2],[0,0]]]`
	for _, tc := range []struct {
		name, doc string
		want      int // features emitted; -1 for an error
	}{
		{"properties-syntax-only", `{"type":"Feature","properties":[1e999,"x"],"geometry":{"type":"Polygon","coordinates":` + square + `}}`, 1},
		{"names-fold-in-first-object", `{"TYPE":"Polygon","Coordinates":` + square + `}`, 1},
		{"long-s-folds", "{\"type\":\"Polygon\",\"coordinateſ\":" + square + `}`, 1},
		{"escaped-names", `{"\u0074ype":"Poly\u0067on","co\u006Fr\u0064inates":` + square + `}`, 1},
		{"type-after-coordinates", `{"coordinates":[` + square + `],"type":"MultiPolygon"}`, 1},
		{"repeated-type-rereads", `{"type":"Polygon","coordinates":[` + square + `],"type":"MultiPolygon"}`, 1},
		{"repeated-geometry-last-wins", `{"type":"Feature","geometry":{"type":"Polygon","coordinates":` + square + `},"geometry":{"type":"Polygon"}}`, -1},
		{"geometry-null-last-wins", `{"type":"Feature","geometry":{"type":"Point"},"geometry":null}`, 0},
		{"type-container", `{"type":{"type":"FeatureCollection"}}`, -1},
		{"unsupported-geometry", `{"type":"Feature","geometry":{"type":"LineString","coordinates":[]}}`, -1},
		{"coordinates-missing", `{"type":"Polygon"}`, -1},
		{"geometry-not-object", `{"type":"Polygon","coordinates":` + square + `,"geometry":1}`, -1},
		{"features-not-array", `{"type":"FeatureCollection","features":{}}`, -1},
		{"feature-not-object", `{"type":"FeatureCollection","features":[1]}`, -1},
		{"second-value-not-object", squareFeature + ` [1]`, -1},
		{"second-value-null", squareFeature + ` null`, -1},
		{"position-not-array", `{"type":"Polygon","coordinates":[[1,2,3]]}`, -1},
		{"ring-not-array", `{"type":"Polygon","coordinates":[1]}`, -1},
		{"bool-coordinate", `{"type":"Polygon","coordinates":[[[true,0]]]}`, -1},
		{"surrogates", `{"type":"Polygon","coordinates":` + square + `,"p":"😀\ud83dA\ud83dx\udc00"}`, 1},
		{"leading-zero", `{"type":"Polygon","coordinates":[[[01,0]]]}`, -1},
		{"bare-minus", `{"type":"Polygon","coordinates":[[[-,0]]]}`, -1},
		{"bare-fraction", `{"type":"Polygon","coordinates":[[[1.,0]]]}`, -1},
		{"bare-exponent", `{"type":"Polygon","coordinates":[[[1e+,0]]]}`, -1},
		{"trailing-minus", `{"type":"Polygon","coordinates":[[[1-2,0]]]}`, -1},
		{"number-at-end", `{"type":"Polygon","coordinates":[[[1`, -1},
		{"control-in-string", "{\"type\":\"Poly\ngon\"}", -1},
		{"bad-escape", `{"type":"\x"}`, -1},
		{"bad-hex", `{"type":"\u00zz"}`, -1},
		{"escape-at-end", `{"type":"\`, -1},
		{"bad-literal", `{"type":nul}`, -1},
		{"missing-colon", `{"type" "Polygon"}`, -1},
		{"missing-comma", `{"type":"Polygon" "coordinates":[]}`, -1},
		{"trailing-comma", `{"type":"Polygon",}`, -1},
		{"key-not-string", `{type:"Polygon"}`, -1},
		{"array-missing-comma", `{"type":"Polygon","coordinates":[[[0 0]]]}`, -1},
		{"bad-value", `{"type":"Polygon","x":+1}`, -1},
		{"leading-close", `}`, -1},
		{"deepest", `{"type":"Polygon","coordinates":` + square + `,"x":` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `}`, 1},
		{"too-deep", `{"type":"Polygon","coordinates":` + square + `,"x":` + strings.Repeat("[", maxDepth+1) + strings.Repeat("]", maxDepth+1) + `}`, -1},
		{"deepest-later", squareFeature + `{"type":"Polygon","coordinates":` + square + `,"x":` + strings.Repeat("[", maxDepth-1) + strings.Repeat("]", maxDepth-1) + `}`, 2},
		{"too-deep-later", squareFeature + `{"type":"Polygon","coordinates":` + square + `,"x":` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `}`, -1},
		{"deepest-element", `{"type":"FeatureCollection","features":[{"x":` + strings.Repeat("[", maxDepth-1) + strings.Repeat("]", maxDepth-1) + `}]}`, 0},
		{"too-deep-element", `{"type":"FeatureCollection","features":[{"x":` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `}]}`, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := collectFrom(strings.NewReader(tc.doc))
			if _, werr := collectOracle([]byte(tc.doc)); !repeatsName([]byte(tc.doc)) && (err == nil) != (werr == nil) {
				t.Errorf("error %v, oracle error %v", err, werr)
			}
			if tc.want < 0 {
				var pe *ParseError
				if !errors.As(err, &pe) {
					t.Fatalf("error %v, want a *ParseError", err)
				}
				return
			}
			if err != nil || len(got) != tc.want {
				t.Fatalf("%d features, %v; want %d", len(got), err, tc.want)
			}
		})
	}
}

// TestUnmarshalTopLevel pins Unmarshal's verdicts on values that are not
// one object.
func TestUnmarshalTopLevel(t *testing.T) {
	for _, doc := range []string{``, `   `, `[1]`, `"Polygon"`, `null`, squareFeature + ` {}`, squareFeature + `x`} {
		if _, err := Unmarshal([]byte(doc)); err == nil {
			t.Errorf("Unmarshal(%q) accepted", doc)
		}
	}
	// A Polygon's geometry member is not read, a Feature's coordinates are
	// not either.
	p, err := Unmarshal([]byte(`{"type":"Polygon","geometry":5,"coordinates":[[[0,0],[1,0],[1,1]]]}`))
	if err != nil || len(p) != 1 {
		t.Errorf("Polygon with a geometry member: %v, %v", p, err)
	}
	if _, err := Unmarshal([]byte(`{"type":"Feature","geometry":5}`)); err == nil {
		t.Error("Feature with a number for geometry accepted")
	}
	if p, err := Unmarshal([]byte(`{"type":"Feature","coordinates":"x"}`)); err != nil || p != nil {
		t.Errorf("Feature without geometry: %v, %v", p, err)
	}
}

// TestMarshalNonFinite pins the error every marshaller returns for a
// non-finite coordinate, naming the ring and vertex, where they panicked.
func TestMarshalNonFinite(t *testing.T) {
	bad := geom.Polygon{geom.Rect(0, 0, 1, 1), {{X: 0, Y: 0}, {X: 1, Y: 0}, {X: math.Inf(-1), Y: 1}}}
	for name, marshal := range map[string]func() ([]byte, error){
		"Marshal":        func() ([]byte, error) { return Marshal(bad) },
		"MarshalPolygon": func() ([]byte, error) { return MarshalPolygon(bad) },
		"MarshalLayer": func() ([]byte, error) {
			return MarshalLayer([]geom.Polygon{geom.RectPolygon(0, 0, 1, 1), bad})
		},
	} {
		raw, err := marshal()
		want := "geojson: ring 1: vertex 2: non-finite coordinate"
		if name == "MarshalLayer" {
			want = "geojson: feature 1: " + want[len("geojson: "):]
		}
		if err == nil || !strings.HasPrefix(err.Error(), want) || raw != nil {
			t.Errorf("%s: %q, %v; want an error starting %q", name, raw, err, want)
		}
	}
	nan := geom.Polygon{{{X: math.NaN(), Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}}}
	if _, err := Marshal(nan); err == nil || !strings.Contains(err.Error(), "ring 0: vertex 0") {
		t.Errorf("Marshal(NaN): %v", err)
	}
}

// TestMarshalBytes pins the bytes of every marshaller on finite input: the
// benchmark writes its overlay corpora with Marshal.
func TestMarshalBytes(t *testing.T) {
	hole := geom.Rect(1, 1, 2, 2)
	hole.Reverse()
	p := geom.Polygon{geom.Rect(0, 0, 4, 4), hole}
	for _, tc := range []struct {
		name string
		got  func() ([]byte, error)
		want string
	}{
		{"Marshal", func() ([]byte, error) { return Marshal(geom.Polygon{geom.Rect(0, -0.5, 1e-7, 3)}) },
			`{"type":"Polygon","coordinates":[[[0,-0.5],[1e-7,-0.5],[1e-7,3],[0,3],[0,-0.5]]]}`},
		{"Marshal-multi", func() ([]byte, error) { return Marshal(p) },
			`{"type":"MultiPolygon","coordinates":[[[[0,0],[4,0],[4,4],[0,4],[0,0]]],[[[1,2],[2,2],[2,1],[1,1],[1,2]]]]}`},
		{"MarshalPolygon", func() ([]byte, error) { return MarshalPolygon(p) },
			`{"type":"Polygon","coordinates":[[[0,0],[4,0],[4,4],[0,4],[0,0]],[[1,2],[2,2],[2,1],[1,1],[1,2]]]}`},
		{"MarshalLayer", func() ([]byte, error) { return MarshalLayer([]geom.Polygon{geom.RectPolygon(0, 0, 1, 1)}) },
			`{"type":"FeatureCollection","features":[{"type":"Feature","geometry":{"type":"Polygon","coordinates":[[[0,0],[1,0],[1,1],[0,1],[0,0]]]}}]}`},
		{"MarshalLayer-empty", func() ([]byte, error) { return MarshalLayer(nil) },
			`{"type":"FeatureCollection","features":null}`},
	} {
		got, err := tc.got()
		if err != nil || string(got) != tc.want {
			t.Errorf("%s: %s, %v\nwant %s", tc.name, got, err, tc.want)
		}
	}
}

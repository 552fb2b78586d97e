package geojson

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"polyclip/internal/data"
	"polyclip/internal/geom"
)

// FuzzDecodeFeatures holds DecodeFeatures, UnmarshalLayer and Unmarshal to
// the oracle (oracle_test.go): the same accept/reject verdict and, on
// accept, the same features bit for bit. DecodeFeatures also reads every
// input one byte per Read, which puts every token across a refill, and
// must decode the same features that way. Inputs in which one object
// repeats a member name are skipped: there the last occurrence wins
// whole, where the oracle merged a repeated geometry object.
func FuzzDecodeFeatures(f *testing.F) {
	for _, s := range []string{
		squareFeature,
		squareFeature + "\n" + `{"type":"Polygon","coordinates":[[[0,0],[1,0],[1,1],[0,0]]]}` + "\n" + `{"type":"Feature","geometry":null}`,
		`{"type":"FeatureCollection","features":[` + squareFeature + `,{"type":"Feature","geometry":null},` +
			`{"type":"Feature","geometry":{"type":"MultiPolygon","coordinates":[[[[4,4],[5,4],[5,5],[4,4]]],[[[6,6],[7,6],[7,7],[6,6]]]]}}]}`,
		`{"features":[` + squareFeature + `],"type":"FeatureCollection","name":"x"}`,
		`{"coordinates":[[[0,0],[1,0],[1,1]]],"properties":{"a":[1e999]},"TYPE":"Polygon"}`,
		`{"type":"Feature","geometry":{"coordinates":[[[[0,0],[1,0],[1,1]]]],"type":"MultiPolygon"},"bbox":[0,0,1,1]}`,
		`{"type":"Polygon","coordinates":[[[0,0,9],[1,null],[null,1],[2]],null,[]]}`,
		`{"type":"FeatureCollection","features":[null,{"geometry":{"type":"Polygon","coordinates":null}}]} trailing`,
		`{"type":"Polygon","coordinates":[[["x",0]]]}`,
		`{"type":{"type":"FeatureCollection"}}`,
		"{\"typ\\u0065\":\"Polygon\",\"coordinate\u017f\":[[[0,0],[1,0],[1,1]]]}",
		`[1,2,3]`,
		``,
	} {
		f.Add([]byte(s))
	}
	corpus, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "fuzz", "FuzzParseGeoJSON", "*"))
	for _, path := range corpus {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		line := strings.TrimSpace(strings.TrimPrefix(string(raw), "go test fuzz v1\n"))
		doc, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "[]byte("), ")"))
		if err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		f.Add([]byte(doc))
	}
	for seed := int64(1); seed <= 2; seed++ {
		nd, fc := writeLayer(f, data.Features(data.FeatureOptions{N: 4, Seed: seed}))
		f.Add(nd)
		f.Add(fc)
	}

	f.Fuzz(func(t *testing.T, doc []byte) {
		if repeatsName(doc) {
			t.Skip("an object repeats a member name")
		}
		got, err := collectFrom(bytes.NewReader(doc))
		want, werr := collectOracle(doc)
		sameVerdict(t, "DecodeFeatures", doc, got, err, want, werr)
		slow, serr := collectFrom(iotest.OneByteReader(bytes.NewReader(doc)))
		sameVerdict(t, "DecodeFeatures one byte per Read", doc, slow, serr, got, err)

		layer, err := UnmarshalLayer(doc)
		wantLayer, werr := oracleUnmarshalLayer(doc)
		sameVerdict(t, "UnmarshalLayer", doc, layer, err, wantLayer, werr)

		p, err := Unmarshal(doc)
		wantP, werr := oracleUnmarshal(doc)
		sameVerdict(t, "Unmarshal", doc, []geom.Polygon{p}, err, []geom.Polygon{wantP}, werr)
	})
}

func collectFrom(r io.Reader) ([]geom.Polygon, error) {
	var out []geom.Polygon
	err := DecodeFeatures(r, func(p geom.Polygon) error {
		out = append(out, p)
		return nil
	})
	return out, err
}

func collectOracle(doc []byte) ([]geom.Polygon, error) {
	var out []geom.Polygon
	err := oracleDecodeFeatures(bytes.NewReader(doc), func(p geom.Polygon) error {
		out = append(out, p)
		return nil
	}, false)
	return out, err
}

// sameVerdict fails unless both decodes accepted or both rejected, and on
// accept decoded the same features bit for bit.
func sameVerdict(t *testing.T, what string, doc []byte, got []geom.Polygon, err error, want []geom.Polygon, werr error) {
	t.Helper()
	if (err == nil) != (werr == nil) {
		t.Fatalf("%s of %q: error %v, oracle error %v", what, doc, err, werr)
	}
	if err != nil {
		return
	}
	if !sameFeatures(got, want) {
		t.Fatalf("%s of %q:\n got %v\nwant %v", what, doc, got, want)
	}
}

func sameFeatures(a, b []geom.Polygon) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) || len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			ra, rb := a[i][j], b[i][j]
			if len(ra) != len(rb) {
				return false
			}
			for k := range ra {
				if math.Float64bits(ra[k].X) != math.Float64bits(rb[k].X) ||
					math.Float64bits(ra[k].Y) != math.Float64bits(rb[k].Y) {
					return false
				}
			}
		}
	}
	return true
}

// repeatsName reports whether some object of doc, read as far as it is
// valid JSON, repeats a member name compared case-insensitively.
func repeatsName(doc []byte) bool {
	type frame struct {
		object  bool
		wantKey bool
		keys    []string
	}
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	var stack []*frame
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		var top *frame
		if len(stack) > 0 {
			top = stack[len(stack)-1]
		}
		if top != nil && top.object && top.wantKey {
			if d, ok := tok.(json.Delim); !ok || d != '}' {
				key, _ := tok.(string)
				for _, k := range top.keys {
					if strings.EqualFold(k, key) {
						return true
					}
				}
				top.keys = append(top.keys, key)
				top.wantKey = false
				continue
			}
		}
		switch tok {
		case json.Delim('{'):
			stack = append(stack, &frame{object: true, wantKey: true})
			continue
		case json.Delim('['):
			stack = append(stack, &frame{})
			continue
		case json.Delim(']'), json.Delim('}'):
			stack = stack[:len(stack)-1]
		}
		// A value ended: its object, if any, wants a key next.
		if len(stack) > 0 {
			stack[len(stack)-1].wantKey = true
		}
	}
}

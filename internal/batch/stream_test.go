package batch

import (
	"errors"
	"strings"
	"testing"

	"polyclip/internal/geojson"
	"polyclip/internal/geom"
	"polyclip/internal/wkt"
)

const (
	squareGeoJSON = `{"type":"Polygon","coordinates":[[[0,0],[2,0],[2,2],[0,2],[0,0]]]}`
	squareWKT     = "POLYGON ((0 0, 2 0, 2 2, 0 2))"
)

// TestReadFeaturesFormats pins ReadFeatures' format detection on the first
// byte after leading whitespace and each of its three paths.
func TestReadFeaturesFormats(t *testing.T) {
	square := geom.RectPolygon(0, 0, 2, 2)
	for _, tc := range []struct {
		name, in string
		want     int
	}{
		{"empty", "", 0},
		{"blank", " \t\r\n ", 0},
		{"ndjson", " \n\t" + squareGeoJSON + "\n" + squareGeoJSON + "\n", 2},
		{"ndjson-features", "\r\n" + `{"type":"Feature","geometry":` + squareGeoJSON + "}\n" +
			`{"type":"Feature","geometry":null}`, 1},
		{"collection", "\n  " + `{"type":"FeatureCollection","features":[{"type":"Feature","properties":{"id":1},"geometry":` +
			squareGeoJSON + `},{"type":"Feature","geometry":` + squareGeoJSON + `}]}`, 2},
		{"wkt", "\n\n  " + squareWKT + "\n\n" + squareWKT + "\n", 2},
		{"wkt-leading-space-on-lines", "\t" + squareWKT + "\n   " + squareWKT, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs, err := ReadFeatures(strings.NewReader(tc.in))
			if err != nil || len(fs) != tc.want {
				t.Fatalf("%d features, %v; want %d", len(fs), err, tc.want)
			}
			for i, f := range fs {
				if f.Area() != square.Area() || len(f) != 1 || len(f[0]) != 4 {
					t.Errorf("feature %d = %v, want the 2×2 square", i, f)
				}
			}
		})
	}
}

// TestReadFeaturesErrors pins what ReadFeatures reports for a leading '['
// and where it attributes a bad feature: the feature index for GeoJSON,
// the line number for WKT.
func TestReadFeaturesErrors(t *testing.T) {
	var pe *geojson.ParseError
	_, err := ReadFeatures(strings.NewReader("  [" + squareGeoJSON + "]"))
	if !errors.As(err, &pe) || !strings.Contains(err.Error(), "expected a JSON object") {
		t.Errorf("leading '[': %v, want a ParseError expecting a JSON object", err)
	}

	nd := squareGeoJSON + "\n" + `{"type":"Feature","geometry":null}` + "\n" +
		`{"type":"Polygon","coordinates":[[[0,0],[1,0],["x",1]]]}` + "\n"
	if _, err := ReadFeatures(strings.NewReader(nd)); !errors.As(err, &pe) ||
		!strings.HasPrefix(err.Error(), "geojson: feature 2: ") || pe.Token != "coordinates" {
		t.Errorf("ndjson: %v, want a ParseError naming feature 2", err)
	}
	fc := `{"type":"FeatureCollection","features":[{"type":"Feature","geometry":` + squareGeoJSON +
		`},{"type":"Feature","geometry":{"type":"LineString","coordinates":[]}}]}`
	if _, err := ReadFeatures(strings.NewReader(fc)); !errors.As(err, &pe) ||
		!strings.HasPrefix(err.Error(), "geojson: feature 1: ") || pe.Token != "LineString" {
		t.Errorf("collection: %v, want a ParseError naming feature 1", err)
	}

	var se *wkt.SyntaxError
	_, err = ReadFeatures(strings.NewReader(squareWKT + "\n\n" + "POLYGON ((0 0, 1 x))\n"))
	if !errors.As(err, &se) || !strings.HasPrefix(err.Error(), "batch: wkt line 3: ") {
		t.Errorf("wkt: %v, want a SyntaxError naming line 3", err)
	}
}

package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"
)

func postTile(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/tile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /tile: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading /tile response: %v", err)
	}
	return resp, raw
}

func tileBody(t *testing.T, extra map[string]any) []byte {
	t.Helper()
	m := map[string]any{
		"layer":   `POLYGON ((0 0, 16 0, 16 16, 0 16, 0 0), (6 6, 10 6, 10 10, 6 10, 6 6))`,
		"minZoom": 0,
		"maxZoom": 3,
		"extent":  []float64{0, 0, 16, 16},
	}
	for k, v := range extra {
		m[k] = v
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestTileEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, raw := postTile(t, ts.URL, tileBody(t, nil))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var tr TileResponse
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if tr.Count == 0 || len(tr.Tiles) != tr.Count {
		t.Fatalf("count %d with %d tiles", tr.Count, len(tr.Tiles))
	}
	// Zoom 0 covers the layer in one tile; the hole means it straddles.
	if tl := tr.Tiles[0]; tl.Z != 0 || tl.X != 0 || tl.Y != 0 || len(tl.Geometry) == 0 {
		t.Errorf("first tile = %+v", tl)
	}
	// Sorted (z, x, y) and within grid bounds.
	for i, tl := range tr.Tiles {
		n := int32(1) << uint(tl.Z)
		if tl.X < 0 || tl.X >= n || tl.Y < 0 || tl.Y >= n {
			t.Errorf("tile %d out of grid: %+v", i, tl)
		}
		if i > 0 {
			p := tr.Tiles[i-1]
			if p.Z > tl.Z || (p.Z == tl.Z && (p.X > tl.X || (p.X == tl.X && p.Y >= tl.Y))) {
				t.Errorf("tiles not sorted at %d: %+v then %+v", i, p, tl)
			}
		}
	}
	if tr.Stats == nil || tr.Stats.Tiles != int64(tr.Count) {
		t.Errorf("stats missing or inconsistent: %+v", tr.Stats)
	}
}

func TestTileEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		body []byte
		code int
	}{
		{"bad layer", tileBody(t, map[string]any{"layer": "POLYGON (("}), http.StatusBadRequest},
		{"missing layer", tileBody(t, map[string]any{"layer": nil}), http.StatusBadRequest},
		{"bad rule", tileBody(t, map[string]any{"rule": "odd"}), http.StatusBadRequest},
		{"inverted zooms", tileBody(t, map[string]any{"minZoom": 3, "maxZoom": 1}), http.StatusBadRequest},
		{"too deep", tileBody(t, map[string]any{"maxZoom": serveMaxZoom + 1}), http.StatusBadRequest},
		{"bad extent", tileBody(t, map[string]any{"extent": []float64{0, 0, 1}}), http.StatusBadRequest},
		{"degenerate extent", tileBody(t, map[string]any{"extent": []float64{5, 5, 5, 5}}), http.StatusBadRequest},
		{"malformed json", []byte(`{"layer": `), http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, raw := postTile(t, ts.URL, tc.body)
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.code, raw)
		}
		var er ErrorResponse
		if err := json.Unmarshal(raw, &er); err != nil || er.Code == "" {
			t.Errorf("%s: error body not structured: %s", tc.name, raw)
		}
	}
	// GET is rejected like /clip.
	resp, err := http.Get(ts.URL + "/tile")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /tile: status %d, want 405", resp.StatusCode)
	}
}

// TestTileEndpointRules: the four fill rules all serve, and the winding
// rules disagree with even-odd on a self-overlapping layer.
func TestTileEndpointRules(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	layer := `POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))` // plus an overlapping square via two rings
	body := func(rule string) []byte {
		return tileBody(t, map[string]any{"layer": layer, "rule": rule, "maxZoom": 2})
	}
	counts := map[string]int{}
	for _, rule := range []string{"evenodd", "nonzero", "positive", "negative"} {
		resp, raw := postTile(t, ts.URL, body(rule))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", rule, resp.StatusCode, raw)
		}
		var tr TileResponse
		if err := json.Unmarshal(raw, &tr); err != nil {
			t.Fatal(err)
		}
		counts[rule] = tr.Count
	}
	if counts["evenodd"] == 0 || counts["nonzero"] == 0 || counts["positive"] == 0 {
		t.Errorf("filled rules served no tiles: %v", counts)
	}
	if counts["negative"] != 0 {
		t.Errorf("negative rule on a CCW layer served %d tiles", counts["negative"])
	}
}

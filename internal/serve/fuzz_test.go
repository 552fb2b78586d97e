package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// fuzzServer is one shared server for the fuzz run: building a server per
// input would dominate the fuzz loop.
var fuzzServer = NewServer(Config{RequestTimeout: 2 * time.Second})

// FuzzServeRequest throws arbitrary bytes and mutated request bodies at the
// full serve path. The invariants under fuzz: the handler never panics
// (a panic would fail the fuzz run), every answer is a sane HTTP status,
// and every non-2xx body is structured JSON with a machine code.
func FuzzServeRequest(f *testing.F) {
	f.Add([]byte(`{"subject":"POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))","clip":"POLYGON ((2 2, 6 2, 6 6, 2 6, 2 2))","op":"intersection"}`))
	f.Add([]byte(`{"subject":{"type":"Polygon","coordinates":[[[0,0],[4,0],[4,4],[0,4],[0,0]]]},"clip":"POLYGON EMPTY","op":"union","rule":"nonzero"}`))
	f.Add([]byte(`{"subject":"POLYGON ((0 0, 1 1","clip":"POLYGON EMPTY","op":"xor","algorithm":"slabs"}`))
	f.Add([]byte(`{"op":"difference"}`))
	f.Add([]byte(`{"subject":42,"clip":[],"op":"union"}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"subject":"MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0)))","clip":"POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))","op":"intersection","algorithm":"scanbeam"}`))
	f.Add([]byte(`{"subject":"POLYGON ((0 0, 1e999 0, 1 1, 0 0))","clip":"POLYGON EMPTY","op":"union"}`))

	handler := fuzzServer.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/clip", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)

		if rec.Code < 200 || rec.Code > 599 {
			t.Fatalf("nonsensical status %d for %q", rec.Code, body)
		}
		if rec.Code >= 400 {
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
				t.Fatalf("status %d body is not structured JSON: %q", rec.Code, rec.Body.Bytes())
			}
			if er.Code == "" {
				t.Fatalf("status %d body missing machine code: %q", rec.Code, rec.Body.Bytes())
			}
		}
		if rec.Code == http.StatusServiceUnavailable && rec.Header().Get("Retry-After") == "" {
			t.Fatalf("shed response missing Retry-After")
		}
		if rec.Code == http.StatusOK {
			var cr ClipResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &cr); err != nil {
				t.Fatalf("200 body is not a ClipResponse: %q", rec.Body.Bytes())
			}
			if len(cr.Result) == 0 {
				t.Fatalf("200 response missing result geometry")
			}
		}
	})
}

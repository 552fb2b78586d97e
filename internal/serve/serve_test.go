package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"polyclip"
	"polyclip/internal/guard"
)

const (
	sqA = `POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))`
	sqB = `POLYGON ((2 2, 6 2, 6 6, 2 6, 2 2))`
)

// newTestServer builds a server + httptest frontend with fast test knobs.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 5 * time.Second
	}
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func clipBody(subject, clip, op string, extra map[string]any) []byte {
	m := map[string]any{"subject": subject, "clip": clip, "op": op}
	for k, v := range extra {
		m[k] = v
	}
	b, _ := json.Marshal(m)
	return b
}

func postClip(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/clip", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /clip: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// answer is one HTTP answer collected off the test goroutine.
type answer struct {
	status     int
	retryAfter string
	body       []byte
	err        error // transport failure: no HTTP answer at all
}

// goPost sends one POST /clip on its own goroutine; the answer arrives on
// the returned channel.
func goPost(url string, body []byte) <-chan answer {
	ch := make(chan answer, 1)
	go func() {
		resp, err := http.Post(url+"/clip", "application/json", bytes.NewReader(body))
		if err != nil {
			ch <- answer{err: err}
			return
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		ch <- answer{status: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After"), body: raw, err: err}
	}()
	return ch
}

// waitFor polls cond until it holds, failing the test after 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// holdAtClip parks every clip at the serve.clip fault site until the
// returned release is called. The test's cleanup releases them too, so a
// failing test cannot leave a handler parked behind the httptest server's
// Close; call it after newTestServer for that ordering.
func holdAtClip(t *testing.T) (release func()) {
	t.Helper()
	ch := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(ch) }) }
	guard.WithFault(t, "serve.clip", func() { <-ch })
	t.Cleanup(release)
	return release
}

func resultArea(t *testing.T, body []byte) float64 {
	t.Helper()
	var cr ClipResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatalf("response %s: %v", body, err)
	}
	p, err := polyclip.ParseGeoJSON(cr.Result)
	if err != nil {
		t.Fatalf("result geometry: %v", err)
	}
	return p.Area()
}

func TestClipEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postClip(t, ts.URL, clipBody(sqA, sqB, "intersection", nil))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resultArea(t, body); math.Abs(got-4) > 1e-9 {
		t.Errorf("area = %v, want 4", got)
	}
	var cr ClipResponse
	_ = json.Unmarshal(body, &cr)
	if cr.Engine == "" {
		t.Error("engine attribution missing")
	}
	if cr.Stats == nil {
		t.Error("stats missing from response")
	}
	if cr.Degraded {
		t.Error("uncontended request should not be degraded")
	}
}

func TestClipGeoJSONOperand(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := []byte(fmt.Sprintf(
		`{"subject": %q, "clip": {"type":"Polygon","coordinates":[[[2,2],[6,2],[6,6],[2,6],[2,2]]]}, "op":"union"}`,
		sqA))
	resp, rbody := postClip(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, rbody)
	}
	if got := resultArea(t, rbody); math.Abs(got-28) > 1e-9 {
		t.Errorf("area = %v, want 28", got)
	}
}

func TestAllOpsRulesAlgorithms(t *testing.T) {
	// The full wire-level matrix: every op under every fill rule through
	// every algorithm must answer 200 — no cell of the rule x algorithm
	// matrix is served by a silent strategy swap or rejected.
	_, ts := newTestServer(t, Config{})
	for _, op := range []string{"intersection", "union", "difference", "xor"} {
		for _, rule := range []string{"", "evenodd", "nonzero", "positive", "negative"} {
			for _, algo := range []string{"overlay", "slabs", "scanbeam", "sequential"} {
				extra := map[string]any{"algorithm": algo}
				if rule != "" {
					extra["rule"] = rule
				}
				resp, body := postClip(t, ts.URL, clipBody(sqA, sqB, op, extra))
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s/%s/%s: status %d: %s", op, rule, algo, resp.StatusCode, body)
				}
			}
		}
	}
	// The winding answer must actually differ from parity where geometry
	// demands it: a doubly-wound subject against a frame.
	doubly := `POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (2 2, 6 2, 6 6, 2 6, 2 2))`
	frame := `POLYGON ((-1 -1, 7 -1, 7 7, -1 7, -1 -1))`
	for rule, want := range map[string]float64{"evenodd": 24, "nonzero": 28, "positive": 28, "negative": 0} {
		resp, body := postClip(t, ts.URL, clipBody(doubly, frame, "intersection", map[string]any{"rule": rule, "algorithm": "scanbeam"}))
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s scanbeam: status %d: %s", rule, resp.StatusCode, body)
			continue
		}
		if got := resultArea(t, body); math.Abs(got-want) > 1e-6 {
			t.Errorf("%s scanbeam: area = %v, want %v", rule, got, want)
		}
	}
}

func TestHTTPErrorMessage(t *testing.T) {
	e := httpErrorf(422, "bad_rule", "unknown fill rule %q", "winding")
	if got := e.Error(); got != `unknown fill rule "winding"` {
		t.Errorf("Error() = %q", got)
	}
	if e.status != 422 || e.body.Code != "bad_rule" {
		t.Errorf("status/code = %d/%q", e.status, e.body.Code)
	}
}

// TestClipErrorUnsupportedMapping pins the 422 contract for ErrUnsupported.
// The decoder answers unknown rule and algorithm names with 400 before any
// clip runs, so the mapping is exercised at the error-translation seam the
// handler uses, on the error ClipCtx returns for an out-of-range Algorithm.
func TestClipErrorUnsupportedMapping(t *testing.T) {
	_, _, err := polyclip.ClipCtx(context.Background(), nil, nil, polyclip.Union, polyclip.Options{Algorithm: 9})
	he := clipError(err)
	if he.status != http.StatusUnprocessableEntity {
		t.Errorf("status = %d, want 422", he.status)
	}
	if he.body.Code != "unsupported" {
		t.Errorf("code = %q, want unsupported", he.body.Code)
	}
}

func TestDecodeErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 512})
	cases := []struct {
		name        string
		contentType string
		body        string
		status      int
		code        string
		wantOffset  bool
	}{
		{"junk-json", "application/json", `{"subject": oops`, 400, "malformed-json", true},
		{"unknown-op", "application/json", `{"subject":"POLYGON EMPTY","clip":"POLYGON EMPTY","op":"smoosh"}`, 400, "unknown-op", false},
		{"unknown-rule", "application/json", `{"subject":"POLYGON EMPTY","clip":"POLYGON EMPTY","op":"union","rule":"zebra"}`, 400, "unknown-rule", false},
		{"unknown-algorithm", "application/json", `{"subject":"POLYGON EMPTY","clip":"POLYGON EMPTY","op":"union","algorithm":"magic"}`, 400, "unknown-algorithm", false},
		{"bad-wkt", "application/json", `{"subject":"POLYGON ((a b))","clip":"POLYGON EMPTY","op":"union"}`, 400, "bad-subject", true},
		{"bad-geojson", "application/json", `{"subject":{"type":"LineString"},"clip":"POLYGON EMPTY","op":"union"}`, 400, "bad-subject", false},
		{"missing-operand", "application/json", `{"op":"union","clip":"POLYGON EMPTY"}`, 400, "bad-subject", false},
		{"operand-shape", "application/json", `{"subject":42,"clip":"POLYGON EMPTY","op":"union"}`, 400, "bad-subject", false},
		{"content-type", "text/xml", `<x/>`, 415, "unsupported-content-type", false},
		{"too-large", "application/json", `{"subject":"` + strings.Repeat("x", 600) + `"}`, 413, "body-too-large", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/clip", tc.contentType, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var er ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
				t.Fatalf("error body: %v", err)
			}
			if resp.StatusCode != tc.status {
				t.Errorf("status %d, want %d (%+v)", resp.StatusCode, tc.status, er)
			}
			if er.Code != tc.code {
				t.Errorf("code %q, want %q (%+v)", er.Code, tc.code, er)
			}
			if tc.wantOffset && er.Offset == 0 {
				t.Errorf("expected a nonzero byte offset in %+v", er)
			}
		})
	}

	// Method and input validation round out the typed 4xx surface.
	resp, err := http.Get(ts.URL + "/clip")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /clip: status %d, want 405", resp.StatusCode)
	}
	resp2, body := postClip(t, ts.URL, clipBody(`POLYGON ((0 0, 1e200 0, 1e200 1e200, 0 1e200, 0 0))`, sqB, "union", nil))
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("overflowing input: status %d, want 400: %s", resp2.StatusCode, body)
	}
	var er ErrorResponse
	_ = json.Unmarshal(body, &er)
	if er.Code != "invalid-input" {
		t.Errorf("overflowing input: code %q, want invalid-input", er.Code)
	}
}

// slowOperands builds a many-vertex operand pair so a clip takes real work,
// long enough for a client to cancel it mid-flight.
func slowOperands(n int) (string, string) {
	ring := func(cx, cy, r float64) string {
		var b strings.Builder
		b.WriteString("POLYGON ((")
		for i := 0; i <= n; i++ {
			a := 2 * math.Pi * float64(i%n) / float64(n)
			fmt.Fprintf(&b, "%.6f %.6f", cx+r*math.Cos(a), cy+r*math.Sin(a))
			if i < n {
				b.WriteString(", ")
			}
		}
		b.WriteString("))")
		return b.String()
	}
	return ring(0, 0, 10), ring(3, 3, 10)
}

// TestOverloadDegradesThenSheds drives the server past its queue: overflow
// must be served through the degraded chain first, the rest must be shed
// with Retry-After, nothing may be dropped silently, and the mode must
// disengage once load subsides. Before the burst it fills each admission
// position in order — the work slot, the QueueDepth waiting positions, then
// the degraded slot — and confirms each through Statz before filling the
// next. Those requests are held at the serve.clip site until the burst has
// been answered, so the outcome does not depend on how fast the host clips.
func TestOverloadDegradesThenSheds(t *testing.T) {
	const queueDepth = 2
	s, ts := newTestServer(t, Config{
		QueueDepth:          queueDepth,
		MaxConcurrent:       1,
		DegradedConcurrency: 1,
		Threads:             1,
		DegradedHold:        300 * time.Millisecond,
		RequestTimeout:      10 * time.Second,
	})
	release := holdAtClip(t)
	body := clipBody(sqA, sqB, "intersection", nil)

	var ok, shed, degraded, other, missingRA, unanswered atomic.Int64
	tally := func(a answer) {
		switch {
		case a.err != nil:
			unanswered.Add(1)
		case a.status == http.StatusOK:
			ok.Add(1)
			var cr ClipResponse
			_ = json.Unmarshal(a.body, &cr)
			if cr.Degraded {
				degraded.Add(1)
				if len(cr.Attempts) == 0 || !(strings.HasPrefix(cr.Attempts[0], "overlay-coarse") || strings.HasPrefix(cr.Attempts[0], "vatti")) {
					t.Errorf("degraded response did not go through the degraded chain: %v", cr.Attempts)
				}
			}
		case a.status == http.StatusServiceUnavailable:
			shed.Add(1)
			if a.retryAfter == "" {
				missingRA.Add(1)
			}
		default:
			other.Add(1)
			t.Errorf("unexpected status %d: %s", a.status, a.body)
		}
	}

	held := []<-chan answer{goPost(ts.URL, body)}
	waitFor(t, "a request to hold the work slot", func() bool { return s.Statz().Inflight == 1 })
	for i := 1; i <= queueDepth; i++ {
		held = append(held, goPost(ts.URL, body))
		waitFor(t, fmt.Sprintf("%d requests to wait for the work slot", i), func() bool { return s.Statz().QueueLen == i })
	}
	held = append(held, goPost(ts.URL, body))
	waitFor(t, "a request to take the degraded slot", func() bool { return s.Statz().DegradedServed == 1 })

	const n = 40
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tally(<-goPost(ts.URL, body))
		}()
	}
	// Observe the mode while the burst is still in flight: the held
	// requests can outlast DegradedHold, so the engaged state must be
	// sampled now, not after.
	sawDegraded := false
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if s.Mode() == "degraded" {
			sawDegraded = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()
	release()
	for _, ch := range held {
		tally(<-ch)
	}
	total := int64(n + len(held))
	if unanswered.Load() > 0 {
		t.Errorf("%d requests got no HTTP answer at all", unanswered.Load())
	}
	if missingRA.Load() > 0 {
		t.Errorf("%d shed responses missing Retry-After", missingRA.Load())
	}
	if ok.Load()+shed.Load()+other.Load() != total {
		t.Errorf("answered %d of %d", ok.Load()+shed.Load()+other.Load(), total)
	}
	st := s.Statz()
	if st.DegradedServed == 0 {
		t.Error("no overflow traffic was served through the degraded chain")
	}
	if degraded.Load() == 0 {
		t.Error("no 200 response was marked degraded")
	}
	if shed.Load() == 0 || st.Shed == 0 {
		t.Errorf("overload shed nothing (client saw %d, statz %d): capacity not saturated", shed.Load(), st.Shed)
	}
	if !sawDegraded {
		t.Error("mode never engaged degraded during the overload burst")
	}
	// Load subsided: the mode must disengage once the hold expires.
	for deadline := time.Now().Add(3 * time.Second); s.Mode() != "normal" && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	if s.Mode() != "normal" {
		t.Error("mode should return to normal once load subsides")
	}
	t.Logf("overload: ok=%d (degraded=%d) shed=%d statz=%s", ok.Load(), degraded.Load(), shed.Load(), st)
}

// TestServeFaultSites drives one injected panic through each serve-path
// fault site while four requests are sent at once: the process must not
// crash, every request must get an HTTP answer, and the one fault must fail
// exactly one request.
func TestServeFaultSites(t *testing.T) {
	for _, site := range []string{"serve.enqueue", "serve.clip", "serve.encode"} {
		t.Run(site, func(t *testing.T) {
			_, ts := newTestServer(t, Config{})
			guard.WithFault(t, site, guard.Once(func() {
				panic("chaos: injected panic at " + site)
			}))
			body := clipBody(sqA, sqB, "intersection", nil)
			var answers []<-chan answer
			for i := 0; i < 4; i++ {
				answers = append(answers, goPost(ts.URL, body))
			}
			var ok, failed int
			for _, ch := range answers {
				a := <-ch
				switch {
				case a.err != nil:
					t.Errorf("no HTTP answer: %v", a.err)
				case a.status == http.StatusOK:
					ok++
				case a.status == http.StatusInternalServerError:
					failed++
					var er ErrorResponse
					if err := json.Unmarshal(a.body, &er); err != nil || er.Code == "" {
						t.Errorf("error body is not structured JSON: %s", a.body)
					}
				default:
					t.Errorf("status %d: %s", a.status, a.body)
				}
			}
			if ok != 3 || failed != 1 {
				t.Errorf("%d answered 200 and %d answered 500, want 3 and 1", ok, failed)
			}
		})
	}
}

// TestEngineFaultRetried: a transient engine panic is absorbed by the
// library's fallback chain, which retries the clip on its next engine — the
// client still sees a 200.
func TestEngineFaultRetried(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	guard.WithFault(t, "overlay.clip", guard.Once(func() {
		panic("chaos: transient engine fault")
	}))
	resp, body := postClip(t, ts.URL, clipBody(sqA, sqB, "intersection", nil))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resultArea(t, body); math.Abs(got-4) > 1e-9 {
		t.Errorf("area = %v, want 4", got)
	}
	st := s.Statz()
	if st.FallbackSteps == 0 && st.Recovered == 0 {
		t.Error("no resilience intervention recorded for the faulted clip")
	}
}

func TestDeadlineBudget(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: 60 * time.Millisecond})
	guard.WithFault(t, "par.worker", func() { time.Sleep(300 * time.Millisecond) })
	start := time.Now()
	resp, body := postClip(t, ts.URL, clipBody(sqA, sqB, "intersection", nil))
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout && resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("status %d, want 504 or structured 500: %s", resp.StatusCode, body)
	}
	if elapsed > 2*time.Second {
		t.Errorf("deadline-bounded request took %v", elapsed)
	}
}

func TestHealthzStatzMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	postClip(t, ts.URL, clipBody(sqA, sqB, "xor", nil))

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	var st Statz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("statz: %v", err)
	}
	resp.Body.Close()
	if st.Served < 1 || st.OK < 1 {
		t.Errorf("statz counters: %+v", st)
	}
	if st.String() == "" {
		t.Error("statz String is empty")
	}
	// The arrangement-cache gauges reflect the shared cache: sane, not
	// negative, and rate within [0, 1]. (Totals depend on what other tests
	// ran first, so only the invariants are pinned.)
	if st.CacheBytes < 0 || st.CacheEntries < 0 || st.CacheHitRate < 0 || st.CacheHitRate > 1 {
		t.Errorf("statz cache gauges out of range: %+v", st)
	}

	resp, err = http.Get(ts.URL + "/metrics.csv")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("metrics.csv has no data rows: %q", buf.String())
	}
	if lines[0] != strings.Join(csvHeader, ",") {
		t.Errorf("csv header = %q", lines[0])
	}
	row := strings.Split(lines[1], ",")
	if len(row) != len(csvHeader) {
		t.Errorf("csv row has %d fields, want %d", len(row), len(csvHeader))
	}

	// Lifecycle timestamps are monotone for an answered request.
	recs := s.metrics.Records()
	var found bool
	for _, m := range recs {
		if m.Status == http.StatusOK && !m.Degraded {
			found = true
			if !(m.RecvNs <= m.EnqueueNs && m.EnqueueNs <= m.StartNs && m.StartNs <= m.DoneNs) {
				t.Errorf("timestamps not monotone: %+v", m)
			}
		}
	}
	if !found {
		t.Error("no successful record retained")
	}
}

// TestLoneRequestStartsAtOnce: an uncontended request takes its work slot
// as soon as it is admitted; nothing holds it back to wait for others.
func TestLoneRequestStartsAtOnce(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for i := 0; i < 20; i++ {
		resp, body := postClip(t, ts.URL, clipBody(sqA, sqB, "intersection", nil))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	var waits []int64
	for _, m := range s.metrics.Records() {
		waits = append(waits, m.StartNs-m.EnqueueNs)
	}
	sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
	if med := time.Duration(waits[len(waits)/2]); med >= time.Millisecond {
		t.Errorf("median wait for a work slot %v over %d uncontended requests, want under 1ms", med, len(waits))
	}
}

// TestCloseDrains: after Close every new request, and every request still
// waiting for a work slot, is shed like a draining request, while a clip
// already in flight finishes.
func TestCloseDrains(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1})
	release := holdAtClip(t)
	body := clipBody(sqA, sqB, "union", nil)
	inflight := goPost(ts.URL, body)
	waitFor(t, "a request to hold the work slot", func() bool { return s.Statz().Inflight == 1 })
	waiting := goPost(ts.URL, body)
	waitFor(t, "a request to wait for the work slot", func() bool { return s.Statz().QueueLen == 1 })
	s.Close()
	a := <-waiting
	if a.err != nil {
		t.Fatalf("waiting request got no answer: %v", a.err)
	}
	var er ErrorResponse
	_ = json.Unmarshal(a.body, &er)
	if a.status != http.StatusServiceUnavailable || a.retryAfter == "" || er.Error != "server is draining" {
		t.Errorf("request waiting at close: status %d, Retry-After %q: %s", a.status, a.retryAfter, a.body)
	}
	release()
	if a := <-inflight; a.err != nil || a.status != http.StatusOK {
		t.Errorf("request in flight at close: status %d (%v): %s", a.status, a.err, a.body)
	}

	resp, body := postClip(t, ts.URL, clipBody(sqA, sqB, "union", nil))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-close clip: status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining 503 must still carry Retry-After")
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-close healthz: %d", hresp.StatusCode)
	}
	// Close is idempotent.
	s.Close()
}

func TestClientCancelMidFlight(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	subj, clip := slowOperands(400)
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/clip",
		bytes.NewReader(clipBody(subj, clip, "union", nil)))
	req.Header.Set("Content-Type", "application/json")
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		resp.Body.Close()
	}
	// Whatever the racing outcome for the canceled call, the server must
	// still be fully functional.
	resp2, body := postClip(t, ts.URL, clipBody(sqA, sqB, "intersection", nil))
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("post-cancel request: status %d: %s", resp2.StatusCode, body)
	}
}

func TestMetricsRingWraps(t *testing.T) {
	r := newMetricsRing(4)
	for i := 1; i <= 6; i++ {
		r.Add(RequestMetrics{ID: int64(i), RecvNs: int64(i), DoneNs: int64(i + 1)})
	}
	recs := r.Records()
	if len(recs) != 4 {
		t.Fatalf("retained %d, want 4", len(recs))
	}
	if recs[0].ID != 3 || recs[3].ID != 6 {
		t.Errorf("window = %v..%v, want 3..6", recs[0].ID, recs[3].ID)
	}
	p50, p99 := r.Percentiles()
	if p50 == 0 || p99 == 0 {
		t.Errorf("percentiles = %v, %v", p50, p99)
	}
}

package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"polyclip/internal/guard"
)

// TestServeChaosSmoke runs concurrent mixed traffic against the server
// while a fault armer cycles panics, hangs and corruptions through the
// serve and engine guard sites. The contract: zero crashes, every request
// gets an HTTP answer, every non-2xx answer is structured JSON, every shed
// answer carries Retry-After, no more 5xx answers than serve-path faults
// armed (each fails one request; the engines' faults fail none), and tail
// latency stays bounded by the request deadline. Fixed seed;
// SERVE_CHAOS_MS stretches the run (check.sh uses 5000).
func TestServeChaosSmoke(t *testing.T) {
	dur := 1200 * time.Millisecond
	if ms, err := strconv.Atoi(os.Getenv("SERVE_CHAOS_MS")); err == nil && ms > 0 {
		dur = time.Duration(ms) * time.Millisecond
	}
	const seed = 42

	s := NewServer(Config{
		QueueDepth:          8,
		MaxConcurrent:       2,
		DegradedConcurrency: 1,
		DegradedHold:        100 * time.Millisecond,
		RequestTimeout:      time.Second,
		Threads:             2,
	})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()
	defer guard.ClearFaults()

	stop := make(chan struct{})
	var armed, armedServe atomic.Int64

	// Fault armer: a fresh one-shot fault every 40ms, cycling the plan table.
	var armerWG sync.WaitGroup
	armerWG.Add(1)
	go func() {
		defer armerWG.Done()
		tick := time.NewTicker(40 * time.Millisecond)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-tick.C:
				armCycleFault(i)
				armed.Add(1)
				if strings.HasPrefix(faultCyclePlans[i%len(faultCyclePlans)].site, "serve.") {
					armedServe.Add(1)
				}
			}
		}
	}()

	bodies := [][]byte{
		clipBody(sqA, sqB, "intersection", nil),
		clipBody(sqA, sqB, "union", map[string]any{"algorithm": "slabs"}),
		clipBody(sqA, sqB, "xor", map[string]any{"algorithm": "scanbeam"}),
		clipBody(sqA, sqB, "difference", map[string]any{"algorithm": "sequential"}),
		clipBody(sqA, sqB, "union", map[string]any{"rule": "nonzero"}),
		[]byte(`{"subject":"POLYGON ((0 0, 1 1","clip":"POLYGON EMPTY","op":"union"}`), // bad WKT
		[]byte(`junk body`), // malformed JSON
	}

	type tally struct {
		total, ok, cli, shed, srv int64
		badBody, shedNoRA         int64
	}
	var tl tally
	var wg sync.WaitGroup
	const clients = 4
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(c)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				body := bodies[rng.Intn(len(bodies))]
				resp, err := http.Post(ts.URL+"/clip", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("transport error (request dropped without an HTTP answer): %v", err)
					return
				}
				var buf bytes.Buffer
				_, _ = buf.ReadFrom(resp.Body)
				resp.Body.Close()
				atomic.AddInt64(&tl.total, 1)
				switch {
				case resp.StatusCode == http.StatusOK:
					atomic.AddInt64(&tl.ok, 1)
				case resp.StatusCode == http.StatusServiceUnavailable:
					atomic.AddInt64(&tl.shed, 1)
					if resp.Header.Get("Retry-After") == "" {
						atomic.AddInt64(&tl.shedNoRA, 1)
					}
				case resp.StatusCode >= 400 && resp.StatusCode < 500:
					atomic.AddInt64(&tl.cli, 1)
				default:
					atomic.AddInt64(&tl.srv, 1)
				}
				if resp.StatusCode != http.StatusOK {
					var er ErrorResponse
					if json.Unmarshal(buf.Bytes(), &er) != nil || er.Code == "" {
						atomic.AddInt64(&tl.badBody, 1)
					}
				}
			}
		}(c)
	}

	time.Sleep(dur)
	close(stop)
	wg.Wait()
	armerWG.Wait()

	st := s.Statz()
	t.Logf("chaos smoke: %d requests (ok=%d 4xx=%d shed=%d 5xx=%d), %d faults armed (%d serve-path), statz=%s",
		tl.total, tl.ok, tl.cli, tl.shed, tl.srv, armed.Load(), armedServe.Load(), st)

	if tl.total == 0 {
		t.Fatal("no requests completed")
	}
	if tl.ok == 0 {
		t.Error("no request succeeded under chaos")
	}
	if armed.Load() == 0 {
		t.Error("no faults were armed")
	}
	if tl.shedNoRA != 0 {
		t.Errorf("%d shed responses missing Retry-After", tl.shedNoRA)
	}
	if tl.srv > armedServe.Load() {
		t.Errorf("%d 5xx answers for %d armed serve-path faults: a fault failed more than one request", tl.srv, armedServe.Load())
	}
	if tl.badBody != 0 {
		t.Errorf("%d non-2xx responses without structured JSON body", tl.badBody)
	}
	// Tail latency must stay bounded by the deadline budget (plus encode
	// slack) even while faults cycle.
	if st.P99Ms > 3000 {
		t.Errorf("p99 %.1fms exceeds the bounded-tail contract", st.P99Ms)
	}
}

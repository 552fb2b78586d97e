// Command clipload is a seedable open-loop load generator for clipd. It
// fires clip requests at fixed arrival rates (open loop: arrivals are not
// gated on completions, so queueing at the server is real queueing), with a
// configurable fraction of misbehaving clients — slow request bodies, junk
// geometry, and mid-flight cancels — and reports throughput and latency
// percentiles per phase as JSON, with shed answers missing Retry-After and
// requests that got no HTTP answer counted per phase.
//
// Usage:
//
//	clipload -url http://localhost:8080 -rates 100,400 -duration 5s
//	clipload -url http://localhost:8080 -rates 400 -misbehave 0.2 -seed 7
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// misbehaviour kinds, cycled by misbehaving requests.
const (
	mbSlowBody = iota // body dribbled byte-chunks with delays
	mbJunk            // junk geometry / malformed payload
	mbCancel          // context canceled mid-flight
	mbKinds
)

// slowReader dribbles its payload in small chunks with a delay between
// them — the classic slowloris-shaped client.
type slowReader struct {
	data  []byte
	chunk int
	delay time.Duration
}

func (r *slowReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	time.Sleep(r.delay)
	n := r.chunk
	if n > len(r.data) || n > len(p) {
		n = min(len(r.data), len(p))
	}
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// ringWKT renders an n-vertex circle as a WKT polygon.
func ringWKT(cx, cy, r float64, n int) string {
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

var ops = []string{"intersection", "union", "difference", "xor"}
var algos = []string{"", "overlay", "slabs", "scanbeam", "sequential"}

// genBody builds one well-formed request body from the seeded rng.
func genBody(rng *rand.Rand, verts int) []byte {
	cx, cy := rng.Float64()*4-2, rng.Float64()*4-2
	n := 8 + rng.Intn(verts)
	m := map[string]any{
		"subject": ringWKT(0, 0, 10, n),
		"clip":    ringWKT(cx, cy, 10, n),
		"op":      ops[rng.Intn(len(ops))],
	}
	if a := algos[rng.Intn(len(algos))]; a != "" {
		m["algorithm"] = a
	}
	b, _ := json.Marshal(m)
	return b
}

var junkBodies = [][]byte{
	[]byte(`{"subject":"POLYGON ((0 0, 1 1","clip":"POLYGON EMPTY","op":"union"}`),
	[]byte(`{"subject":"POLYGON ((0 0, 1e999 0, 1 1, 0 0))","clip":"POLYGON EMPTY","op":"union"}`),
	[]byte(`total junk, not even json`),
	[]byte(`{"subject":{"type":"LineString","coordinates":[[0,0],[1,1]]},"clip":"POLYGON EMPTY","op":"xor"}`),
	[]byte(`{"op":"smoosh"}`),
}

// phaseResult is the per-phase JSON record.
type phaseResult struct {
	RateRPS     int     `json:"rateRps"`
	DurationSec float64 `json:"durationSec"`
	Misbehave   float64 `json:"misbehave"`

	Sent            int64 `json:"sent"`
	Answered        int64 `json:"answered"`
	OK              int64 `json:"ok"`
	ClientErrors    int64 `json:"clientErrors"`
	Shed            int64 `json:"shed"`
	ShedNoRA        int64 `json:"shedMissingRetryAfter"` // contract violation if > 0
	ServerErrors    int64 `json:"serverErrors"`
	Canceled        int64 `json:"canceled"`        // deliberate mid-flight cancels
	TransportErrors int64 `json:"transportErrors"` // non-deliberate transport failures

	ThroughputRPS float64 `json:"throughputRps"` // OK answers per second
	P50Ms         float64 `json:"p50Ms"`
	P90Ms         float64 `json:"p90Ms"`
	P99Ms         float64 `json:"p99Ms"`
	MaxMs         float64 `json:"maxMs"`
}

func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// runPhase drives one open-loop phase at the given arrival rate.
func runPhase(base string, rate int, dur time.Duration, misbehave float64, seed int64, verts int) phaseResult {
	res := phaseResult{RateRPS: rate, DurationSec: dur.Seconds(), Misbehave: misbehave}
	interval := time.Second / time.Duration(rate)
	rng := rand.New(rand.NewSource(seed))

	var (
		mu   sync.Mutex
		lats []float64
		wg   sync.WaitGroup
		mbN  atomic.Int64
	)
	client := &http.Client{Timeout: 30 * time.Second}
	deadline := time.Now().Add(dur)
	tick := time.NewTicker(interval)
	defer tick.Stop()

	for now := range tick.C {
		if now.After(deadline) {
			break
		}
		// All randomness is drawn on the arrival goroutine, in arrival
		// order, so a seed fully determines the request sequence.
		kind := -1
		if misbehave > 0 && rng.Float64() < misbehave {
			kind = int(mbN.Add(1)) % mbKinds
		}
		body := genBody(rng, verts)
		if kind == mbJunk {
			body = junkBodies[rng.Intn(len(junkBodies))]
		}
		cancelAfter := time.Duration(0)
		if kind == mbCancel {
			cancelAfter = time.Duration(1+rng.Intn(20)) * time.Millisecond
		}
		res.Sent++
		wg.Add(1)
		go func(body []byte, kind int, cancelAfter time.Duration) {
			defer wg.Done()
			ctx := context.Background()
			var cancel context.CancelFunc
			if cancelAfter > 0 {
				ctx, cancel = context.WithTimeout(ctx, cancelAfter)
				defer cancel()
			}
			var rd io.Reader = bytes.NewReader(body)
			if kind == mbSlowBody {
				rd = &slowReader{data: body, chunk: 64, delay: 2 * time.Millisecond}
			}
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/clip", rd)
			if err != nil {
				atomic.AddInt64(&res.TransportErrors, 1)
				return
			}
			req.Header.Set("Content-Type", "application/json")
			start := time.Now()
			resp, err := client.Do(req)
			if err != nil {
				if cancelAfter > 0 {
					atomic.AddInt64(&res.Canceled, 1)
				} else {
					atomic.AddInt64(&res.TransportErrors, 1)
				}
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			lat := time.Since(start)
			atomic.AddInt64(&res.Answered, 1)
			switch {
			case resp.StatusCode < 300:
				atomic.AddInt64(&res.OK, 1)
				mu.Lock()
				lats = append(lats, float64(lat)/float64(time.Millisecond))
				mu.Unlock()
			case resp.StatusCode == http.StatusServiceUnavailable:
				atomic.AddInt64(&res.Shed, 1)
				if resp.Header.Get("Retry-After") == "" {
					atomic.AddInt64(&res.ShedNoRA, 1)
				}
			case resp.StatusCode < 500:
				atomic.AddInt64(&res.ClientErrors, 1)
			default:
				atomic.AddInt64(&res.ServerErrors, 1)
			}
		}(body, kind, cancelAfter)
	}
	wg.Wait()

	sort.Float64s(lats)
	res.ThroughputRPS = float64(res.OK) / dur.Seconds()
	res.P50Ms = percentile(lats, 0.50)
	res.P90Ms = percentile(lats, 0.90)
	res.P99Ms = percentile(lats, 0.99)
	if n := len(lats); n > 0 {
		res.MaxMs = lats[n-1]
	}
	return res
}

func main() {
	base := flag.String("url", "http://localhost:8080", "clipd base URL")
	rates := flag.String("rates", "100,400", "comma-separated open-loop arrival rates (req/s), one phase each")
	dur := flag.Duration("duration", 5*time.Second, "duration of each phase")
	misbehave := flag.Float64("misbehave", 0, "fraction of requests from misbehaving clients (slow body / junk geometry / mid-flight cancel)")
	seed := flag.Int64("seed", 42, "random seed (same seed, same request sequence)")
	verts := flag.Int("verts", 64, "max extra vertices per generated ring")
	label := flag.String("label", "", "label attached to the output object")
	flag.Parse()

	var phases []phaseResult
	for _, f := range strings.Split(*rates, ",") {
		rate, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || rate <= 0 {
			fmt.Fprintf(os.Stderr, "clipload: bad rate %q\n", f)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "clipload: phase rate=%d req/s for %v (misbehave=%.2f)\n", rate, *dur, *misbehave)
		phases = append(phases, runPhase(*base, rate, *dur, *misbehave, *seed, *verts))
	}
	out := map[string]any{"phases": phases, "seed": *seed}
	if *label != "" {
		out["label"] = *label
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "clipload: %v\n", err)
		os.Exit(1)
	}
}

// Package serve is the fault-tolerant HTTP serving layer over the clipping
// library: the clipd daemon is a thin main around this package. Robustness
// is the architecture, not a wrapper —
//
//   - each request's handler admits its own request and runs its own clip:
//     the paper parallelises inside one clip (Algorithm 2's slabs), so
//     concurrent requests share no work and nothing coalesces them;
//   - admission control bounds the requests waiting for a work slot,
//     switches overflow traffic to the degraded chain (the
//     coarse-grid/sequential tail of the resilience chain table) and sheds
//     with 503 + Retry-After only when even the degraded slots are
//     exhausted — no silent drops;
//   - every request runs under a deadline budget that propagates into the
//     library's per-stage watchdogs; only ClipCtx's own fallback chain
//     re-runs a failed clip;
//   - guard fault sites (serve.enqueue / serve.clip / serve.encode) let
//     the chaos harness drive panics, hangs and corruption through the
//     server itself, which must answer every request and never crash;
//   - a flat per-request metrics record (enqueue/start/arrange/sweep/stitch
//     timestamps plus the Stats.Resilience counters) is retained in a ring
//     and exported as CSV, with /healthz and /statz for probes.
package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"polyclip"
	"polyclip/internal/acache"
	"polyclip/internal/guard"
	"polyclip/internal/tile"
)

func numCPU() int { return runtime.GOMAXPROCS(0) }

// Config parameterizes one Server. The zero value is usable: every knob
// has a production-shaped default.
type Config struct {
	// QueueDepth bounds the requests waiting for a work slot; when that
	// many wait, traffic switches to the degraded path (default 256).
	QueueDepth int
	// MaxConcurrent bounds clips in flight at once (default 2*GOMAXPROCS,
	// min 4). Backpressure propagates: when every slot is busy requests
	// wait, the queue fills, and admission control starts
	// degrading/shedding.
	MaxConcurrent int
	// DegradedConcurrency is the number of slots serving overflow traffic
	// through the degraded chain (default 2).
	DegradedConcurrency int
	// DegradedHold is how long degraded mode stays engaged after the last
	// overflow (default 1s) — the hysteresis that makes /statz mode
	// reporting stable.
	DegradedHold time.Duration
	// RequestTimeout is the per-request deadline budget, propagated into
	// the engine's per-stage watchdogs (default 5s; <0 disables).
	RequestTimeout time.Duration
	// RetryAfter is the advertised Retry-After on shed responses
	// (default 1s, rounded up to whole seconds).
	RetryAfter time.Duration
	// Threads bounds per-clip parallelism in the normal path; degraded
	// clips are always single-threaded (default: library default).
	Threads int
	// MaxBodyBytes caps request bodies (default 1 MiB).
	MaxBodyBytes int64
	// MetricsWindow is the retained per-request record count (default 4096).
	MetricsWindow int
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
		if n := 2 * numCPU(); n > c.MaxConcurrent {
			c.MaxConcurrent = n
		}
	}
	if c.DegradedConcurrency <= 0 {
		c.DegradedConcurrency = 2
	}
	if c.DegradedHold <= 0 {
		c.DegradedHold = time.Second
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MetricsWindow <= 0 {
		c.MetricsWindow = 4096
	}
	return c
}

// Server is the serving engine. Create with NewServer, expose via
// Handler, stop with Close.
type Server struct {
	cfg Config

	queue       chan struct{} // one token per request waiting for a work slot
	workSem     chan struct{} // bounds clips in flight (normal path)
	degradedSem chan struct{} // bounds degraded clips (overflow path)
	done        chan struct{}
	closed      atomic.Bool

	degradedUntil atomic.Int64 // unix nanos; mode is degraded until then

	metrics *metricsRing
	start   time.Time

	nextID   atomic.Int64
	served   atomic.Int64
	ok       atomic.Int64
	cliErr   atomic.Int64
	srvErr   atomic.Int64
	shed     atomic.Int64
	degraded atomic.Int64
	inflight atomic.Int64

	recovered     atomic.Int64
	stageTimeouts atomic.Int64
	auditFailures atomic.Int64
	fallbackSteps atomic.Int64
}

// NewServer builds a Server. It starts no goroutine: each request's
// handler runs its own clip.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:         cfg,
		queue:       make(chan struct{}, cfg.QueueDepth),
		workSem:     make(chan struct{}, cfg.MaxConcurrent),
		degradedSem: make(chan struct{}, cfg.DegradedConcurrency),
		done:        make(chan struct{}),
		metrics:     newMetricsRing(cfg.MetricsWindow),
		start:       time.Now(),
	}
}

// Handler returns the HTTP surface: POST /clip, POST /tile, GET /healthz,
// GET /statz, GET /metrics.csv.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/clip", s.handleClip)
	mux.HandleFunc("/tile", s.handleTile)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statz", s.handleStatz)
	mux.HandleFunc("/metrics.csv", s.handleMetricsCSV)
	return mux
}

// Close marks the server draining: new requests, and requests still
// waiting for a work slot, are answered 503. In-flight clips finish on
// their own goroutines.
func (s *Server) Close() {
	if s.closed.CompareAndSwap(false, true) {
		close(s.done)
	}
}

// Mode reports the admission mode: "degraded" while overflow traffic is
// being served through the degraded chain (with DegradedHold hysteresis),
// "normal" otherwise.
func (s *Server) Mode() string {
	if time.Now().UnixNano() < s.degradedUntil.Load() {
		return "degraded"
	}
	return "normal"
}

// markDegraded engages (or extends) degraded mode.
func (s *Server) markDegraded() {
	until := time.Now().Add(s.cfg.DegradedHold).UnixNano()
	for {
		cur := s.degradedUntil.Load()
		if cur >= until || s.degradedUntil.CompareAndSwap(cur, until) {
			return
		}
	}
}

// Statz assembles the aggregate snapshot.
func (s *Server) Statz() Statz {
	p50, p99 := s.metrics.Percentiles()
	st := Statz{
		UptimeSeconds:  time.Since(s.start).Seconds(),
		Mode:           s.Mode(),
		Served:         s.served.Load(),
		OK:             s.ok.Load(),
		ClientErrors:   s.cliErr.Load(),
		ServerErrors:   s.srvErr.Load(),
		Shed:           s.shed.Load(),
		DegradedServed: s.degraded.Load(),
		QueueLen:       len(s.queue),
		QueueCap:       cap(s.queue),
		Inflight:       s.inflight.Load(),
		P50Ms:          float64(p50) / float64(time.Millisecond),
		P99Ms:          float64(p99) / float64(time.Millisecond),
		Recovered:      s.recovered.Load(),
		StageTimeouts:  s.stageTimeouts.Load(),
		AuditFailures:  s.auditFailures.Load(),
		FallbackSteps:  s.fallbackSteps.Load(),
	}
	cs := acache.Shared().Stats()
	st.CacheHits = cs.Hits
	st.CacheMisses = cs.Misses
	st.CacheBytes = cs.Bytes
	st.CacheEntries = cs.Entries
	st.CacheHitRate = cs.HitRate()
	return st
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":        "ok",
		"mode":          s.Mode(),
		"uptimeSeconds": time.Since(s.start).Seconds(),
	})
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Statz())
}

func (s *Server) handleMetricsCSV(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	_ = s.metrics.WriteCSV(w)
}

// handleClip is the clip request path: decode → admit (wait for a work
// slot, degrade, or shed) → clip → encode. A panic anywhere in the handler
// — including the serve.enqueue / serve.encode fault sites — is answered as
// a structured 500, never a crash.
func (s *Server) handleClip(w http.ResponseWriter, r *http.Request) {
	s.handleJob(w, r, decodeRequest)
}

// handleTile is the tile-cutting path: same admission, degraded and shed
// machinery as /clip, with a tile decoder in front and the tile encoder
// behind.
func (s *Server) handleTile(w http.ResponseWriter, r *http.Request) {
	s.handleJob(w, r, decodeTileRequest)
}

// result is what one clip goroutine hands back to its handler.
type result struct {
	out polyclip.Polygon
	st  *polyclip.Stats
	err error

	tiles []tile.Tile // tile requests only
	tst   *tile.Stats
}

// handleJob runs one request of either kind through the shared pipeline.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request,
	decode func(http.ResponseWriter, *http.Request, int64) (*parsedRequest, *httpError)) {
	m := &RequestMetrics{ID: s.nextID.Add(1), RecvNs: time.Now().UnixNano()}
	answered := false
	finish := func(status int) {
		answered = true
		m.Status = status
		m.DoneNs = time.Now().UnixNano()
		s.metrics.Add(*m)
		s.served.Add(1)
		switch {
		case status < 400:
			s.ok.Add(1)
		case status < 500:
			s.cliErr.Add(1)
		default:
			s.srvErr.Add(1)
		}
	}
	defer func() {
		if rec := recover(); rec != nil {
			err := guard.FromPanic("serve.handler", -1, guard.NoPair, rec)
			he := httpErrorf(http.StatusInternalServerError, "panic", "%v", err)
			s.writeError(w, he)
			if !answered {
				finish(he.status)
			}
		}
	}()

	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		he := httpErrorf(http.StatusMethodNotAllowed, "method-not-allowed", "use POST")
		s.writeError(w, he)
		finish(he.status)
		return
	}
	if s.closed.Load() {
		he := s.shedError("server is draining")
		s.writeShed(w, he)
		m.Shed = true
		finish(he.status)
		return
	}

	preq, he := decode(w, r, s.cfg.MaxBodyBytes)
	if he != nil {
		s.writeError(w, he)
		finish(he.status)
		return
	}
	m.Op, m.Algorithm = preq.opName, preq.algoName

	ctx := r.Context()
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}

	// Admission. The enqueue fault site sits before it so an injected
	// panic exercises the handler's recovery path.
	guard.Hit("serve.enqueue")
	slot, he := s.admit(ctx, m)
	if he != nil {
		if he.status == http.StatusServiceUnavailable {
			m.Shed = true
			s.writeShed(w, he)
		} else {
			s.writeError(w, he)
		}
		finish(he.status)
		return
	}

	// The clip runs on a goroutine that holds the slot, so the handler can
	// still answer at its deadline when an engine does not poll ctx.
	m.StartNs = time.Now().UnixNano()
	done := make(chan result, 1)
	go func(degraded bool) {
		s.inflight.Add(1)
		defer func() {
			s.inflight.Add(-1)
			<-slot
		}()
		done <- s.run(ctx, preq, degraded)
	}(m.Degraded)

	select {
	case res := <-done:
		m.absorbStats(res.st)
		if res.err != nil {
			he := clipError(res.err)
			s.writeError(w, he)
			finish(he.status)
			return
		}
		status, err := s.writeResult(w, preq, m.Degraded, res)
		if err != nil {
			he := clipError(err)
			s.writeError(w, he)
			finish(he.status)
			return
		}
		finish(status)
	case <-ctx.Done():
		he := clipError(ctx.Err())
		s.writeError(w, he)
		finish(he.status)
	}
}

// admit takes a slot for one request and returns the semaphore to release
// when its clip is done. While fewer than QueueDepth requests wait, the
// request waits for a work slot; otherwise it takes a degraded slot. When
// neither is possible, or the server starts draining while the request
// waits, admit returns the 503 to shed it with; a request whose context
// ends while it waits gets that context's answer.
func (s *Server) admit(ctx context.Context, m *RequestMetrics) (chan struct{}, *httpError) {
	select {
	case s.queue <- struct{}{}:
		m.EnqueueNs = time.Now().UnixNano()
		defer func() { <-s.queue }()
		select {
		case s.workSem <- struct{}{}:
			return s.workSem, nil
		case <-s.done:
			return nil, s.shedError("server is draining")
		case <-ctx.Done():
			return nil, clipError(ctx.Err())
		}
	default:
	}
	s.markDegraded()
	select {
	case s.degradedSem <- struct{}{}:
		m.Degraded = true
		m.EnqueueNs = time.Now().UnixNano()
		s.degraded.Add(1)
		return s.degradedSem, nil
	default:
		return nil, s.shedError("queue and degraded slots are full")
	}
}

// run is the clip goroutine's body: one clip, or one tile cut, through the
// hardened pipeline under the request's deadline. Degraded requests run
// single-threaded. The serve.clip fault site sits at its entry, inside its
// recover, so a panic outside the engines (those are isolated inside
// ClipCtx) fails only this request.
func (s *Server) run(ctx context.Context, req *parsedRequest, degraded bool) (res result) {
	defer func() {
		if r := recover(); r != nil {
			res = result{err: guard.FromPanic("serve.clip", -1, guard.NoPair, r)}
		}
	}()
	guard.Hit("serve.clip")
	if req.tileSpec != nil {
		// The prepared pyramid cut goes through the shared prepare cache,
		// so a layer cut repeatedly canonicalizes once.
		opt := tile.Options{Rule: req.rule, Threads: s.cfg.Threads, Cache: acache.Shared()}
		if degraded {
			opt.Threads = 1
		}
		tiles, st, err := tile.Cut(ctx, req.subject, *req.tileSpec, opt)
		return result{tiles: tiles, tst: &st, err: err}
	}
	opt := polyclip.Options{
		Algorithm: req.algo,
		Rule:      req.rule,
		Threads:   s.cfg.Threads,
		Degraded:  degraded,
	}
	res.out, res.st, res.err = polyclip.ClipCtx(ctx, req.subject, req.clip, req.op, opt)
	if st := res.st; st != nil {
		s.recovered.Add(int64(st.Resilience.Recovered))
		s.stageTimeouts.Add(int64(st.Resilience.StageTimeouts))
		s.auditFailures.Add(int64(st.Resilience.InvariantFailures))
		if n := len(st.Resilience.Attempts) - 1; n > 0 {
			s.fallbackSteps.Add(int64(n))
		}
	}
	return res
}

// writeResult encodes the clipped polygon as GeoJSON — or, for a tile
// request, the tile list. The serve.encode fault site sits before
// marshalling; a panic there unwinds into the handler's recovery.
func (s *Server) writeResult(w http.ResponseWriter, req *parsedRequest, degraded bool, res result) (int, error) {
	guard.Hit("serve.encode")
	if req.tileSpec != nil {
		return s.writeTileResult(w, degraded, res)
	}
	raw, err := polyclip.FormatGeoJSON(res.out)
	if err != nil {
		return 0, err
	}
	resp := ClipResponse{
		Result:   raw,
		Degraded: degraded,
		Stats:    res.st,
	}
	if res.st != nil {
		resp.Engine = res.st.Engine
		resp.Attempts = res.st.Resilience.Attempts
	}
	writeJSON(w, http.StatusOK, resp)
	return http.StatusOK, nil
}

// writeTileResult encodes one cut pyramid: each non-empty tile as a
// (z, x, y, geometry) record, already in canonical sorted order.
func (s *Server) writeTileResult(w http.ResponseWriter, degraded bool, res result) (int, error) {
	resp := TileResponse{
		Tiles:    make([]TileFeature, 0, len(res.tiles)),
		Count:    len(res.tiles),
		Stats:    res.tst,
		Degraded: degraded,
	}
	for _, t := range res.tiles {
		raw, err := polyclip.FormatGeoJSON(t.Poly)
		if err != nil {
			return 0, err
		}
		resp.Tiles = append(resp.Tiles, TileFeature{Z: t.Z, X: t.X, Y: t.Y, Geometry: raw})
	}
	writeJSON(w, http.StatusOK, resp)
	return http.StatusOK, nil
}

// shedError builds the 503 answer; every shed response advertises
// Retry-After.
func (s *Server) shedError(msg string) *httpError {
	he := httpErrorf(http.StatusServiceUnavailable, "overloaded", "%s", msg)
	he.body.RetryAfterSeconds = int((s.cfg.RetryAfter + time.Second - 1) / time.Second)
	if he.body.RetryAfterSeconds < 1 {
		he.body.RetryAfterSeconds = 1
	}
	return he
}

func (s *Server) writeShed(w http.ResponseWriter, he *httpError) {
	w.Header().Set("Retry-After", strconv.Itoa(he.body.RetryAfterSeconds))
	s.shed.Add(1)
	writeJSON(w, he.status, he.body)
}

func (s *Server) writeError(w http.ResponseWriter, he *httpError) {
	writeJSON(w, he.status, he.body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

package serve

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"polyclip"
)

// RequestMetrics is the flat per-request record of the serving pipeline:
// one row per request, every field scalar, so the whole window dumps to CSV
// without reflection. Timestamps are Unix nanoseconds at each lifecycle
// point; stage durations come from the accepted engine attempt's Stats.
type RequestMetrics struct {
	ID        int64  `json:"id"`
	Op        string `json:"op"`
	Algorithm string `json:"algorithm"`
	Engine    string `json:"engine,omitempty"`
	Status    int    `json:"status"`
	Degraded  bool   `json:"degraded"`
	Shed      bool   `json:"shed"`

	RecvNs    int64 `json:"recvNs"`    // request decoded
	EnqueueNs int64 `json:"enqueueNs"` // admitted: waits for a work slot, or takes a degraded one
	StartNs   int64 `json:"startNs"`   // holds its slot; the clip starts (0 when shed)
	DoneNs    int64 `json:"doneNs"`    // response written

	ArrangeNs int64 `json:"arrangeNs"` // engine sort+partition (arrangement) time
	SweepNs   int64 `json:"sweepNs"`   // engine per-slab clip (sweep) time
	StitchNs  int64 `json:"stitchNs"`  // engine merge (stitch) time

	Recovered     int    `json:"recovered"`
	StageTimeouts int    `json:"stageTimeouts"`
	ChainRetries  int    `json:"chainRetries"`
	AuditFailures int    `json:"auditFailures"`
	FallbackSteps int    `json:"fallbackSteps"`
	Attempts      string `json:"attempts,omitempty"` // semicolon-joined "name:outcome" trail
}

// absorbStats folds the clip's Stats (its accepted attempt, or its final
// failed one) into the record.
func (m *RequestMetrics) absorbStats(st *polyclip.Stats) {
	if st == nil {
		return
	}
	m.Engine = st.Engine
	m.ArrangeNs = int64(st.Sort + st.Partition)
	m.SweepNs = int64(st.Clip)
	m.StitchNs = int64(st.Merge)
	m.Recovered = st.Resilience.Recovered
	m.StageTimeouts = st.Resilience.StageTimeouts
	m.ChainRetries = st.Resilience.Retries
	m.AuditFailures = st.Resilience.InvariantFailures
	m.FallbackSteps = max(len(st.Resilience.Attempts)-1, 0)
	m.Attempts = strings.Join(st.Resilience.Attempts, ";")
}

// LatencyNs returns the end-to-end latency, 0 until the request is done.
func (m *RequestMetrics) LatencyNs() int64 {
	if m.DoneNs == 0 {
		return 0
	}
	return m.DoneNs - m.RecvNs
}

// csvHeader is the stable column order of the CSV export.
var csvHeader = []string{
	"id", "op", "algorithm", "engine", "status", "degraded", "shed",
	"recvNs", "enqueueNs", "startNs", "doneNs", "latencyNs",
	"arrangeNs", "sweepNs", "stitchNs",
	"recovered", "stageTimeouts", "chainRetries",
	"auditFailures", "fallbackSteps", "attempts",
}

// csvRow renders the record in csvHeader order.
func (m *RequestMetrics) csvRow() []string {
	return []string{
		strconv.FormatInt(m.ID, 10), m.Op, m.Algorithm, m.Engine,
		strconv.Itoa(m.Status), strconv.FormatBool(m.Degraded), strconv.FormatBool(m.Shed),
		strconv.FormatInt(m.RecvNs, 10), strconv.FormatInt(m.EnqueueNs, 10),
		strconv.FormatInt(m.StartNs, 10), strconv.FormatInt(m.DoneNs, 10),
		strconv.FormatInt(m.LatencyNs(), 10),
		strconv.FormatInt(m.ArrangeNs, 10), strconv.FormatInt(m.SweepNs, 10),
		strconv.FormatInt(m.StitchNs, 10),
		strconv.Itoa(m.Recovered), strconv.Itoa(m.StageTimeouts),
		strconv.Itoa(m.ChainRetries),
		strconv.Itoa(m.AuditFailures), strconv.Itoa(m.FallbackSteps),
		m.Attempts,
	}
}

// metricsRing retains the last Window completed request records.
type metricsRing struct {
	mu     sync.Mutex
	buf    []RequestMetrics
	next   int
	filled bool
}

func newMetricsRing(window int) *metricsRing {
	if window <= 0 {
		window = 4096
	}
	return &metricsRing{buf: make([]RequestMetrics, window)}
}

// Add records one finished request.
func (r *metricsRing) Add(m RequestMetrics) {
	r.mu.Lock()
	r.buf[r.next] = m
	r.next++
	if r.next == len(r.buf) {
		r.next, r.filled = 0, true
	}
	r.mu.Unlock()
}

// Records returns the retained window, oldest first.
func (r *metricsRing) Records() []RequestMetrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []RequestMetrics
	if r.filled {
		out = append(out, r.buf[r.next:]...)
	}
	out = append(out, r.buf[:r.next]...)
	return out
}

// WriteCSV dumps the retained window as CSV, oldest first.
func (r *metricsRing) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, strings.Join(csvHeader, ",")+"\n"); err != nil {
		return err
	}
	for _, m := range r.Records() {
		if _, err := io.WriteString(w, strings.Join(m.csvRow(), ",")+"\n"); err != nil {
			return err
		}
	}
	return nil
}

// Percentiles returns the p50/p99 end-to-end latency over the retained
// window's answered (non-shed) requests; zeros when the window is empty.
func (r *metricsRing) Percentiles() (p50, p99 time.Duration) {
	var lat []int64
	for _, m := range r.Records() {
		if !m.Shed && m.DoneNs > 0 {
			lat = append(lat, m.LatencyNs())
		}
	}
	if len(lat) == 0 {
		return 0, 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	idx := func(q float64) int64 {
		i := int(q * float64(len(lat)-1))
		return lat[i]
	}
	return time.Duration(idx(0.50)), time.Duration(idx(0.99))
}

// Statz is the aggregate snapshot served by /statz.
type Statz struct {
	UptimeSeconds float64 `json:"uptimeSeconds"`
	Mode          string  `json:"mode"` // "normal" | "degraded"

	Served         int64 `json:"served"` // requests fully answered (any status)
	OK             int64 `json:"ok"`
	ClientErrors   int64 `json:"clientErrors"`
	ServerErrors   int64 `json:"serverErrors"`
	Shed           int64 `json:"shed"`           // 503 + Retry-After answers
	DegradedServed int64 `json:"degradedServed"` // overflow served by the degraded chain

	QueueLen int   `json:"queueLen"` // requests waiting for a work slot
	QueueCap int   `json:"queueCap"`
	Inflight int64 `json:"inflight"`

	P50Ms float64 `json:"p50Ms"`
	P99Ms float64 `json:"p99Ms"`

	Recovered     int64 `json:"recovered"`
	StageTimeouts int64 `json:"stageTimeouts"`
	AuditFailures int64 `json:"auditFailures"`
	FallbackSteps int64 `json:"fallbackSteps"`

	// Prepare-cache counters: the process-wide acache that POST /tile
	// canonicalizes layers through; lifetime totals, not per-window.
	CacheHits    uint64  `json:"cacheHits"`
	CacheMisses  uint64  `json:"cacheMisses"`
	CacheBytes   int64   `json:"cacheBytes"`
	CacheEntries int     `json:"cacheEntries"`
	CacheHitRate float64 `json:"cacheHitRate"`
}

// String renders the snapshot as one log-friendly line.
func (s Statz) String() string {
	return fmt.Sprintf("mode=%s served=%d ok=%d shed=%d degraded=%d p50=%.2fms p99=%.2fms queue=%d/%d",
		s.Mode, s.Served, s.OK, s.Shed, s.DegradedServed, s.P50Ms, s.P99Ms, s.QueueLen, s.QueueCap)
}

package polyclip

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"polyclip/internal/guard"
)

// circle builds a many-vertex regular polygon so multi-slab runs have
// enough events to actually produce many slabs.
func circle(cx, cy, r float64, n int) Polygon {
	ring := make(Ring, n)
	for i := 0; i < n; i++ {
		a := 2 * math.Pi * float64(i) / float64(n)
		ring[i] = Point{X: cx + r*math.Cos(a), Y: cy + r*math.Sin(a)}
	}
	return Polygon{ring}
}

func attemptsOf(st *Stats) string {
	if st == nil {
		return ""
	}
	return strings.Join(st.Resilience.Attempts, " ")
}

func TestClipCtxRejectsInvalidInput(t *testing.T) {
	bad := Polygon{{{X: math.NaN(), Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}}}
	good := rect(0, 0, 4, 4)
	for name, args := range map[string][2]Polygon{
		"bad subject": {bad, good},
		"bad clip":    {good, bad},
	} {
		_, _, err := ClipCtx(context.Background(), args[0], args[1], Intersection, Options{})
		if err == nil {
			t.Fatalf("%s: no error", name)
		}
		if !errors.Is(err, ErrInvalidInput) {
			t.Fatalf("%s: %v does not wrap ErrInvalidInput", name, err)
		}
	}
	huge := Polygon{{{X: 0, Y: 0}, {X: 1e300, Y: 0}, {X: 1e300, Y: 1e300}}}
	if _, _, err := ClipCtx(context.Background(), huge, good, Union, Options{}); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("overflowing coordinates accepted: %v", err)
	}
}

func TestClipCtxRepairsDirtyInput(t *testing.T) {
	// Duplicate consecutive vertices and a zero-area spike: repairable.
	dirty := Polygon{{
		{X: 0, Y: 0}, {X: 0, Y: 0}, {X: 4, Y: 0}, {X: 6, Y: 0}, {X: 4, Y: 0},
		{X: 4, Y: 4}, {X: 0, Y: 4},
	}}
	out, st, err := ClipCtx(context.Background(), dirty, rect(2, 2, 6, 6), Intersection, Options{})
	if err != nil {
		t.Fatalf("ClipCtx: %v", err)
	}
	if !st.Resilience.Repaired {
		t.Fatal("Repaired flag not set for dirty input")
	}
	if a := Area(out); math.Abs(a-4) > 1e-9 {
		t.Fatalf("intersection area %g, want 4", a)
	}
}

func TestClipCtxHappyPathRecordsAttempt(t *testing.T) {
	out, st, err := ClipCtx(context.Background(), rect(0, 0, 4, 4), rect(2, 2, 6, 6), Intersection, Options{})
	if err != nil {
		t.Fatalf("ClipCtx: %v", err)
	}
	if a := Area(out); math.Abs(a-4) > 1e-9 {
		t.Fatalf("area %g, want 4", a)
	}
	if got := attemptsOf(st); got != "overlay:ok" {
		t.Fatalf("attempts %q, want overlay:ok", got)
	}
}

func TestSlabPanicReturnsClipError(t *testing.T) {
	guard.WithFault(t, "core.slab-clip", guard.Once(func() { panic("injected slab crash") }))

	a := circle(0, 0, 10, 256)
	b := circle(1, 1, 10, 256)
	_, st, err := ClipCtx(context.Background(), a, b, Intersection, Options{
		Algorithm: AlgoSlabs, Threads: 4, NoFallback: true,
	})
	if err == nil {
		t.Fatal("injected slab panic did not surface as an error")
	}
	var ce *ClipError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T (%v) is not a *ClipError", err, err)
	}
	if ce.Stage != "slab-clip" {
		t.Fatalf("stage %q, want slab-clip", ce.Stage)
	}
	if ce.Slab < 0 {
		t.Fatalf("no slab attribution: %+v", ce)
	}
	if len(ce.Stack) == 0 {
		t.Fatal("no worker stack captured")
	}
	if got := attemptsOf(st); got != "slabs:panic" {
		t.Fatalf("attempts %q, want slabs:panic", got)
	}
}

func TestSlabPanicRescuedByStageRetry(t *testing.T) {
	// A transient panic in one slab worker is rescued by the in-stage retry
	// (sequential re-run of the clip stage) without ever leaving the slabs
	// engine, so the attempt record shows a clean slabs:ok plus the retry
	// counters.
	guard.WithFault(t, "core.slab-clip", guard.Once(func() { panic("transient slab crash") }))

	a := circle(0, 0, 10, 256)
	b := circle(1, 1, 10, 256)
	want := Area(Clip(a, b, Intersection))
	out, st, err := ClipCtx(context.Background(), a, b, Intersection, Options{
		Algorithm: AlgoSlabs, Threads: 4,
	})
	if err != nil {
		t.Fatalf("stage retry did not rescue: %v", err)
	}
	if a := Area(out); math.Abs(a-want) > 1e-6*want {
		t.Fatalf("rescued area %g, want %g", a, want)
	}
	if got := attemptsOf(st); got != "slabs:ok" {
		t.Fatalf("attempts %q, want slabs:ok (in-stage rescue)", got)
	}
	if st.Resilience.Retries < 1 {
		t.Fatalf("Retries = %d, want >= 1", st.Resilience.Retries)
	}
	if st.Resilience.Recovered < 1 {
		t.Fatalf("Recovered = %d, want >= 1", st.Resilience.Recovered)
	}
}

func TestDifferentialFallbackSequentialRescue(t *testing.T) {
	// Corrupt the first two results (the parallel overlay attempt and its
	// coarse-grid retry) so the audit rejects both and the sequential Vatti
	// engine has to rescue the run.
	corrupt := func(p Polygon) Polygon {
		return Polygon{{{X: 0, Y: 0}, {X: 1e6, Y: 0}, {X: 1e6, Y: 1e6}, {X: 0, Y: 1e6}}}
	}
	n := 0
	guard.WithFault(t, "polyclip.result", func(p Polygon) Polygon {
		n++
		if n <= 2 {
			return corrupt(p)
		}
		return p
	})

	out, st, err := ClipCtx(context.Background(), rect(0, 0, 4, 4), rect(2, 2, 6, 6), Intersection, Options{})
	if err != nil {
		t.Fatalf("ClipCtx: %v", err)
	}
	if a := Area(out); math.Abs(a-4) > 1e-9 {
		t.Fatalf("rescued area %g, want 4", a)
	}
	want := "overlay:audit-fail overlay-coarse:audit-fail vatti:ok"
	if got := attemptsOf(st); got != want {
		t.Fatalf("attempts %q, want %q", got, want)
	}
}

func TestAuditInconclusiveReturnsResult(t *testing.T) {
	// Corrupt every attempt: the chain cannot distinguish a damaged result
	// from an audit false-positive, so the last attempt's result is
	// returned, flagged audit-inconclusive.
	guard.WithFault(t, "polyclip.result", func(p Polygon) Polygon {
		return Polygon{{{X: 0, Y: 0}, {X: 1e6, Y: 0}, {X: 1e6, Y: 1e6}, {X: 0, Y: 1e6}}}
	})
	out, st, err := ClipCtx(context.Background(), rect(0, 0, 4, 4), rect(2, 2, 6, 6), Intersection, Options{})
	if err != nil {
		t.Fatalf("ClipCtx: %v", err)
	}
	if len(out) == 0 {
		t.Fatal("no result returned")
	}
	atts := st.Resilience.Attempts
	if len(atts) != 3 || atts[2] != "vatti:audit-inconclusive" {
		t.Fatalf("attempts %v, want 3 ending in vatti:audit-inconclusive", atts)
	}
}

func TestClipCtxCancellationStopsWork(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel from inside the first slab worker: the stage watchdog abandons
	// the run and no per-slab results are committed.
	guard.WithFault(t, "core.slab-clip", guard.Once(cancel))

	a := circle(0, 0, 10, 2048)
	b := circle(1, 1, 10, 2048)
	out, st, err := ClipCtx(ctx, a, b, Intersection, Options{
		Algorithm: AlgoSlabs, Threads: 2, Slabs: 32, NoFallback: true,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatalf("partial result returned after cancellation: %d rings", len(out))
	}
	if st.Slabs < 8 {
		t.Fatalf("only %d slabs: the run cannot demonstrate early exit", st.Slabs)
	}
	// The abandoned clip stage must not leak its (possibly still being
	// written) per-slab buffers into the returned stats.
	if len(st.PerThread) != 0 {
		t.Fatalf("per-thread timings committed for an abandoned stage: %v", st.PerThread)
	}
	if got := attemptsOf(st); got != "slabs:canceled" {
		t.Fatalf("attempts %q, want slabs:canceled", got)
	}
}

func TestStageDeadlineBoundsHungWorker(t *testing.T) {
	// One par worker goes to sleep for far longer than the whole clip
	// budget. The stage watchdog must abandon it at the stage's share of the
	// deadline and the sequential retry must rescue the run, so the clip
	// returns a correct result well within 2x the configured budget.
	a := circle(0, 0, 10, 512)
	b := circle(1, 1, 10, 512)
	want := Area(Clip(a, b, Intersection))

	const budget = 500 * time.Millisecond
	// The one-shot fault can be stolen by a worker goroutine abandoned by an
	// earlier test: abandoned workers keep running by design (see par.Run)
	// and hit the same "par.worker" site. A stolen fault leaves our clip
	// running clean, so re-arm and retry until the fault lands in this run.
	for attempt := 0; ; attempt++ {
		guard.WithFault(t, "par.worker", guard.Once(func() { time.Sleep(5 * time.Second) }))
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		start := time.Now()
		out, st, err := ClipCtx(ctx, a, b, Intersection, Options{Algorithm: AlgoSlabs, Threads: 4})
		elapsed := time.Since(start)
		cancel()

		if elapsed > 2*budget {
			t.Fatalf("clip with a hung worker took %v, want <= %v (2x budget)", elapsed, 2*budget)
		}
		if err != nil {
			t.Fatalf("hung worker not rescued: %v", err)
		}
		if st.Resilience.StageTimeouts < 1 {
			if attempt < 4 {
				guard.ClearFault("par.worker")
				time.Sleep(100 * time.Millisecond)
				continue
			}
			t.Fatalf("StageTimeouts = %d, want >= 1 (resilience: %+v)", st.Resilience.StageTimeouts, st.Resilience)
		}
		if st.Resilience.Retries < 1 {
			t.Fatalf("Retries = %d, want >= 1", st.Resilience.Retries)
		}
		if got := Area(out); math.Abs(got-want) > 1e-6*want {
			t.Fatalf("rescued area %g, want %g", got, want)
		}
		return
	}
}

func TestClipCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, _, err := ClipCtx(ctx, rect(0, 0, 4, 4), rect(2, 2, 6, 6), Union, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatalf("partial result returned: %v", out)
	}
}

// TestOverlayLayersCtxPairPanic: in the layer overlay a panicking pair clip
// is rescued by the reference engine, or surfaces with NoFallback as a
// *ClipError naming the pair; an invalid feature is rejected up front.
func TestOverlayLayersCtxPairPanic(t *testing.T) {
	la := Layer{rect(0, 0, 4, 4), rect(10, 0, 14, 4)}
	lb := Layer{rect(2, 2, 6, 6), rect(12, 2, 16, 6)}

	t.Run("rescued", func(t *testing.T) {
		guard.WithFault(t, "batch.pair-clip", guard.Once(func() { panic("pair crash") }))
		out, st, err := OverlayBatchLayersCtx(context.Background(), la, lb, Intersection, BatchOptions{Threads: 1})
		if err != nil {
			t.Fatalf("pair rescue failed: %v", err)
		}
		if len(out) != 2 {
			t.Fatalf("want 2 pair results, got %d", len(out))
		}
		if st.Rescued != 1 {
			t.Fatalf("Rescued = %d, want 1", st.Rescued)
		}
	})
	t.Run("surfaced with NoFallback", func(t *testing.T) {
		guard.WithFault(t, "batch.pair-clip", guard.Once(func() { panic("pair crash") }))
		_, _, err := OverlayBatchLayersCtx(context.Background(), la, lb, Intersection, BatchOptions{Threads: 1, NoFallback: true})
		var ce *ClipError
		if !errors.As(err, &ce) {
			t.Fatalf("error %T (%v) is not a *ClipError", err, err)
		}
		if ce.Stage != "batch-clip" {
			t.Fatalf("stage %q, want batch-clip", ce.Stage)
		}
		if ce.Pair[0] < 0 || ce.Pair[1] < 0 {
			t.Fatalf("no pair attribution: %+v", ce)
		}
	})
	t.Run("invalid feature rejected", func(t *testing.T) {
		bad := Layer{Polygon{{{X: math.Inf(1), Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}}}}
		_, _, err := OverlayBatchLayersCtx(context.Background(), bad, lb, Intersection, BatchOptions{})
		if !errors.Is(err, ErrInvalidInput) {
			t.Fatalf("err %v does not wrap ErrInvalidInput", err)
		}
	})
}

func TestScanbeamAndSequentialChains(t *testing.T) {
	a, b := rect(0, 0, 4, 4), rect(2, 2, 6, 6)
	for _, alg := range []Algorithm{AlgoScanbeam, AlgoSequential} {
		out, st, err := ClipCtx(context.Background(), a, b, Intersection, Options{Algorithm: alg})
		if err != nil {
			t.Fatalf("alg %d: %v", alg, err)
		}
		if got := Area(out); math.Abs(got-4) > 1e-9 {
			t.Fatalf("alg %d: area %g, want 4", alg, got)
		}
		if len(st.Resilience.Attempts) != 1 || !strings.HasSuffix(st.Resilience.Attempts[0], ":ok") {
			t.Fatalf("alg %d: attempts %v", alg, st.Resilience.Attempts)
		}
	}
}

// TestChainTableDepth pins the chain table's shape: every Algorithm/rule
// combination runs the same full chain exactly three attempts deep, since
// every engine serves every fill rule. The serve layer's degraded mode
// budgets on this depth.
func TestChainTableDepth(t *testing.T) {
	chainsByAlgo := map[Algorithm][]string{
		AlgoOverlay:    {"overlay", "overlay-coarse", "vatti"},
		AlgoSlabs:      {"slabs", "overlay-coarse", "vatti"},
		AlgoScanbeam:   {"scanbeam", "overlay-coarse", "vatti"},
		AlgoSequential: {"vatti", "overlay", "overlay-coarse"},
	}
	for algo, names := range chainsByAlgo {
		for _, rule := range []FillRule{EvenOdd, NonZero, Positive, Negative} {
			chain := chainFor(Options{Algorithm: algo, Rule: rule})
			if len(chain) != 3 {
				t.Errorf("algo %d rule %v: chain depth %d, want 3", algo, rule, len(chain))
			}
			for i, want := range names {
				if i >= len(chain) {
					break
				}
				if chain[i].name != want {
					t.Errorf("algo %d rule %v: attempt %d is %q, want %q", algo, rule, i, chain[i].name, want)
				}
			}
		}
	}
}

// TestChainTableDegraded pins the degraded-mode chains: only the
// coarse-grid and sequential steps, under every fill rule.
func TestChainTableDegraded(t *testing.T) {
	cases := []struct {
		algo  Algorithm
		rule  FillRule
		names []string
	}{
		{AlgoOverlay, EvenOdd, []string{"overlay-coarse", "vatti", "overlay-seq"}},
		{AlgoSlabs, EvenOdd, []string{"overlay-coarse", "vatti", "overlay-seq"}},
		{AlgoSequential, EvenOdd, []string{"vatti", "overlay-coarse"}},
		// Winding rules keep the full degraded chain: vatti hosts them now.
		{AlgoOverlay, NonZero, []string{"overlay-coarse", "vatti", "overlay-seq"}},
		{AlgoScanbeam, Positive, []string{"overlay-coarse", "vatti", "overlay-seq"}},
		{AlgoSlabs, Negative, []string{"overlay-coarse", "vatti", "overlay-seq"}},
	}
	for _, tc := range cases {
		chain := chainFor(Options{Algorithm: tc.algo, Rule: tc.rule, Degraded: true})
		var names []string
		for _, at := range chain {
			names = append(names, at.name)
		}
		if strings.Join(names, " ") != strings.Join(tc.names, " ") {
			t.Errorf("algo %d rule %v: degraded chain %v, want %v", tc.algo, tc.rule, names, tc.names)
		}
	}
}

// TestClipCtxRejectsUnsupportedOptions: a fill rule or Algorithm outside
// the declared constants names no engine, so ClipCtx rejects it with
// ErrUnsupported — with and without Degraded — before any engine runs,
// rather than serving it with a default strategy or reporting a panic.
func TestClipCtxRejectsUnsupportedOptions(t *testing.T) {
	a, b := rect(0, 0, 4, 4), rect(2, 2, 6, 6)
	cases := []struct {
		name string
		opt  Options
	}{
		{"rule", Options{Rule: FillRule(9)}},
		{"rule-degraded", Options{Rule: FillRule(9), Degraded: true}},
		{"algorithm", Options{Algorithm: Algorithm(9)}},
		{"algorithm-degraded", Options{Algorithm: Algorithm(9), Degraded: true}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, st, err := ClipCtx(context.Background(), a, b, Intersection, c.opt)
			if !errors.Is(err, ErrUnsupported) {
				t.Fatalf("err = %v, want ErrUnsupported", err)
			}
			if strings.Contains(err.Error(), "panic") {
				t.Errorf("error %q reads as a panic", err)
			}
			if out != nil || st == nil || len(st.Resilience.Attempts) != 0 {
				t.Errorf("out = %v, attempts = %q: no engine may run", out, attemptsOf(st))
			}
		})
	}
}

// TestClipCtxDegraded runs a real degraded clip: the result must be
// correct, and the accepted attempt must be one of the degraded steps so
// service metrics can prove degraded mode engaged.
func TestClipCtxDegraded(t *testing.T) {
	a := rect(0, 0, 4, 4)
	b := rect(2, 2, 6, 6)
	out, st, err := ClipCtx(context.Background(), a, b, Intersection, Options{Degraded: true})
	if err != nil {
		t.Fatalf("degraded clip: %v", err)
	}
	if got := out.Area(); math.Abs(got-4) > 1e-9 {
		t.Errorf("area = %v, want 4", got)
	}
	if len(st.Resilience.Attempts) == 0 {
		t.Fatal("no attempts recorded")
	}
	first := st.Resilience.Attempts[0]
	if !strings.HasPrefix(first, "overlay-coarse:") {
		t.Errorf("first degraded attempt = %q, want an overlay-coarse step", first)
	}
	if st.Engine == "" {
		t.Error("Stats.Engine not recorded for degraded clip")
	}
}

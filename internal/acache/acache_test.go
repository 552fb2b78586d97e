package acache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"polyclip/internal/engine"
	"polyclip/internal/geom"
)

func square(x, y, s float64) geom.Polygon {
	return geom.Polygon{{
		{X: x, Y: y}, {X: x + s, Y: y}, {X: x + s, Y: y + s}, {X: x, Y: y + s},
	}}
}

func TestNilCacheBypasses(t *testing.T) {
	var c *Cache
	a := square(0, 0, 2)
	n := 0
	for i := 0; i < 2; i++ {
		c.Prepared(geom.Hash(a), engine.EvenOdd, func() geom.Polygon { n++; return a })
	}
	if n != 2 {
		t.Fatalf("nil cache memoized: %d computes, want 2", n)
	}
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("nil cache stats non-zero: %+v", s)
	}
	if New(0) != nil {
		t.Fatal("New(0) should return the nil bypass cache")
	}
}

func TestHitMissAndDeterministicValue(t *testing.T) {
	c := New(1 << 20)
	a, b := square(0, 0, 4), square(2, 2, 4)
	da, db := geom.Hash(a), geom.Hash(b)

	n := 0
	compute := func() geom.Polygon { n++; return square(2, 2, 2) }
	r1 := c.Prepared(da, engine.EvenOdd, compute)
	r2 := c.Prepared(da, engine.EvenOdd, compute)
	if n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	if fmt.Sprint(r1) != fmt.Sprint(r2) {
		t.Fatal("cached value differs from computed value")
	}
	// A different digest or rule must not alias.
	c.Prepared(db, engine.EvenOdd, compute)
	c.Prepared(da, engine.NonZero, compute)
	c.Prepared(da, engine.Positive, compute)
	if n != 4 {
		t.Fatalf("key dimensions alias: %d computes, want 4", n)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 4 {
		t.Fatalf("stats hits=%d misses=%d, want 1/4", s.Hits, s.Misses)
	}
	if got := s.HitRate(); got != 0.2 {
		t.Fatalf("hit rate %v, want 0.2", got)
	}
}

// Concurrent callers of one cold key: compute runs exactly once, everyone
// gets the value, waiters are counted. A waiter counts one wait and then
// its hit, so every caller but the leader is exactly one hit. Run with -race.
func TestSingleflightConcurrent(t *testing.T) {
	c := New(1 << 20)
	da := geom.Hash(square(0, 0, 4))

	var computes atomic.Int64
	gate := make(chan struct{})
	const N = 16
	var wg sync.WaitGroup
	results := make([]geom.Polygon, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			results[i] = c.Prepared(da, engine.EvenOdd, func() geom.Polygon {
				computes.Add(1)
				return square(1, 1, 3)
			})
		}(i)
	}
	close(gate)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times under contention, want 1", got)
	}
	want := fmt.Sprint(results[0])
	for i, r := range results {
		if fmt.Sprint(r) != want {
			t.Fatalf("caller %d saw a different value", i)
		}
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != N-1 || s.Waits > N-1 {
		t.Fatalf("stats %+v: want 1 miss, %d hits and at most as many waits", s, N-1)
	}
}

func TestEvictionBound(t *testing.T) {
	const max = 8 << 10
	c := New(max)
	// Each entry ~24+24+4*16 = 112 bytes; insert far more than fits.
	for i := 0; i < 1000; i++ {
		p := square(float64(i), 0, 1)
		c.Prepared(geom.Hash(p), engine.EvenOdd, func() geom.Polygon { return p })
	}
	s := c.Stats()
	if s.Bytes > max {
		t.Fatalf("cache holds %d bytes, bound is %d", s.Bytes, max)
	}
	if s.Evictions == 0 {
		t.Fatal("no evictions despite overflow")
	}
	if s.Entries == 0 {
		t.Fatal("cache emptied itself")
	}
	// LRU: the most recent key must still be resident.
	p := square(999, 0, 1)
	before := c.Stats().Hits
	c.Prepared(geom.Hash(p), engine.EvenOdd,
		func() geom.Polygon { t.Fatal("most-recent entry was evicted"); return nil })
	if c.Stats().Hits != before+1 {
		t.Fatal("expected a hit on the most recent key")
	}
}

func TestOversizedValueBypasses(t *testing.T) {
	c := New(4 << 10)           // max/4 = 1 KiB
	big := make(geom.Ring, 200) // ~3.2 KiB
	for i := range big {
		big[i] = geom.Point{X: float64(i), Y: float64(i % 7)}
	}
	p := geom.Polygon{big}
	n := 0
	for i := 0; i < 2; i++ {
		c.Prepared(geom.Hash(p), engine.EvenOdd, func() geom.Polygon { n++; return p })
	}
	if n != 2 {
		t.Fatalf("oversized value was cached (%d computes)", n)
	}
	s := c.Stats()
	if s.Bypasses == 0 {
		t.Fatal("bypass not counted")
	}
	if s.Bytes != 0 || s.Entries != 0 {
		t.Fatalf("oversized value retained: %+v", s)
	}
}

// A panicking compute must not wedge the key: the placeholder is withdrawn,
// the panic propagates, and the next caller computes fresh.
func TestPanicWithdrawsPlaceholder(t *testing.T) {
	c := New(1 << 20)
	p := square(0, 0, 1)
	da := geom.Hash(p)

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		c.Prepared(da, engine.EvenOdd, func() geom.Polygon { panic("boom") })
	}()

	n := 0
	c.Prepared(da, engine.EvenOdd, func() geom.Polygon { n++; return p })
	if n != 1 {
		t.Fatal("key wedged after panic")
	}
	// And a waiter blocked on the panicking leader must recover too.
	var wg sync.WaitGroup
	q := square(5, 5, 1)
	dq := geom.Hash(q)
	started := make(chan struct{})
	release := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { recover() }()
		c.Prepared(dq, engine.EvenOdd,
			func() geom.Polygon { close(started); <-release; panic("boom") })
	}()
	<-started
	done := make(chan geom.Polygon, 1)
	go func() {
		done <- c.Prepared(dq, engine.EvenOdd, func() geom.Polygon { return q })
	}()
	close(release)
	if got := <-done; fmt.Sprint(got) != fmt.Sprint(q) {
		t.Fatal("waiter did not recover after leader panic")
	}
	wg.Wait()
}

func TestStatsDelta(t *testing.T) {
	a := Stats{Hits: 10, Misses: 4, Waits: 2, Bypasses: 1, Evictions: 3, Entries: 7, Bytes: 100, MaxBytes: 1000}
	b := Stats{Hits: 4, Misses: 1, Waits: 1, Bypasses: 0, Evictions: 1}
	d := a.Delta(b)
	if d.Hits != 6 || d.Misses != 3 || d.Waits != 1 || d.Bypasses != 1 || d.Evictions != 2 {
		t.Fatalf("delta %+v", d)
	}
	if d.Entries != 7 || d.Bytes != 100 || d.MaxBytes != 1000 {
		t.Fatal("delta must keep point-in-time gauges")
	}
}

func TestSharedSingleton(t *testing.T) {
	if Shared() == nil || Shared() != Shared() {
		t.Fatal("Shared must return one non-nil cache")
	}
	if Shared().Stats().MaxBytes != 256<<20 {
		t.Fatalf("shared cache bound %d, want 256 MiB", Shared().Stats().MaxBytes)
	}
}

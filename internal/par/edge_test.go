package par

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
)

// Edge-of-domain tests for every primitive the pipeline fans out through:
// empty input, single item, non-positive parallelism (→ DefaultParallelism),
// and more workers than items. These run under -race in scripts/check.sh,
// so they also prove the chunking never double-visits or drops an index.

var edgeDims = []struct{ n, p int }{
	{0, 1}, {0, 0}, {0, -3},
	{1, 1}, {1, 0}, {1, -1}, {1, 8},
	{3, 64}, {5, 5},
}

func TestForEachEdges(t *testing.T) {
	for _, d := range edgeDims {
		var visited int64
		ForEach(d.n, d.p, func(lo, hi int) {
			if lo < 0 || hi > d.n || lo >= hi {
				t.Errorf("n=%d p=%d: bad chunk [%d,%d)", d.n, d.p, lo, hi)
			}
			atomic.AddInt64(&visited, int64(hi-lo))
		})
		if visited != int64(d.n) {
			t.Errorf("n=%d p=%d: visited %d items", d.n, d.p, visited)
		}
	}
}

func TestForEachItemEdges(t *testing.T) {
	for _, d := range edgeDims {
		marks := make([]int32, d.n)
		ForEachItem(d.n, d.p, func(i int) { atomic.AddInt32(&marks[i], 1) })
		for i, m := range marks {
			if m != 1 {
				t.Errorf("n=%d p=%d: index %d visited %d times", d.n, d.p, i, m)
			}
		}
	}
}

func TestSortEdges(t *testing.T) {
	less := func(a, b int) bool { return a < b }
	for _, d := range edgeDims {
		xs := make([]int, d.n)
		for i := range xs {
			xs[i] = d.n - i
		}
		Sort(xs, less, d.p)
		if !slices.IsSorted(xs) {
			t.Errorf("n=%d p=%d: not sorted: %v", d.n, d.p, xs)
		}
	}
}

// ---------------------------------------------------------------------------
// Metamorphic equivalence: every ForEach* variant must compute exactly what
// the plain sequential loop computes — same cells written, each exactly
// once, regardless of parallelism degree, grain, or which goroutine ran
// the chunk. The grid deliberately includes n=0, n=1, p<=0 (defaulted),
// p>n, and grain>n, and the whole file runs under -race in scripts/check.sh,
// so a chunking or fork bug shows up as a torn cell, a wrong value, or
// a detector report.

// metamorphicDims extends edgeDims with sizes big enough to fan out across
// several forked goroutines and survive multi-level chunk splits.
var metamorphicDims = []struct{ n, p int }{
	{0, 1}, {0, 0}, {0, -3},
	{1, 1}, {1, 0}, {1, -1}, {1, 8},
	{3, 64}, {5, 5}, {17, 4}, {100, 3}, {1000, 8}, {1000, 16},
}

// cellOf is the deterministic per-index function all variants compute; any
// dropped, duplicated, or cross-wired index changes the output vector.
func cellOf(i int) int64 { return int64(i)*2654435761 + 97 }

// sequentialCells is the reference implementation: the plain loop.
func sequentialCells(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = cellOf(i)
	}
	return out
}

// runVariant fills an n-cell vector through one ForEach* variant. Cells are
// written with atomic.AddInt64 so a double visit shows up as a doubled
// value rather than a benign overwrite.
func runVariant(t *testing.T, name string, n int, fill func(out []int64)) {
	t.Helper()
	out := make([]int64, n)
	fill(out)
	if want := sequentialCells(n); !reflect.DeepEqual(out, want) {
		t.Errorf("%s: n=%d diverged from sequential loop", name, n)
	}
}

func TestMetamorphicForEach(t *testing.T) {
	for _, d := range metamorphicDims {
		runVariant(t, "ForEach", d.n, func(out []int64) {
			ForEach(d.n, d.p, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt64(&out[i], cellOf(i))
				}
			})
		})
	}
}

func TestMetamorphicForEachCtx(t *testing.T) {
	for _, d := range metamorphicDims {
		runVariant(t, "ForEachCtx", d.n, func(out []int64) {
			err := ForEachCtx(context.Background(), d.n, d.p, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt64(&out[i], cellOf(i))
				}
			})
			if err != nil {
				t.Errorf("ForEachCtx n=%d p=%d: %v", d.n, d.p, err)
			}
		})
	}
}

func TestMetamorphicForEachGrain(t *testing.T) {
	for _, d := range metamorphicDims {
		for _, grain := range []int{0, 1, 7, d.n + 1, 4 * d.n} {
			runVariant(t, "ForEachGrain", d.n, func(out []int64) {
				ForEachGrain(d.n, d.p, grain, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt64(&out[i], cellOf(i))
					}
				})
			})
		}
	}
}

func TestMetamorphicForEachItem(t *testing.T) {
	for _, d := range metamorphicDims {
		runVariant(t, "ForEachItem", d.n, func(out []int64) {
			ForEachItem(d.n, d.p, func(i int) { atomic.AddInt64(&out[i], cellOf(i)) })
		})
	}
}

func TestMetamorphicForEachItemGrain(t *testing.T) {
	for _, d := range metamorphicDims {
		for _, grain := range []int{0, 1, 7, d.n + 1, 4 * d.n} {
			runVariant(t, "ForEachItemGrain", d.n, func(out []int64) {
				ForEachItemGrain(d.n, d.p, grain, func(i int) { atomic.AddInt64(&out[i], cellOf(i)) })
			})
		}
	}
}

// TestForEachCtxCancelSemantics pins the cancellation contract: a done
// context is always reported as a *StallError for n > 0 (the fork may have
// skipped unstarted chunks, so a nil return must guarantee full coverage),
// and n <= 0 degenerates to ctx.Err().
func TestForEachCtxCancelSemantics(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := ForEachCtx(ctx, 100, 4, func(lo, hi int) { ran.Add(int64(hi - lo)) })
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("pre-cancelled ctx: err = %v, want *StallError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("StallError does not unwrap to context.Canceled: %v", err)
	}
	if ran.Load() != 0 {
		t.Errorf("%d items ran under a pre-cancelled context", ran.Load())
	}
	if err := ForEachCtx(ctx, 0, 4, func(lo, hi int) {}); !errors.Is(err, context.Canceled) {
		t.Errorf("n=0 cancelled: err = %v, want ctx.Err()", err)
	}
	if err := ForEachCtx(context.Background(), 0, 4, func(lo, hi int) {}); err != nil {
		t.Errorf("n=0 live ctx: err = %v, want nil", err)
	}
	// Cancelling mid-flight surfaces as a StallError too, and never hangs.
	ctx2, cancel2 := context.WithCancel(context.Background())
	err = ForEachCtx(ctx2, 256, 8, func(lo, hi int) {
		if lo == 0 {
			cancel2()
		}
	})
	cancel2()
	if !errors.As(err, &stall) {
		t.Errorf("mid-flight cancel: err = %v, want *StallError", err)
	}
}

// Package par provides the parallel primitives the pipeline builds on:
// parallel-for over index ranges, the exclusive prefix sum used for slot
// allocation, parallel mergesort, and — the paper's key tool (Lemma 4,
// Table I) — inversion counting and reporting via an extended mergesort,
// which is how pairs of intersecting segments are detected inside a
// scanbeam. The PRAM versions of the scan, sort and inversion count, with
// their round and work accounting, are modelled in internal/pram.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"

	"polyclip/internal/guard"
	"polyclip/internal/pool"
)

// PanicError wraps a panic recovered in a parallel worker goroutine,
// carrying the original panic value and the worker's stack trace. ForEach
// re-raises it on the *calling* goroutine, so a panic in one worker cannot
// kill the process from an unrecoverable goroutine: a recover anywhere up
// the caller's stack (in particular the hardened public API, which converts
// it to a *guard.ClipError) contains the failure.
type PanicError struct {
	Value any    // the original panic value
	Stack []byte // stack of the panicking worker goroutine
}

// Error formats the wrapped panic.
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic in parallel worker: %v", e.Value)
}

// Unwrap exposes an error panic value to errors.Is/As.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// StallError reports that a parallel stage was abandoned by its watchdog:
// the stage context expired (deadline or cancellation) before every worker
// finished. The workers themselves cannot be killed — they are left running
// and their outputs discarded — so after a StallError the caller MUST NOT
// reuse any buffer the abandoned workers write to; retry with freshly
// allocated buffers instead.
type StallError struct {
	Err error // the context error that fired the watchdog
}

// Error formats the stall.
func (e *StallError) Error() string {
	return fmt.Sprintf("parallel stage abandoned by watchdog: %v", e.Err)
}

// Unwrap exposes the context error to errors.Is (context.DeadlineExceeded /
// context.Canceled).
func (e *StallError) Unwrap() error { return e.Err }

// DefaultParallelism returns the degree of parallelism used when a caller
// passes p <= 0: the number of usable CPUs.
func DefaultParallelism() int { return runtime.GOMAXPROCS(0) }

// normalize clamps a requested parallelism degree.
func normalize(p int) int {
	if p <= 0 {
		p = DefaultParallelism()
	}
	return p
}

// ForEach splits [0, n) into at most p contiguous chunks and runs fn on each
// chunk concurrently through one pool.Fork: the calling goroutine runs the
// first chunk and every other chunk gets a goroutine of its own. fn
// receives the half-open range [lo, hi). ForEach returns when all chunks
// are done. With p == 1 (or n small) it degenerates to a direct call and
// starts no goroutine.
//
// A panic in a worker does not crash the process: the fork captures the
// first one and ForEach re-raises it on the calling goroutine as a
// *PanicError after all chunks finish, where callers (or the hardened
// public API) can recover it.
func ForEach(n, p int, fn func(lo, hi int)) {
	forEachChunked(nil, n, p, fn)
}

// forEachChunked is the shared chunking front of ForEach/ForEachCtx. A
// non-nil ctx makes chunks that have not started when ctx is done be
// skipped by the fork (running chunks poll ctx themselves, per the
// pipeline convention), so an abandoned stage stops starting work.
func forEachChunked(ctx context.Context, n, p int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	p = normalize(p)
	if p > n {
		p = n
	}
	if p == 1 {
		guard.Hit("par.worker")
		fn(0, n)
		return
	}
	chunk := (n + p - 1) / p
	nchunks := (n + chunk - 1) / chunk
	raise(pool.Fork(ctx, nchunks, func(ci int) {
		lo := ci * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		guard.Hit("par.worker")
		fn(lo, hi)
	}))
}

// raise re-raises a fork-captured panic as a *PanicError on the calling
// goroutine, passing an already-wrapped nested PanicError through unchanged
// so the deepest capture keeps its original stack.
func raise(pe *pool.Panic) {
	if pe == nil {
		return
	}
	if w, ok := pe.Value.(*PanicError); ok {
		panic(w)
	}
	panic(&PanicError{Value: pe.Value, Stack: pe.Stack})
}

// Run executes fn on its own goroutine and waits for it to finish or for ctx
// to be done, whichever comes first — the watchdog building block for
// deadline-bounded pipeline stages. When ctx fires first a *StallError is
// returned and fn is abandoned: it keeps running to completion on its
// goroutine, so the caller must discard (never reuse) anything it writes to.
// A panic inside fn is re-raised on the calling goroutine as a *PanicError,
// exactly like ForEach; a panic in an abandoned fn is swallowed with the
// rest of its work.
func Run(ctx context.Context, fn func()) error {
	if err := ctx.Err(); err != nil {
		return &StallError{Err: err}
	}
	done := make(chan *PanicError, 1)
	go func() {
		var pe *PanicError
		defer func() {
			if r := recover(); r != nil {
				w, ok := r.(*PanicError)
				if !ok {
					w = &PanicError{Value: r, Stack: debug.Stack()}
				}
				pe = w
			}
			done <- pe
		}()
		fn()
	}()
	select {
	case pe := <-done:
		if pe != nil {
			panic(pe)
		}
		return nil
	case <-ctx.Done():
		return &StallError{Err: ctx.Err()}
	}
}

// ForEachCtx is ForEach under a watchdog: the chunked workers run as in
// ForEach, but if ctx is done before they all finish — a worker wedged on
// pathological input, a hung syscall, an injected hang fault — a *StallError
// is returned instead of blocking forever. Abandoned workers keep running;
// see Run for the buffer-reuse contract. Unlike ForEach, even p == 1 runs on
// a separate goroutine so a sequential retry remains abandonable.
//
// The chunked loop additionally passes ctx into the fork, so chunks that
// have not started when ctx fires are skipped instead of executed — an
// abandoned stage stops promptly instead of spending CPU on doomed work.
// Because skipping can complete the fork with only part of the range
// visited, a done ctx is always reported as a *StallError even when the
// fork itself finished, keeping the contract that a nil return means every
// index ran.
func ForEachCtx(ctx context.Context, n, p int, fn func(lo, hi int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	if err := Run(ctx, func() { forEachChunked(ctx, n, p, fn) }); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return &StallError{Err: err}
	}
	return nil
}

// join2 runs left and right as a two-task pool.Fork — the binary fork-join
// node of the parallel mergesort: left runs on the caller's goroutine and
// right on a fresh one, and a panic in either side is re-raised here as a
// *PanicError.
func join2(left, right func()) {
	raise(pool.Join2(left, right))
}

// ForEachGrain is ForEach with a minimum chunk size: no worker receives
// fewer than grain items, so loops whose per-item work is tiny (a flag
// write, a binary search) don't pay a goroutine spawn per handful of items.
// Use ForEach (grain 1) for loops with few heavy items — e.g. per-slab
// clipping, where n is small and each item is a full pipeline stage —
// which a coarse grain would serialize.
func ForEachGrain(n, p, grain int, fn func(lo, hi int)) {
	p = normalize(p)
	if grain > 1 && n > 0 {
		if maxP := (n + grain - 1) / grain; p > maxP {
			p = maxP
		}
	}
	ForEach(n, p, fn)
}

// ForEachItem runs fn(i) for every i in [0, n) with parallelism p, chunked
// to amortize scheduling overhead.
func ForEachItem(n, p int, fn func(i int)) {
	ForEach(n, p, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// ForEachItemGrain is ForEachItem with ForEachGrain's minimum chunk size.
func ForEachItemGrain(n, p, grain int, fn func(i int)) {
	ForEachGrain(n, p, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// ExclusivePrefixSum rewrites xs so xs[i] holds the sum of the original
// xs[0:i], returning the grand total. This is the "scan" used for
// output-sensitive processor/slot allocation throughout the repository:
// after scanning the per-bucket counts, bucket i writes its results at
// offset xs[i].
func ExclusivePrefixSum(xs []int) int {
	sum := 0
	for i, v := range xs {
		xs[i] = sum
		sum += v
	}
	return sum
}

// Package pool is the fork-join underneath every parallel primitive of
// internal/par. Fork runs task 0 on the caller's goroutine and each other
// task on a fresh goroutine, then waits for all of them, so nested forks
// cannot deadlock at any GOMAXPROCS. No scheduler persists between calls:
// par forks at most p flat chunks per loop (par.Sort's joins nest about
// log2(2p) deep), and Go's runtime already balances that many goroutines
// across processors.
//
// A task that has not started when the fork's context is done is skipped
// and counted; running tasks poll the context themselves. A panicking task
// never kills the process: the first panic of a fork is captured with its
// stack and returned to the forker after every task has finished, and
// internal/par re-raises it as a *par.PanicError.
package pool

import (
	"context"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Panic is the first panic captured inside a fork: the recovered value and
// the stack of the panicking task's goroutine.
type Panic struct {
	Value any
	Stack []byte
}

// Stats is a snapshot of the lifetime task counters of every Fork.
type Stats struct {
	Submitted int64 // tasks forked
	Executed  int64 // tasks whose function ran to completion or panic
	// Stolen is always 0: no task waits in a queue that another goroutine
	// could claim. benchmark/clip.go still reads it for pool.steal_ratio.
	Stolen  int64
	Skipped int64 // tasks skipped because their context was done
	Panics  int64 // panics captured in tasks
}

// Counters holds the process-wide task counts that Stats snapshots.
type Counters struct {
	submitted, executed, skipped, panics atomic.Int64
}

var counters Counters

// Default returns the process-wide counters of every Fork.
func Default() *Counters { return &counters }

// Stats snapshots the counters.
func (c *Counters) Stats() Stats {
	return Stats{
		Submitted: c.submitted.Load(),
		Executed:  c.executed.Load(),
		Skipped:   c.skipped.Load(),
		Panics:    c.panics.Load(),
	}
}

// Fork runs fn(0..n-1) and waits for all of them: task 0 on the caller's
// goroutine, tasks 1..n-1 on one fresh goroutine each. It returns the first
// panic captured in any task, or nil. A non-nil ctx makes tasks that have
// not started when ctx is done be skipped (counted, never run).
func Fork(ctx context.Context, n int, fn func(i int)) *Panic {
	if n <= 0 {
		return nil
	}
	counters.submitted.Add(int64(n))
	var first atomic.Pointer[Panic]
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for i := 1; i < n; i++ {
		go func() {
			defer wg.Done()
			run(ctx, i, fn, &first)
		}()
	}
	run(ctx, 0, fn, &first)
	wg.Wait()
	return first.Load()
}

// run executes task i with the cancellation skip, and records a panic in
// first unless an earlier task already did.
func run(ctx context.Context, i int, fn func(i int), first *atomic.Pointer[Panic]) {
	defer func() {
		if r := recover(); r != nil {
			counters.panics.Add(1)
			first.CompareAndSwap(nil, &Panic{Value: r, Stack: debug.Stack()})
		}
	}()
	if ctx != nil && ctx.Err() != nil {
		counters.skipped.Add(1)
		return
	}
	counters.executed.Add(1)
	fn(i)
}

// Join2 runs left and right as a two-task Fork — the binary fork-join used
// by the parallel mergesort — and returns the first captured panic.
func Join2(left, right func()) *Panic {
	return Fork(nil, 2, func(i int) {
		if i == 0 {
			left()
		} else {
			right()
		}
	})
}

package pool

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The fork's test battery. Fork/join code "works" until the race detector
// and adversarial schedules say otherwise, so these tests are written to
// run under -race at GOMAXPROCS 1, 2 and 4 (scripts/check.sh and make race
// run them with -cpu 1,2,4) and to fail by deadlock timeout rather than
// hang CI.

// waitDone runs fn on its own goroutine and fails the test if it does not
// return within d — the deadlock oracle for the reentrancy tests.
func waitDone(t *testing.T, d time.Duration, name string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s: deadlock (no completion within %v)", name, d)
	}
}

func TestForkCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 17, 256} {
		marks := make([]int32, n)
		if pan := Fork(nil, n, func(i int) { atomic.AddInt32(&marks[i], 1) }); pan != nil {
			t.Fatalf("n=%d: unexpected panic %v", n, pan.Value)
		}
		for i, m := range marks {
			if m != 1 {
				t.Errorf("n=%d: index %d ran %d times", n, i, m)
			}
		}
	}
}

// TestNestedForkSingleWorker is the reentrancy contract: a task forks
// subtasks and waits for them, three levels deep. A fork whose waiters
// hold the only processor without letting the subtasks run deadlocks at
// -cpu 1; the test fails by timeout instead of hanging.
func TestNestedForkSingleWorker(t *testing.T) {
	waitDone(t, 20*time.Second, "nested fork", func() {
		var total atomic.Int64
		pan := Fork(nil, 2, func(i int) {
			Fork(nil, 3, func(j int) {
				Fork(nil, 2, func(k int) { total.Add(1) })
			})
		})
		if pan != nil {
			t.Errorf("panic: %v", pan.Value)
		}
		if total.Load() != 2*3*2 {
			t.Errorf("ran %d leaf tasks, want 12", total.Load())
		}
	})
}

// TestDeepNestingSingleWorker drives recursive fork-join well past the
// processor count: depth-10 binary recursion must complete at -cpu 1.
func TestDeepNestingSingleWorker(t *testing.T) {
	waitDone(t, 20*time.Second, "deep nesting", func() {
		var leaves atomic.Int64
		var rec func(depth int)
		rec = func(depth int) {
			if depth == 0 {
				leaves.Add(1)
				return
			}
			Fork(nil, 2, func(i int) { rec(depth - 1) })
		}
		rec(10)
		if leaves.Load() != 1024 {
			t.Errorf("leaves = %d, want 1024", leaves.Load())
		}
	})
}

// TestExternalWaitersShareOneWorker models the serving layer: many request
// goroutines forking nested work concurrently. Every fork must complete
// and run each of its tasks once, even when all of them share one
// processor.
func TestExternalWaitersShareOneWorker(t *testing.T) {
	waitDone(t, 30*time.Second, "concurrent external forks", func() {
		var wg sync.WaitGroup
		var total atomic.Int64
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for iter := 0; iter < 20; iter++ {
					Fork(nil, 4, func(i int) {
						Fork(nil, 2, func(j int) { total.Add(1) })
					})
				}
			}()
		}
		wg.Wait()
		if want := int64(8 * 20 * 4 * 2); total.Load() != want {
			t.Errorf("ran %d leaf tasks, want %d", total.Load(), want)
		}
	})
}

// TestRaceStress hammers fork/cancel/panic from many goroutines at once;
// its assertions are weak on purpose — under -race the detector is the
// real oracle.
func TestRaceStress(t *testing.T) {
	before := Default().Stats().Panics
	waitDone(t, 60*time.Second, "race stress", func() {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for iter := 0; iter < 30; iter++ {
					switch (g + iter) % 3 {
					case 0: // plain nested work
						var sum atomic.Int64
						Fork(nil, 8, func(i int) {
							Fork(nil, 2, func(j int) { sum.Add(int64(i + j)) })
						})
					case 1: // cancellation racing execution
						ctx, cancel := context.WithCancel(context.Background())
						Fork(ctx, 16, func(i int) {
							if i == 3 {
								cancel()
							}
						})
						cancel()
					case 2: // panics racing everything else
						pan := Fork(nil, 4, func(i int) {
							if i == 2 {
								panic(fmt.Sprintf("stress %d/%d", g, iter))
							}
						})
						if pan == nil {
							panic("panic was lost")
						}
					}
				}
			}(g)
		}
		wg.Wait()
	})
	if Default().Stats().Panics == before {
		t.Error("no panics captured by the stress run")
	}
}

func TestPanicCaptureAndWorkerSurvival(t *testing.T) {
	pan := Fork(nil, 4, func(i int) {
		if i == 1 {
			panic("boom")
		}
	})
	if pan == nil || pan.Value != "boom" {
		t.Fatalf("pan = %+v, want captured \"boom\"", pan)
	}
	if len(pan.Stack) == 0 {
		t.Error("no stack captured")
	}
	// The panic stayed inside its fork: the next fork runs every task.
	var ran atomic.Int64
	if pan := Fork(nil, 8, func(i int) { ran.Add(1) }); pan != nil {
		t.Fatalf("fork unusable after panic: %v", pan.Value)
	}
	if ran.Load() != 8 {
		t.Errorf("post-panic batch ran %d/8 tasks", ran.Load())
	}
}

func TestCancelledContextSkipsTasks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	before := Default().Stats().Skipped
	if pan := Fork(ctx, 16, func(i int) { ran.Add(1) }); pan != nil {
		t.Fatalf("panic: %v", pan.Value)
	}
	if ran.Load() != 0 {
		t.Errorf("%d tasks ran under a pre-cancelled context", ran.Load())
	}
	if got := Default().Stats().Skipped - before; got != 16 {
		t.Errorf("skipped %d tasks, want 16", got)
	}
	// A single task, run on the caller's goroutine, honours the same contract.
	if pan := Fork(ctx, 1, func(i int) { ran.Add(1) }); pan != nil || ran.Load() != 0 {
		t.Errorf("inline task ran under a cancelled context (pan=%v)", pan)
	}
}

func TestCancelMidBatchStillCompletes(t *testing.T) {
	waitDone(t, 20*time.Second, "cancel mid-batch", func() {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		Fork(ctx, 64, func(i int) {
			if i == 0 {
				cancel()
			}
		})
	})
}

// TestQuiesceNoGoroutineLeak is the leak check: once the forks have
// returned, every goroutine they started has exited and the process
// goroutine count returns to its baseline.
func TestQuiesceNoGoroutineLeak(t *testing.T) {
	runtime.GC()
	baseline := runtime.NumGoroutine()
	for round := 0; round < 10; round++ {
		Fork(nil, 32, func(i int) {})
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestStatsCounters(t *testing.T) {
	before := Default().Stats()
	Fork(nil, 8, func(i int) {})
	Fork(nil, 1, func(i int) {})
	st := Default().Stats()
	if got := st.Submitted - before.Submitted; got != 9 {
		t.Errorf("Submitted delta = %d, want 9", got)
	}
	if got := st.Executed - before.Executed; got != 9 {
		t.Errorf("Executed delta = %d, want 9", got)
	}
}

func TestForkZeroAndNegative(t *testing.T) {
	if pan := Fork(nil, 0, func(i int) { t.Error("ran") }); pan != nil {
		t.Errorf("n=0: %v", pan.Value)
	}
	if pan := Fork(nil, -3, func(i int) { t.Error("ran") }); pan != nil {
		t.Errorf("n=-3: %v", pan.Value)
	}
}

func TestDefaultPoolAndJoin2(t *testing.T) {
	var l, r atomic.Bool
	if pan := Join2(func() { l.Store(true) }, func() { r.Store(true) }); pan != nil {
		t.Fatalf("Join2 panic: %v", pan.Value)
	}
	if !l.Load() || !r.Load() {
		t.Error("Join2 did not run both sides")
	}
	var ran atomic.Int64
	if pan := Fork(nil, 4, func(i int) { ran.Add(1) }); pan != nil || ran.Load() != 4 {
		t.Errorf("default Fork ran %d/4 (pan=%v)", ran.Load(), pan)
	}
}

package serve

import (
	"fmt"
	"sync/atomic"
	"time"

	"polyclip"
	"polyclip/internal/guard"
)

// faultCyclePlans is the deterministic fault schedule FaultCycle arms:
// panics at every serve-path site, panics and a hang in the engine
// underneath, and a result corruption to exercise the audit. The chaos
// smoke test and the clipd -chaos benchmark mode share this table.
var faultCyclePlans = []struct {
	site string
	kind string // "panic" | "hang" | "corrupt"
}{
	{"serve.enqueue", "panic"},
	{"serve.clip", "panic"},
	{"serve.encode", "panic"},
	{"overlay.clip", "panic"},
	{"par.worker", "panic"},
	{"par.worker", "hang"},
	{"polyclip.result", "corrupt"},
}

// armCycleFault registers cycle i's one-shot fault from faultCyclePlans.
func armCycleFault(i int) {
	plan := faultCyclePlans[i%len(faultCyclePlans)]
	switch plan.kind {
	case "panic":
		guard.InjectFault(plan.site, guard.Once(func() {
			panic(fmt.Sprintf("chaos: injected panic at %s (cycle %d)", plan.site, i))
		}))
	case "hang":
		guard.InjectFault(plan.site, guard.Once(func() { time.Sleep(250 * time.Millisecond) }))
	case "corrupt":
		var fired atomic.Bool
		guard.InjectFault(plan.site, func(p polyclip.Polygon) polyclip.Polygon {
			if !fired.CompareAndSwap(false, true) {
				return p
			}
			return polyclip.Polygon{{{X: 1e6, Y: 1e6}, {X: 2e6, Y: 1e6}, {X: 2e6, Y: 2e6}, {X: 1e6, Y: 2e6}}}
		})
	}
}

// FaultCycle starts arming a fresh one-shot fault every interval, cycling
// deterministically through the serve and engine guard sites. It exists for
// chaos testing and the clipd -chaos benchmark mode — never enable it in a
// real deployment. The returned stop function halts the cycle and clears
// any armed fault.
func FaultCycle(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	done := make(chan struct{})
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			case <-tick.C:
				armCycleFault(i)
			}
		}
	}()
	return func() {
		close(done)
		guard.ClearFaults()
	}
}

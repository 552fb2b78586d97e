package polyclip

import (
	"context"
	"testing"
)

// TestDeterminismAcrossThreadCounts pins the scheduler-independence
// contract every parallel stage must preserve: for a fixed slab
// decomposition, the clip output is a pure function of the input — the same
// rings, the same vertices, in the same order — no matter how many workers
// ran the slabs or in which order their goroutines finished. Every
// parallel stage writes into index-addressed slots and every merge walks
// slab order, so nothing downstream of the scheduler may observe
// completion order; a result that varies with Threads means a stage leaked
// scheduling order into its output.
//
// Slabs is pinned (not left to the adaptive default) because the adaptive
// count is itself derived from Threads: the decomposition is allowed to
// change with the thread count, but for any one decomposition the geometry
// must not. Comparison is bit-identical via the WKT serialization —
// float-exact, not area-tolerance.
func TestDeterminismAcrossThreadCounts(t *testing.T) {
	engines := []struct {
		name string
		base Options
	}{
		{"slabs", Options{Algorithm: AlgoSlabs, Slabs: 6, NoFallback: true}},
		{"scanbeam", Options{Algorithm: AlgoScanbeam, NoFallback: true}},
	}
	threadCounts := []int{1, 2, 8}
	for _, c := range corpusGeometries() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			subj, err := ParseWKT(c.Subject)
			if err != nil {
				t.Fatalf("subject WKT: %v", err)
			}
			clip, err := ParseWKT(c.Clip)
			if err != nil {
				t.Fatalf("clip WKT: %v", err)
			}
			for _, eng := range engines {
				for _, dop := range diffOps {
					var ref string
					for _, threads := range threadCounts {
						opt := eng.base
						opt.Threads = threads
						out, _, err := ClipCtx(context.Background(), subj, clip, dop.op, opt)
						if err != nil {
							t.Errorf("%s %s threads=%d: %v", eng.name, dop.name, threads, err)
							continue
						}
						got := FormatWKT(out)
						if threads == threadCounts[0] {
							ref = got
							continue
						}
						if got != ref {
							t.Errorf("%s %s: threads=%d output differs from threads=%d:\n  %s\nvs\n  %s",
								eng.name, dop.name, threads, threadCounts[0], got, ref)
						}
					}
				}
			}
		})
	}
}

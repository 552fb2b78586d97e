package overlay

import (
	"fmt"
	"testing"

	"polyclip/internal/data"
	"polyclip/internal/engine"
)

// BenchmarkClip intersects the paper's synthetic pair at 4096 edges each,
// sequentially and on four workers.
func BenchmarkClip(b *testing.B) {
	subject, clip := data.SyntheticPair(1, 4096, 4096)
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("parallelism=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				clipPoly(subject, clip, engine.Intersection, engine.Options{Threads: p})
			}
		})
	}
}

// TestClipAllocsFlat pins the arrangement's flat layout: a sequential clip
// of 16× more edges may make only a few more allocations (the growth steps
// of its buffers), not one per segment or per split point.
func TestClipAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		subject, clip := data.SyntheticPair(1, n, n)
		return testing.AllocsPerRun(5, func() {
			clipPoly(subject, clip, engine.Intersection, engine.Options{Threads: 1})
		})
	}
	small, large := allocs(64), allocs(1024)
	t.Logf("allocs: %v at 64 edges, %v at 1024", small, large)
	if large > small+48 {
		t.Errorf("allocs: %v at 1024 edges, more than %v at 64 plus 48", large, small)
	}
}

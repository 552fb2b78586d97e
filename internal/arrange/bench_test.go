package arrange

import (
	"fmt"
	"testing"

	"polyclip/internal/data"
	"polyclip/internal/geom"
)

// resolved keeps the benchmarked call's result live.
var resolved geom.Polygon

// BenchmarkResolvePair resolves self-intersecting star pairs, whose own
// edges cross thousands of times at n = 1601, an interleaved pair whose
// crossings are all between the operands, and the pentagram, whose five
// edges below the grid cutoff show resolve's fixed cost.
func BenchmarkResolvePair(b *testing.B) {
	type pair struct {
		name string
		a, b geom.Polygon
	}
	var pairs []pair
	for _, n := range []int{101, 401, 1601} {
		a, c := data.SelfIntersectingPair(3, n)
		pairs = append(pairs, pair{fmt.Sprintf("self-intersecting/n=%d", n), a, c})
	}
	a, c := data.InterleavedPair(1001, 512)
	pairs = append(pairs, pair{"interleaved/n=512", a, c}, pair{"pentagram", geom.Polygon{pentagram(0, 0, 10)}, nil})
	for _, p := range pairs {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				resolved, _ = ResolvePair(p.a, p.b)
			}
		})
	}
}

package arrange

import (
	"fmt"
	"testing"

	"polyclip/internal/data"
	"polyclip/internal/engine"
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

// BenchmarkEmptyResult tests resolved pairs for an empty union: the
// synthetic pair under Positive, which one shoelace pass settles, and under
// Negative, where every ring is split into loops and found empty, as are
// the interleaved and self-intersecting pairs of the clip-degenerate
// benchmark.
func BenchmarkEmptyResult(b *testing.B) {
	type pair struct {
		name string
		rule engine.FillRule
		a, b geom.Polygon
	}
	sa, sc := ResolvePair(data.SyntheticPair(1, 4096, 4096))
	ia, ic := ResolvePair(data.InterleavedPair(1001, 512))
	xa, xc := ResolvePair(data.SelfIntersectingPair(3, 401))
	for _, p := range []pair{
		{"synthetic-4096/positive", engine.Positive, sa, sc},
		{"synthetic-4096/negative", engine.Negative, sa, sc},
		{"interleaved-512/negative", engine.Negative, ia, ic},
		{"self-intersecting-401/negative", engine.Negative, xa, xc},
	} {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				EmptyResult(p.a, p.b, engine.Union, p.rule)
			}
		})
	}
}

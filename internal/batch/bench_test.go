package batch

import (
	"context"
	"testing"

	"polyclip/internal/data"
	"polyclip/internal/engine"
	"polyclip/internal/geom"
	"polyclip/internal/rtree"
)

// BenchmarkPairClip times the batch overlay's pair clip, one candidate pair
// per op: the MBR-join pairs of two 1,000-feature data.Features layers (the
// first layers of the overlay-unique benchmark workload at seed 1), each
// clipped by vatti the way Overlay clips a group's first pair.
func BenchmarkPairClip(b *testing.B) {
	la := data.Features(data.FeatureOptions{N: 1000, Seed: 100000})
	lb := data.Features(data.FeatureOptions{N: 1000, Seed: 100001})
	tr := rtree.Build(len(lb), func(j int32) geom.BBox { return lb[j].BBox() })
	var pairs [][2]int32
	tr.JoinVisit(len(la), func(i int32) geom.BBox { return la[i].BBox() },
		func(j int32) geom.BBox { return lb[j].BBox() },
		func(i, j int32) { pairs = append(pairs, [2]int32{i, j}) })
	eng := engine.MustGet("vatti")
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := pairs[i%len(pairs)]
		if _, _, ce := pairClip(ctx, eng, Options{}, la[pr[0]], lb[pr[1]], engine.Intersection, pr); ce != nil {
			b.Fatal(ce)
		}
	}
}

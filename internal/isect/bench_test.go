package isect

import (
	"testing"

	"polyclip/internal/data"
	"polyclip/internal/geom"
)

// BenchmarkCandidates streams the grid's candidate pairs sequentially
// (VisitCandidatePairs, the resolve pre-scan's visitor) over a clean
// synthetic pair, an interleaved pair and the star pair, whose long edges
// share many cells, and reports the candidates visited per op.
func BenchmarkCandidates(b *testing.B) {
	soup := func(a, c geom.Polygon) []geom.Segment { return append(a.Edges(), c.Edges()...) }
	for _, in := range []struct {
		name  string
		edges []geom.Segment
	}{
		{"synthetic/n=4096", soup(data.SyntheticPair(1, 4096, 4096))},
		{"interleaved/n=512", soup(data.InterleavedPair(1001, 512))},
		{"star/edges=1024", starPair(256)},
	} {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			visits := 0
			for i := 0; i < b.N; i++ {
				VisitCandidatePairs(in.edges, func(i, j int32) bool {
					visits++
					return true
				})
			}
			b.ReportMetric(float64(visits)/float64(b.N), "visits/op")
		})
	}
}

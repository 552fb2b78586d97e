package geojson

import (
	"bytes"
	"testing"

	"polyclip/internal/data"
	"polyclip/internal/geom"
)

// BenchmarkDecodeFeatures decodes the overlay workloads' input — a
// 1,000-feature data.Features layer with RepeatFrac 0.5, written by Marshal
// as newline-delimited GeoJSON — and the same layer as a FeatureCollection
// with a properties object per feature.
func BenchmarkDecodeFeatures(b *testing.B) {
	nd, fc := writeLayer(b, data.Features(data.FeatureOptions{N: 1000, RepeatFrac: 0.5, Seed: 1}))
	for _, bc := range []struct {
		name string
		doc  []byte
	}{{"ndjson", nd}, {"collection", fc}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(bc.doc)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n := 0
				if err := DecodeFeatures(bytes.NewReader(bc.doc), func(geom.Polygon) error {
					n++
					return nil
				}); err != nil || n != 1000 {
					b.Fatalf("%d features, %v", n, err)
				}
			}
		})
	}
}

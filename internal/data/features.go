package data

import (
	"math"
	"math/rand"

	"polyclip/internal/geom"
)

// FeatureOptions configures the million-feature batch-overlay workload:
// many small features over a shared extent, with a tunable fraction of
// exact repeats for the overlay's digest-pair groups to share.
type FeatureOptions struct {
	// N is the feature count (default 1000).
	N int
	// Dist is the MBR distribution: "uniform" spreads feature centers
	// evenly over the extent, "clustered" groups them around sqrt(N)
	// cluster centers (the real-map case), "mixed" (default) is half each.
	Dist string
	// RepeatFrac in [0, 1) is the fraction of features that are exact
	// copies of earlier features — the repeated-operand knob of the cache
	// benchmark (shared basemaps and common masks repeat verbatim). 0 means
	// every feature is distinct.
	RepeatFrac float64
	// Edges is the per-feature edge count (default 6; clamped to >= 3).
	Edges int
	// Seed seeds the generator; equal options always produce the equal
	// output, feature for feature.
	Seed int64
}

// Features synthesizes one feature set for the batch overlay benchmark.
// Feature size is chosen so that overlaying two such sets produces O(N)
// candidate pairs — features span roughly the extent's cell size at
// density N — keeping the workload output-sensitive at the layer level
// rather than all-pairs.
func Features(opt FeatureOptions) []geom.Polygon {
	n := opt.N
	if n <= 0 {
		n = 1000
	}
	edges := opt.Edges
	if edges <= 0 {
		edges = 6
	}
	if edges < 3 {
		edges = 3
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	// Extent scales with N so feature density — and with it the candidate
	// pair count per feature — is constant across sizes.
	side := math.Sqrt(float64(n))
	cell := 1.5 // spacing between neighboring feature centers

	nClusters := int(math.Sqrt(float64(n)))
	if nClusters < 1 {
		nClusters = 1
	}
	centers := make([]geom.Point, nClusters)
	for i := range centers {
		centers[i] = geom.Point{
			X: rng.Float64() * side * cell,
			Y: rng.Float64() * side * cell,
		}
	}
	clusterR := side * cell / math.Sqrt(float64(nClusters)) / 2

	center := func(i int) geom.Point {
		clustered := false
		switch opt.Dist {
		case "clustered":
			clustered = true
		case "uniform":
		default: // "mixed"
			clustered = i%2 == 1
		}
		if clustered {
			c := centers[rng.Intn(nClusters)]
			return geom.Point{
				X: c.X + rng.NormFloat64()*clusterR,
				Y: c.Y + rng.NormFloat64()*clusterR,
			}
		}
		return geom.Point{
			X: rng.Float64() * side * cell,
			Y: rng.Float64() * side * cell,
		}
	}

	out := make([]geom.Polygon, 0, n)
	for i := 0; i < n; i++ {
		if len(out) > 0 && rng.Float64() < opt.RepeatFrac {
			// Exact repeat: same backing geometry as an earlier feature, so
			// its digest — and the cache key — is identical by construction.
			out = append(out, out[rng.Intn(len(out))])
			continue
		}
		ring := JitteredPolygon(rng, center(i), 0.5, 1.0, edges)
		out = append(out, geom.Polygon{ring})
	}
	return out
}

package isect

import (
	"math/rand"
	"testing"

	"polyclip/internal/data"
	"polyclip/internal/geom"
)

// featureEdges alternates the edges of MBR-overlapping data.Features pairs,
// a batch overlay's pair clips, until it holds n edges.
func featureEdges(n int) []geom.Segment {
	a := data.Features(data.FeatureOptions{N: 200, Seed: 1})
	b := data.Features(data.FeatureOptions{N: 200, Seed: 2})
	var out []geom.Segment
	for i := range a {
		for j := range b {
			if !a[i].BBox().Intersects(b[j].BBox()) {
				continue
			}
			ea, eb := a[i].Edges(), b[j].Edges()
			for k := 0; k < max(len(ea), len(eb)); k++ {
				if k < len(ea) {
					out = append(out, ea[k])
				}
				if k < len(eb) {
					out = append(out, eb[k])
				}
				if len(out) >= n {
					return out[:n]
				}
			}
		}
	}
	panic("too few feature pairs")
}

// axisEdges mixes horizontal, vertical and sliver edges on a coarse integer
// grid, so boxes touch, coincide and have zero width or height.
func axisEdges(rng *rand.Rand, n int) []geom.Segment {
	edges := make([]geom.Segment, n)
	for i := range edges {
		a := geom.Point{X: float64(rng.Intn(8)), Y: float64(rng.Intn(8))}
		l := float64(1 + rng.Intn(4))
		b := a
		switch i % 3 {
		case 0:
			b.X += l
		case 1:
			b.Y += l
		default:
			b = geom.Point{X: a.X + l, Y: a.Y + l*1e-9}
		}
		edges[i] = geom.Segment{A: a, B: b}
	}
	return edges
}

// TestSmallSetMatchesGridCandidates holds the direct box tests below
// smallSet to the grid's candidate set: at every size from 2 to twice the
// cutoff, the distinct pairs VisitCandidatePairs visits are exactly the
// box-overlapping pairs — by the grid from the cutoff up, each exactly once
// below it — and GridPairs equals BruteForcePairs.
func TestSmallSetMatchesGridCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sources := []struct {
		name  string
		edges func(n int) []geom.Segment
	}{
		{"random", func(n int) []geom.Segment { return randomEdges(rng, n, 20) }},
		{"features", featureEdges},
		{"axis-sliver", func(n int) []geom.Segment { return axisEdges(rng, n) }},
	}
	for _, src := range sources {
		for n := 2; n <= 2*smallSet; n++ {
			edges := src.edges(n)
			want := map[Pair]bool{}
			for i := int32(0); i < int32(n); i++ {
				for j := i + 1; j < int32(n); j++ {
					if bboxOverlap(edges[i], edges[j]) {
						want[Pair{i, j}] = true
					}
				}
			}
			seen := map[Pair]int{}
			VisitCandidatePairs(edges, func(i, j int32) bool {
				if i >= j {
					t.Fatalf("%s n=%d: candidate (%d, %d) not in index order", src.name, n, i, j)
				}
				seen[Pair{i, j}]++
				return true
			})
			if len(seen) != len(want) {
				t.Fatalf("%s n=%d: %d distinct candidates, want %d", src.name, n, len(seen), len(want))
			}
			for p := range seen {
				if !want[p] {
					t.Fatalf("%s n=%d: candidate %v has disjoint boxes", src.name, n, p)
				}
			}
			if n < smallSet {
				for p, c := range seen {
					if c != 1 {
						t.Fatalf("%s n=%d: pair %v visited %d times, want once", src.name, n, p, c)
					}
				}
			}
			pairsEqual(t, src.name+" grid vs brute", GridPairs(edges, 2), BruteForcePairs(edges))
		}
	}
}

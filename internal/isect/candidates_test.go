package isect

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
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

// starPair returns the edges of two star rings of 2n vertices each, outer
// radius 1 and inner radius 0.01, the second turned by half a spike (half
// the vertex step π/n) so the spikes interleave: long edges that share many
// grid cells with each other. At n = 256 the grid finds 127,384 distinct
// candidates among its 1,024 edges, and 1,536 pairs meet.
func starPair(n int) []geom.Segment {
	a := geom.Star(geom.Point{}, 1, 0.01, n, 0)
	b := geom.Star(geom.Point{}, 1, 0.01, n, math.Pi/float64(2*n))
	return b.Edges(a.Edges(nil))
}

// checkCandidates holds both candidate visitors to the box test on one edge
// set: VisitCandidatePairs, and VisitCandidateChunks at p = 1, 2 and 4, must
// each visit every pair of edges whose bounding boxes overlap exactly once,
// as (i, j) with i < j, and no other pair, each chunk index in [0, p).
func checkCandidates(t *testing.T, name string, edges []geom.Segment) {
	t.Helper()
	n := len(edges)
	want := make([]bool, n*n) // pair (i, j) at i*n + j
	nwant := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if bboxOverlap(edges[i], edges[j]) {
				want[i*n+j] = true
				nwant++
			}
		}
	}
	seen := make([]bool, n*n)
	check := func(visitor string, visits []Pair) {
		t.Helper()
		clear(seen)
		for _, p := range visits {
			k := int(p.I)*n + int(p.J)
			switch {
			case p.I >= p.J:
				t.Fatalf("%s, %s: candidate %v not in index order", name, visitor, p)
			case !want[k]:
				t.Fatalf("%s, %s: candidate %v has disjoint boxes", name, visitor, p)
			case seen[k]:
				t.Fatalf("%s, %s: pair %v visited more than once", name, visitor, p)
			}
			seen[k] = true
		}
		if len(visits) != nwant {
			t.Fatalf("%s, %s: %d candidates, want %d", name, visitor, len(visits), nwant)
		}
	}
	var visits []Pair
	VisitCandidatePairs(edges, func(i, j int32) bool {
		visits = append(visits, Pair{i, j})
		return true
	})
	check("VisitCandidatePairs", visits)
	for _, p := range []int{1, 2, 4} {
		chunks := make([][]Pair, p)
		var outside atomic.Int64
		VisitCandidateChunks(edges, p, func(c int, i, j int32) bool {
			if c < 0 || c >= p {
				outside.Add(1)
				return false
			}
			chunks[c] = append(chunks[c], Pair{i, j})
			return true
		})
		if outside.Load() != 0 {
			t.Fatalf("%s: VisitCandidateChunks at p=%d passed a chunk index outside [0, %d)", name, p, p)
		}
		check(fmt.Sprintf("VisitCandidateChunks p=%d", p), slices.Concat(chunks...))
	}
}

// TestSmallSetMatchesGridCandidates holds the direct box tests below
// smallSet and the grid above it to the same candidate set, each pair
// visited once (checkCandidates): at every size from 2 to four times the
// cutoff, where GridPairs must also equal BruteForcePairs, on the
// data.PinFamilies edge sets, and on a 1,024-edge star pair whose long
// edges share many cells.
func TestSmallSetMatchesGridCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	features := featureEdges(4 * smallSet)
	sources := []struct {
		name  string
		edges func(n int) []geom.Segment
	}{
		{"random", func(n int) []geom.Segment { return randomEdges(rng, n, 20) }},
		{"features", func(n int) []geom.Segment { return features[:n] }},
		{"axis-sliver", func(n int) []geom.Segment { return axisEdges(rng, n) }},
	}
	for _, src := range sources {
		for n := 2; n <= 4*smallSet; n++ {
			edges := src.edges(n)
			name := fmt.Sprintf("%s n=%d", src.name, n)
			checkCandidates(t, name, edges)
			pairsEqual(t, name+" grid vs brute", GridPairs(edges, 2), BruteForcePairs(edges))
		}
	}
	for _, f := range data.PinFamilies() {
		for i, pr := range f.Pairs() {
			checkCandidates(t, fmt.Sprintf("%s pair %d", f.Name, i), append(pr[0].Edges(), pr[1].Edges()...))
		}
	}
	checkCandidates(t, "star pair", starPair(256))
}

package data

import (
	"math"

	"polyclip/internal/geom"
)

// PinFamily is one named list of operand pairs that the output pins hash
// and the merge oracle checks. Short families also run under -short.
type PinFamily struct {
	Name  string
	Short bool
	Pairs func() [][2]geom.Polygon
}

// PinFamilies returns the pinned input families: synthetic, interleaved and
// self-intersecting pairs at a few sizes, two checkerboards, small feature
// pairs and a pair that shares an edge written with -0 and +0.
func PinFamilies() []PinFamily {
	return []PinFamily{
		{"synthetic-64", true, func() [][2]geom.Polygon { return one(SyntheticPair(1, 64, 64)) }},
		{"synthetic-256", false, func() [][2]geom.Polygon { return one(SyntheticPair(2, 256, 256)) }},
		{"synthetic-1024", false, func() [][2]geom.Polygon { return one(SyntheticPair(3, 1024, 1024)) }},
		{"interleaved-128", true, func() [][2]geom.Polygon { return one(InterleavedPair(4, 128)) }},
		{"interleaved-512", false, func() [][2]geom.Polygon { return one(InterleavedPair(38, 512)) }},
		{"selfintersecting-101", true, func() [][2]geom.Polygon { return one(SelfIntersectingPair(5, 101)) }},
		{"selfintersecting-401", false, func() [][2]geom.Polygon { return one(SelfIntersectingPair(6, 401)) }},
		{"checkerboard-shared", true, func() [][2]geom.Polygon {
			return one(checkerboard(8, 0, 1, 0), checkerboard(8, 1, 1, 0))
		}},
		{"checkerboard-shifted", false, func() [][2]geom.Polygon {
			return one(checkerboard(16, 0, 2, 0), checkerboard(16, 0, 2, 2))
		}},
		{"features", true, featurePairs},
		{"signed-zero", true, signedZeroPairs},
	}
}

func one(a, b geom.Polygon) [][2]geom.Polygon { return [][2]geom.Polygon{{a, b}} }

// checkerboard returns the squares of a g×g grid of side cell whose row
// plus column has the given parity, shifted diagonally by shift.
func checkerboard(g, parity int, cell, shift float64) geom.Polygon {
	var p geom.Polygon
	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			if (i+j)%2 == parity {
				x, y := float64(i)*cell+shift, float64(j)*cell+shift
				p = append(p, geom.Rect(x, y, x+cell, y+cell))
			}
		}
	}
	return p
}

// featurePairs pairs the features of two small feature sets whose bounding
// boxes meet, up to 12 pairs.
func featurePairs() [][2]geom.Polygon {
	a := Features(FeatureOptions{N: 64, Seed: 1})
	b := Features(FeatureOptions{N: 64, Seed: 101})
	var out [][2]geom.Polygon
	for _, fa := range a {
		for _, fb := range b {
			if len(out) < 12 && fa.BBox().Intersects(fb.BBox()) {
				out = append(out, [2]geom.Polygon{fa, fb})
			}
		}
	}
	return out
}

// signedZeroPairs share an edge between an operand written with -0 and one
// written with +0: which zero reaches the output is the duplicate fold's
// choice between equal pieces.
func signedZeroPairs() [][2]geom.Polygon {
	nz := math.Copysign(0, -1)
	a := geom.Polygon{{{X: -10, Y: 0}, {X: nz, Y: 0}, {X: nz, Y: 10}, {X: -10, Y: 10}}}
	b := geom.Polygon{{{X: -5, Y: 3}, {X: 0, Y: 3}, {X: 0, Y: 10}, {X: -5, Y: 10}}}
	return [][2]geom.Polygon{{a, b}, {b, a}}
}

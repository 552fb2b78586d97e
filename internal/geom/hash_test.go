package geom

import (
	"math"
	"testing"
)

func hashPoly(coords ...[][2]float64) Polygon {
	var p Polygon
	for _, rc := range coords {
		r := make(Ring, len(rc))
		for i, c := range rc {
			r[i] = Point{X: c[0], Y: c[1]}
		}
		p = append(p, r)
	}
	return p
}

func TestHashEqualForClones(t *testing.T) {
	p := hashPoly([][2]float64{{0, 0}, {4, 0}, {4, 4}, {0, 4}}, [][2]float64{{1, 1}, {2, 1}, {2, 2}})
	if got, want := Hash(p), Hash(p.Clone()); got != want {
		t.Errorf("clone digest %v != %v", got, want)
	}
	if Hash(p) == (Digest{}) {
		t.Error("digest of a non-empty polygon is zero")
	}
}

func TestHashSensitivity(t *testing.T) {
	base := hashPoly([][2]float64{{0, 0}, {4, 0}, {4, 4}, {0, 4}})
	h := Hash(base)
	variants := map[string]Polygon{
		"translated":     hashPoly([][2]float64{{1, 0}, {5, 0}, {5, 4}, {1, 4}}),
		"rotated-order":  hashPoly([][2]float64{{4, 0}, {4, 4}, {0, 4}, {0, 0}}),
		"reversed":       hashPoly([][2]float64{{0, 4}, {4, 4}, {4, 0}, {0, 0}}),
		"extra-vertex":   hashPoly([][2]float64{{0, 0}, {2, 0}, {4, 0}, {4, 4}, {0, 4}}),
		"one-ulp-nudged": hashPoly([][2]float64{{0, 0}, {math.Nextafter(4, 5), 0}, {4, 4}, {0, 4}}),
		"empty":          nil,
	}
	for name, v := range variants {
		if Hash(v) == h {
			t.Errorf("%s: digest collides with base", name)
		}
	}
}

// Moving a vertex across a ring boundary keeps the flattened coordinate
// stream identical; the length prefixes must still separate the digests.
func TestHashRingBoundaries(t *testing.T) {
	a := hashPoly(
		[][2]float64{{0, 0}, {1, 0}, {1, 1}},
		[][2]float64{{2, 2}, {3, 2}, {3, 3}, {2, 3}},
	)
	b := hashPoly(
		[][2]float64{{0, 0}, {1, 0}, {1, 1}, {2, 2}},
		[][2]float64{{3, 2}, {3, 3}, {2, 3}},
	)
	if Hash(a) == Hash(b) {
		t.Error("ring-boundary shift not reflected in digest")
	}
}

func TestHashNegativeZero(t *testing.T) {
	a := hashPoly([][2]float64{{0, 0}, {1, 0}, {1, 1}})
	b := hashPoly([][2]float64{{math.Copysign(0, -1), math.Copysign(0, -1)}, {1, 0}, {1, 1}})
	if Hash(a) != Hash(b) {
		t.Error("-0.0 and +0.0 should hash identically")
	}
}

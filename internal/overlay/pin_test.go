package overlay_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"

	_ "polyclip/internal/core" // registers the slabs engine
	"polyclip/internal/data"
	"polyclip/internal/engine"
	"polyclip/internal/geom"
)

// outputPins holds one sha256 per input family of pinFamilies: the
// coordinate bits of every output of the raw overlay engine and of the slabs
// engine (which hosts overlay in each slab), for every rule and op at
// Threads 1 and 4, without the fallback chain. A change that alters any
// output bit fails TestOutputPin and names the family; such a change must
// update the pin and say which cases changed and why.
var outputPins = map[string]string{
	"synthetic-64":         "9693316cdb99b9feab35f419ba1d1e7946b7e9e41087300c0841e89c3b5a9107",
	"synthetic-256":        "b8aa39c41068079b5e702a4903f83d06284fd9e5d7393bc8294fb594f55c52cd",
	"synthetic-1024":       "ebae8ec8db054ac76cac33e338fd8750c7c7214fb732f3229bb3bb34f15e7758",
	"interleaved-128":      "8d20c7ee78179cb1fcde3963d623f2f3cf371edd66895e04cf123b48e3c572d1",
	"interleaved-512":      "ce99f480788497b6e5992d4fa23592f27fde9e3c67a8f99fefbfcb7855d93ff0",
	"selfintersecting-101": "3987e9fbc4eb3324d42368a1532c39b080c3137f23017ac42a7b7c221696d221",
	"selfintersecting-401": "3e85b80836f67ed9bb1742165298d9845ff0f30cf33734b97b29eef5c2248df1",
	"checkerboard-shared":  "c4df3cb956e8c67dbbde4eccd9b0535b5179c18341db808ef57908cb464bbde1",
	"checkerboard-shifted": "1c7b2773f9f941c70c45b3b61e30e5fa3475bbcf5f1b2b740e17182094423e3d",
	"features":             "40363027bc2075d458434df0aa1ef8abf5e3f684d714272ef280ae4d94fbef51",
	"signed-zero":          "d552be8ae4c688cdf0d5c44d35023797545410f5af481efc5a64b78e2a93aa89",
}

// pinFamily is one named list of operand pairs; short families also run
// under -short.
type pinFamily struct {
	name  string
	short bool
	pairs func() [][2]geom.Polygon
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
	a := data.Features(data.FeatureOptions{N: 64, Seed: 1})
	b := data.Features(data.FeatureOptions{N: 64, Seed: 101})
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

var pinFamilies = []pinFamily{
	{"synthetic-64", true, func() [][2]geom.Polygon { return one(data.SyntheticPair(1, 64, 64)) }},
	{"synthetic-256", false, func() [][2]geom.Polygon { return one(data.SyntheticPair(2, 256, 256)) }},
	{"synthetic-1024", false, func() [][2]geom.Polygon { return one(data.SyntheticPair(3, 1024, 1024)) }},
	{"interleaved-128", true, func() [][2]geom.Polygon { return one(data.InterleavedPair(4, 128)) }},
	{"interleaved-512", false, func() [][2]geom.Polygon { return one(data.InterleavedPair(38, 512)) }},
	{"selfintersecting-101", true, func() [][2]geom.Polygon { return one(data.SelfIntersectingPair(5, 101)) }},
	{"selfintersecting-401", false, func() [][2]geom.Polygon { return one(data.SelfIntersectingPair(6, 401)) }},
	{"checkerboard-shared", true, func() [][2]geom.Polygon {
		return one(checkerboard(8, 0, 1, 0), checkerboard(8, 1, 1, 0))
	}},
	{"checkerboard-shifted", false, func() [][2]geom.Polygon {
		return one(checkerboard(16, 0, 2, 0), checkerboard(16, 0, 2, 2))
	}},
	{"features", true, featurePairs},
	{"signed-zero", true, signedZeroPairs},
}

// familyHash clips every pair of f with both engines, every op and rule, at
// Threads 1 and 4, and hashes each output's ring lengths and coordinate
// bits.
func familyHash(t *testing.T, f pinFamily) string {
	h := sha256.New()
	for i, pr := range f.pairs() {
		for _, name := range []string{"overlay", "slabs"} {
			e := engine.MustGet(name)
			for _, threads := range []int{1, 4} {
				for _, op := range engine.Ops() {
					for _, rule := range engine.Rules() {
						res, err := e.Clip(context.Background(), pr[0], pr[1], op,
							engine.Options{Threads: threads, Rule: rule, NoFallback: true})
						if err != nil {
							t.Fatalf("%s pair %d %s threads %d %v %v: %v", f.name, i, name, threads, op, rule, err)
						}
						writeU64(h, uint64(i), uint64(threads), uint64(op), uint64(rule), uint64(len(res.Polygon)))
						for _, r := range res.Polygon {
							writeU64(h, uint64(len(r)))
							for _, p := range r {
								writeU64(h, math.Float64bits(p.X), math.Float64bits(p.Y))
							}
						}
					}
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeU64(h hash.Hash, vs ...uint64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
}

// TestOutputPin pins every output bit of the raw overlay and slabs engines
// over pinFamilies; -short runs the short families only.
func TestOutputPin(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("output pin recorded on amd64; fused multiply-adds may change bits on %s", runtime.GOARCH)
	}
	for _, f := range pinFamilies {
		if testing.Short() && !f.short {
			continue
		}
		if got := familyHash(t, f); got != outputPins[f.name] {
			t.Errorf("%s: output hash %s, pinned %s", f.name, got, outputPins[f.name])
		}
	}
}

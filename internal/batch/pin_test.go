package batch

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"

	"polyclip/internal/data"
	"polyclip/internal/engine"
)

// overlayPin is the sha256 of pinMatrix's outputs. A change that alters any
// batch output bit fails TestOverlayOutputPin; such a change must update the
// pin and say which cases changed and why.
const overlayPin = "e44e35db739662e64c9cbba030e9bff757a79509d91755cd2b826c3e09835061"

// pinMatrix overlays 300×300-feature layers for seeds 1–2, RepeatFrac 0 and
// 0.5, every op and every rule at the given thread count, and hashes each
// output's A, B, ring lengths and coordinate bits, case by case.
func pinMatrix(t *testing.T, threads int) string {
	h := sha256.New()
	for seed := int64(1); seed <= 2; seed++ {
		for _, repeat := range []float64{0, 0.5} {
			a := data.Features(data.FeatureOptions{N: 300, RepeatFrac: repeat, Seed: seed})
			b := data.Features(data.FeatureOptions{N: 300, RepeatFrac: repeat, Seed: seed + 100})
			for _, op := range engine.Ops() {
				for _, rule := range engine.Rules() {
					outs, _, err := Overlay(context.Background(), a, b, op,
						Options{Rule: rule, Threads: threads})
					if err != nil {
						t.Fatalf("seed %d repeat %v %v %v: %v", seed, repeat, op, rule, err)
					}
					writeU64(h, uint64(seed), math.Float64bits(repeat), uint64(op), uint64(rule), uint64(len(outs)))
					for _, o := range outs {
						writeU64(h, uint64(o.A), uint64(o.B), uint64(len(o.Poly)))
						for _, r := range o.Poly {
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

// TestOverlayOutputPin pins every batch overlay output bit at Threads 1
// and 4 to one committed hash.
func TestOverlayOutputPin(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("output pin recorded on amd64; fused multiply-adds may change bits on %s", runtime.GOARCH)
	}
	for _, threads := range []int{1, 4} {
		if got := pinMatrix(t, threads); got != overlayPin {
			t.Errorf("Threads %d: output hash %s, pinned %s", threads, got, overlayPin)
		}
	}
}

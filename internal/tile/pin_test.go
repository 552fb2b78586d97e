package tile

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"testing"

	"polyclip/internal/data"
	"polyclip/internal/engine"
)

// pyramidPins holds one sha256 per data.TileLayer seed: every tile's key,
// ring lengths and coordinate bits, and the cut's Leaves, Filled, Pruned and
// Tiles counts and prepared route counters, over pinZooms, every rule, and
// Threads 1 and 4. Stats.Nodes is left out: it counts the descent's work,
// not its output. A change that alters any tile bit or counter fails
// TestPyramidPin and names the seed; such a change must update the pin and
// say which cases changed and why.
var pyramidPins = map[int64]string{
	1: "530734685cab5eefe9f955b725b18b7892bc0098c98829d9fa5a71e877bdb877",
	2: "f0bc074e516a258c738aa96f1636e24d7b3b1cdf21d9e8148489b664be807e72",
	3: "1d87fe0b5edbb6b3e7469bee03713e6204a51354cfe546540c5f8adab6e9e876",
}

// pinZooms are the pinned zoom ranges: the full pyramid the tiles workload
// cuts, a range starting below the root's children, and a single zoom.
var pinZooms = [][2]int{{0, 7}, {2, 6}, {3, 3}}

// pyramidHash cuts the seed's layer over every pinned zoom range, rule and
// thread count and hashes the tiles and counters.
func pyramidHash(t *testing.T, seed int64) string {
	layer := data.TileLayer(data.TileLayerOptions{Rings: 32, Seed: seed})
	h := sha256.New()
	for _, zr := range pinZooms {
		spec := Spec{MinZoom: zr[0], MaxZoom: zr[1], Extent: SquareExtent(layer.BBox())}
		for _, rule := range engine.Rules() {
			for _, threads := range []int{1, 4} {
				tiles, st, err := Cut(context.Background(), layer, spec, Options{Rule: rule, Threads: threads})
				if err != nil {
					t.Fatalf("seed %d zooms %v %v threads %d: %v", seed, zr, rule, threads, err)
				}
				pinU64(h, uint64(zr[0]), uint64(zr[1]), uint64(rule), uint64(threads), uint64(len(tiles)))
				for _, tl := range tiles {
					pinU64(h, uint64(tl.Z), uint64(tl.X), uint64(tl.Y), uint64(len(tl.Poly)))
					for _, r := range tl.Poly {
						pinU64(h, uint64(len(r)))
						for _, p := range r {
							pinU64(h, math.Float64bits(p.X), math.Float64bits(p.Y))
						}
					}
				}
				ps := st.Prepared
				pinU64(h, uint64(st.Leaves), uint64(st.Filled), uint64(st.Pruned), uint64(st.Tiles),
					ps.FastInside, ps.FastOutside, ps.ConvexClips, ps.BandClips, ps.Rescues)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func pinU64(h hash.Hash, vs ...uint64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
}

// TestPyramidPin pins every tile bit and counter of tile.Cut over three
// data.TileLayer seeds; -short runs the first seed only.
func TestPyramidPin(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("pyramid pin recorded on amd64; fused multiply-adds may change bits on %s", runtime.GOARCH)
	}
	for seed := int64(1); seed <= int64(len(pyramidPins)); seed++ {
		if testing.Short() && seed > 1 {
			continue
		}
		t.Run(fmt.Sprint("seed-", seed), func(t *testing.T) {
			if got := pyramidHash(t, seed); got != pyramidPins[seed] {
				t.Errorf("seed %d: pyramid hash %s, pinned %s", seed, got, pyramidPins[seed])
			}
		})
	}
}

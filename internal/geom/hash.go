package geom

import (
	"math"
	"math/bits"
)

// Digest is a 128-bit canonical fingerprint of a polygon's exact geometry:
// two independently mixed 64-bit lanes over the coordinate bit patterns and
// the ring structure. Equal polygons (same rings, same vertex order) always
// produce equal digests; at 128 bits, distinct polygons colliding is
// negligible even across billion-entry caches, which is what lets the
// prepare cache and the batch overlay's pair groups key operands by digest
// alone instead of retaining the operand geometry for verification.
//
// The digest is canonical over the value, not the representation: -0.0
// hashes as +0.0 (the two compare equal everywhere else in the pipeline),
// and ring boundaries are length-prefixed so moving a vertex between
// adjacent rings changes the digest even though the flattened coordinate
// stream is identical.
type Digest struct {
	Hi, Lo uint64
}

const (
	hashOffsetLo = 0xcbf29ce484222325 // FNV-1a 64-bit offset basis
	hashOffsetHi = 0x9e3779b97f4a7c15 // golden-gamma offset for the second lane
	hashPrimeLo  = 0x100000001b3      // FNV-1a 64-bit prime
	hashPrimeHi  = 0x9e3779b97f4a7c55 // odd multiplier for the second lane
)

// mix64 is the splitmix64 finalizer: a full-avalanche bijection so that
// low-entropy coordinate patterns (integer grids) spread over all bits.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// canonBits returns the canonical bit pattern of a coordinate: -0.0
// normalizes to +0.0, everything else (including NaN payloads, which
// validation rejects upstream anyway) hashes its IEEE-754 bits.
func canonBits(v float64) uint64 {
	if v == 0 {
		return 0
	}
	return math.Float64bits(v)
}

// Hash returns the canonical 128-bit digest of p. It keys the tile
// pipeline's prepare cache and the batch overlay's pair groups: repeated
// operands (shared basemaps, common clip masks) hash identically, so their
// work is done once.
func Hash(p Polygon) Digest {
	lo := uint64(hashOffsetLo)
	hi := uint64(hashOffsetHi)
	feed := func(w uint64) {
		lo = (lo ^ w) * hashPrimeLo
		hi = (hi ^ bits.RotateLeft64(w, 31)) * hashPrimeHi
	}
	feed(uint64(len(p)))
	for _, r := range p {
		feed(uint64(len(r)))
		for _, pt := range r {
			feed(canonBits(pt.X))
			feed(canonBits(pt.Y))
		}
	}
	return Digest{Hi: mix64(hi), Lo: mix64(lo)}
}

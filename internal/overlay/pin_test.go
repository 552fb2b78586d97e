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

	_ "polyclip/internal/core" // registers the slabs and scanbeam engines
	"polyclip/internal/data"
	"polyclip/internal/engine"
)

// outputPins holds one sha256 per input family of data.PinFamilies: the
// coordinate bits of every output of the raw overlay engine and of the slabs
// engine (which hosts overlay in each slab), for every rule and op at
// Threads 1 and 4, without the fallback chain. A change that alters any
// output bit fails TestOutputPin and names the family; such a change must
// update the pin and say which cases changed and why.
var outputPins = map[string]string{
	"synthetic-64":         "cefc639da7f609643d0e35e0ad8accb3b870d2b4f1597db8b6dc9cb995405d0f",
	"synthetic-256":        "191b35536c392502f412f2938bd1f035f2af9070bbb6c37be214ba4ae2670a8c",
	"synthetic-1024":       "69d36e316faf752ad56cc6b9bf2e90e075c93544de958801a373d0417f803abd",
	"interleaved-128":      "81ac55c6413d5ad5d3ad6dc93abd1c69fd278ad4f7420c790f67a7e31025d84c",
	"interleaved-512":      "f377470d0a68c43a4583d20529de6d0eba574c4ee669bf4f94aaab6d0432d3a3",
	"selfintersecting-101": "6ac7673bb6284532c163929a51efd647949d6d7023e480493bf63fcb37e008ff",
	"selfintersecting-401": "3e72cd3e1b7d4b7d4dbb1d0b3d26d23450d80297bac57be3131eec70cb31e82f",
	"checkerboard-shared":  "5322b049007a12b582eefbbd06252aa9ee054e1f82ea8f54bc161e333a11fae4",
	"checkerboard-shifted": "1c7b2773f9f941c70c45b3b61e30e5fa3475bbcf5f1b2b740e17182094423e3d",
	"features":             "b167f54ca3ec2d777db14c0b5e0d0fe39fd3aefa5eb66fcc21af77c27c484f1f",
	"signed-zero":          "b87dfb272794fc2fdb1f603e21bf04f96ade81ff1ae32f98e05b9785b22b1789",
}

// sweepPins is outputPins for the raw vatti and scanbeam engines, the two
// sweeps whose trapezoids vatti.Assemble merges.
var sweepPins = map[string]string{
	"synthetic-64":         "984c68d49a9c82b470b9f2a15cb6adddbd240350b40c6094cd04b5c8620c472e",
	"synthetic-256":        "a91302a0d3aa71421d4e6a7798b62d84a5b2a76d9399f411597a91d9ff7b9759",
	"synthetic-1024":       "c71344abe156fe0fd59832d08c44af00c94446ce7fce5cd183833d352426b0f2",
	"interleaved-128":      "57188b671b57203bf4e638c67c35de9b2028a50140b1fdcce04e56ce0b4d9f38",
	"interleaved-512":      "e2f4cf8ea1fffe72d874908a82b13fda81492aba74df3b8b9f26b32691781d51",
	"selfintersecting-101": "22e51a91134eaf0207c70baa4bffd268db9a6f9aa6514c1447e9dbc0f84d22f0",
	"selfintersecting-401": "f71f5c5df11c5ed9ab6f5deb0e8d03bb3fc6b8cfc8937fdd14d597cf17601d08",
	"checkerboard-shared":  "978192f5fffcb371be73ca71ae3ab6f8145ae1a41c18c46d1af41632298a75f0",
	"checkerboard-shifted": "bed284653ebbe1a061953d5630ea0819cd98c021770870061fab78ce978f89a4",
	"features":             "553cc8f0d2ee4df931651f1b3860400de7af17bc19d3f77890fbbd764eeeb66d",
	"signed-zero":          "49af0e21bb2d58dce888afbe95c41d5f03075a6baf0244aedb24def79d1a9f1f",
}

// familyHash clips every pair of f with each named engine, every op and
// rule, at Threads 1 and 4, and hashes each output's ring lengths and
// coordinate bits.
func familyHash(t *testing.T, f data.PinFamily, engines ...string) string {
	h := sha256.New()
	for i, pr := range f.Pairs() {
		for _, name := range engines {
			e := engine.MustGet(name)
			for _, threads := range []int{1, 4} {
				for _, op := range engine.Ops() {
					for _, rule := range engine.Rules() {
						res, err := e.Clip(context.Background(), pr[0], pr[1], op,
							engine.Options{Threads: threads, Rule: rule, NoFallback: true})
						if err != nil {
							t.Fatalf("%s pair %d %s threads %d %v %v: %v", f.Name, i, name, threads, op, rule, err)
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
// over data.PinFamilies; -short runs the short families only.
func TestOutputPin(t *testing.T) {
	checkPins(t, outputPins, "overlay", "slabs")
}

// TestSweepOutputPin pins every output bit of the raw vatti and scanbeam
// engines over data.PinFamilies; -short runs the short families only.
func TestSweepOutputPin(t *testing.T) {
	checkPins(t, sweepPins, "vatti", "scanbeam")
}

func checkPins(t *testing.T, pins map[string]string, engines ...string) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("output pin recorded on amd64; fused multiply-adds may change bits on %s", runtime.GOARCH)
	}
	for _, f := range data.PinFamilies() {
		if testing.Short() && !f.Short {
			continue
		}
		if got := familyHash(t, f, engines...); got != pins[f.Name] {
			t.Errorf("%s: output hash %s, pinned %s", f.Name, got, pins[f.Name])
		}
	}
}

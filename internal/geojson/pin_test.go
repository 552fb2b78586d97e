package geojson

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"testing"

	"polyclip/internal/data"
	"polyclip/internal/geom"
)

// decodePin is the sha256 of every feature pinDocs decodes to. A change
// that alters any decoded bit fails TestDecodePin.
const decodePin = "b4db62895554a6aa033ab9653cf8421349d47ad7029b2d61c1ae8d43a460a52e"

// pinDoc is one data.Features layer written by Marshal in one framing.
type pinDoc struct {
	name string
	ndjson,
	fc []byte
}

// pinDocs writes the 1,000-feature layers of seeds 1–2 × RepeatFrac 0 and
// 0.5 as newline-delimited GeoJSON and as a FeatureCollection whose
// features each carry a small properties object.
func pinDocs(t testing.TB) []pinDoc {
	var docs []pinDoc
	for seed := int64(1); seed <= 2; seed++ {
		for _, repeat := range []float64{0, 0.5} {
			layer := data.Features(data.FeatureOptions{N: 1000, RepeatFrac: repeat, Seed: seed})
			nd, fc := writeLayer(t, layer)
			docs = append(docs, pinDoc{fmt.Sprintf("seed%d-repeat%v", seed, repeat), nd, fc})
		}
	}
	return docs
}

// writeLayer renders layer with Marshal as ndjson and as a
// FeatureCollection with a properties object per feature.
func writeLayer(t testing.TB, layer []geom.Polygon) (ndjson, fc []byte) {
	var nd, col bytes.Buffer
	col.WriteString(`{"type":"FeatureCollection","features":[`)
	for i, f := range layer {
		g, err := Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		nd.Write(g)
		nd.WriteByte('\n')
		if i > 0 {
			col.WriteByte(',')
		}
		fmt.Fprintf(&col, `{"type":"Feature","properties":{"id":%d,"name":"fé%d","tags":["a",null,true],"w":-0.5e-3},"geometry":%s}`, i, i, g)
	}
	col.WriteString("]}\n")
	return nd.Bytes(), col.Bytes()
}

func hashFeatures(h hash.Hash, fs []geom.Polygon) {
	writeU64(h, uint64(len(fs)))
	for _, p := range fs {
		writeU64(h, uint64(len(p)))
		for _, r := range p {
			writeU64(h, uint64(len(r)))
			for _, pt := range r {
				writeU64(h, math.Float64bits(pt.X), math.Float64bits(pt.Y))
			}
		}
	}
}

func writeU64(h hash.Hash, vs ...uint64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
}

func decodeAll(t testing.TB, doc []byte) []geom.Polygon {
	t.Helper()
	var out []geom.Polygon
	if err := DecodeFeatures(bytes.NewReader(doc), func(p geom.Polygon) error {
		out = append(out, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDecodePin pins every coordinate bit that DecodeFeatures (both
// framings), UnmarshalLayer and Unmarshal (line by line) decode from
// pinDocs to one committed hash.
func TestDecodePin(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("pin recorded on amd64; fused multiply-adds may change data.Features bits on %s", runtime.GOARCH)
	}
	h := sha256.New()
	for _, d := range pinDocs(t) {
		hashFeatures(h, decodeAll(t, d.ndjson))
		hashFeatures(h, decodeAll(t, d.fc))
		layer, err := UnmarshalLayer(d.fc)
		if err != nil {
			t.Fatalf("%s: UnmarshalLayer: %v", d.name, err)
		}
		hashFeatures(h, layer)
		var lines []geom.Polygon
		for _, line := range bytes.Split(bytes.TrimSpace(d.ndjson), []byte("\n")) {
			p, err := Unmarshal(line)
			if err != nil {
				t.Fatalf("%s: Unmarshal: %v", d.name, err)
			}
			lines = append(lines, p)
		}
		hashFeatures(h, lines)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != decodePin {
		t.Errorf("decoded hash %s, pinned %s", got, decodePin)
	}
}

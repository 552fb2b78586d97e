package batch

import (
	"context"
	"fmt"
	"testing"

	"polyclip/internal/acache"
	"polyclip/internal/data"
	"polyclip/internal/engine"
	"polyclip/internal/geom"
	"polyclip/internal/tile"
)

func tileTestSetup() ([]geom.Polygon, TileOptions) {
	features := []geom.Polygon{
		data.TileLayer(data.TileLayerOptions{Rings: 9, Seed: 3}),
		{geom.Rect(5, 5, 25, 25)},
		data.TileLayer(data.TileLayerOptions{Rings: 9, Seed: 3}), // exact repeat
	}
	var ext geom.BBox
	for _, f := range features {
		ext = ext.Union(f.BBox())
	}
	opt := TileOptions{
		Spec:  tile.Spec{MinZoom: 0, MaxZoom: 3, Extent: tile.SquareExtent(ext)},
		Rule:  engine.EvenOdd,
		Cache: acache.New(16 << 20),
	}
	return features, opt
}

func TestCutTilesOrderAndDeterminism(t *testing.T) {
	features, opt := tileTestSetup()
	var base string
	for _, threads := range []int{1, 2, 8} {
		o := opt
		o.Threads = threads
		o.Cache = acache.New(16 << 20)
		out, st, err := CutTiles(context.Background(), features, o)
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if st.Features != 3 || st.Tiles != int64(len(out)) {
			t.Fatalf("stats mismatch: %+v vs %d tiles", st, len(out))
		}
		for i := 1; i < len(out); i++ {
			a, b := out[i-1], out[i]
			ka := [4]int64{int64(a.Feature), int64(a.Z), int64(a.X), int64(a.Y)}
			kb := [4]int64{int64(b.Feature), int64(b.Z), int64(b.X), int64(b.Y)}
			if !(ka[0] < kb[0] || (ka[0] == kb[0] && (ka[1] < kb[1] || (ka[1] == kb[1] && (ka[2] < kb[2] || (ka[2] == kb[2] && ka[3] < kb[3])))))) {
				t.Fatalf("threads=%d: output not in (feature,z,x,y) order at %d: %v >= %v", threads, i, ka, kb)
			}
		}
		s := fmt.Sprint(out)
		if base == "" {
			base = s
		} else if s != base {
			t.Fatalf("threads=%d: output differs", threads)
		}
	}
}

// TestCutTilesCacheRepeats: the repeated feature canonicalizes once — the
// prepare tier hits on its second appearance.
func TestCutTilesCacheRepeats(t *testing.T) {
	features, opt := tileTestSetup()
	out, st, err := CutTiles(context.Background(), features, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Hits == 0 {
		t.Errorf("repeated feature missed the prepare tier: %+v", st.Cache)
	}
	// Features 0 and 2 are identical, so their tile sets must be too.
	var t0, t2 []TileOutput
	for _, o := range out {
		switch o.Feature {
		case 0:
			t0 = append(t0, o)
		case 2:
			t2 = append(t2, o)
		}
	}
	if len(t0) == 0 || len(t0) != len(t2) {
		t.Fatalf("repeat feature tile counts differ: %d vs %d", len(t0), len(t2))
	}
	for i := range t0 {
		if fmt.Sprint(t0[i].Poly) != fmt.Sprint(t2[i].Poly) {
			t.Fatalf("repeat feature tile %d differs", i)
		}
	}
}

// TestCutTilesNaiveAgrees: naive mode emits the same tile keys and never
// touches the prepare cache.
func TestCutTilesNaiveAgrees(t *testing.T) {
	features, opt := tileTestSetup()
	fast, _, err := CutTiles(context.Background(), features, opt)
	if err != nil {
		t.Fatal(err)
	}
	o := opt
	o.Naive = true
	naive, nst, err := CutTiles(context.Background(), features, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(fast) != len(naive) {
		t.Fatalf("%d prepared tiles vs %d naive", len(fast), len(naive))
	}
	for i := range fast {
		if fast[i].Feature != naive[i].Feature || fast[i].Z != naive[i].Z ||
			fast[i].X != naive[i].X || fast[i].Y != naive[i].Y {
			t.Fatalf("tile key %d differs: %+v vs %+v", i, fast[i], naive[i])
		}
	}
	if nst.Cache.Hits+nst.Cache.Misses != 0 {
		t.Errorf("naive run touched the cache: %+v", nst.Cache)
	}
}

func TestCutTilesBadSpec(t *testing.T) {
	if _, _, err := CutTiles(context.Background(), nil, TileOptions{}); err == nil {
		t.Error("CutTiles accepted a zero spec")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	features, opt := tileTestSetup()
	if _, _, err := CutTiles(ctx, features, opt); err == nil {
		t.Error("CutTiles ignored a canceled context")
	}
}

package polyclip

import (
	"context"
	"strings"
	"testing"
)

func TestOverlayBatchCtx(t *testing.T) {
	a := strings.NewReader("POLYGON ((0 0, 4 0, 4 4, 0 4))\nPOLYGON ((10 10, 12 10, 12 12, 10 12))\n")
	b := strings.NewReader(`{"type":"FeatureCollection","features":[
		{"type":"Feature","geometry":{"type":"Polygon","coordinates":[[[2,2],[6,2],[6,6],[2,6],[2,2]]]}}]}`)
	outs, st, err := OverlayBatchCtx(context.Background(), a, b, Intersection, BatchOptions{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || outs[0].A != 0 || outs[0].B != 0 {
		t.Fatalf("outputs: %+v", outs)
	}
	if area := outs[0].Poly.Area(); area < 3.99 || area > 4.01 {
		t.Fatalf("area %v, want 4", area)
	}
	if st.FeaturesA != 2 || st.FeaturesB != 1 || st.CandidatePairs != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestOverlayBatchCtxBadInput(t *testing.T) {
	b := strings.NewReader("POLYGON ((0 0, 1 0, 1 1))\n")
	if _, _, err := OverlayBatchCtx(context.Background(),
		strings.NewReader("POLYGON ((nope))\n"), b, Intersection, BatchOptions{}); err == nil {
		t.Fatal("bad WKT accepted")
	}
}

func TestOverlayBatchLayersCtxMatchesOverlayLayers(t *testing.T) {
	a := Layer{
		{{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 4, Y: 4}, {X: 0, Y: 4}}},
		{{{X: 8, Y: 8}, {X: 12, Y: 8}, {X: 12, Y: 12}, {X: 8, Y: 12}}},
	}
	b := Layer{
		{{{X: 2, Y: 2}, {X: 6, Y: 2}, {X: 6, Y: 6}, {X: 2, Y: 6}}},
		{{{X: 9, Y: 9}, {X: 11, Y: 9}, {X: 11, Y: 11}, {X: 9, Y: 11}}},
	}
	outs, _, err := OverlayBatchLayersCtx(context.Background(), a, b, Intersection, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := OverlayLayers(a, b, Intersection, Options{Threads: 1})
	if len(outs) != len(ref) {
		t.Fatalf("batch %d outputs, layers %d", len(outs), len(ref))
	}
	var got, want float64
	for _, o := range outs {
		got += o.Poly.Area()
	}
	for _, p := range ref {
		want += p.Area()
	}
	if d := got - want; d > 1e-9 || d < -1e-9 {
		t.Fatalf("area %v != %v", got, want)
	}
}

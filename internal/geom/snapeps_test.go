package geom

import (
	"math"
	"testing"
)

// TestGridStep pins the one snap-grid policy: the smallest power of two at
// or above RelEps times the larger of the box's extent and its largest
// absolute coordinate, and 0 where there is no extent to derive it from.
func TestGridStep(t *testing.T) {
	for _, c := range []struct {
		name string
		box  BBox
		want float64
	}{
		{"unit", BBox{MaxX: 1, MaxY: 1}, 0x1p-39},
		{"extent", BBox{MinX: -1000, MaxX: 1000, MaxY: 1}, 0x1p-28},
		{"magnitude", BBox{MinX: 1e6, MinY: 1e6, MaxX: 1e6 + 1, MaxY: 1e6 + 1}, 0x1p-19},
		{"point", BBox{MinX: 5, MinY: 5, MaxX: 5, MaxY: 5}, 0x1p-37},
		{"origin", BBox{}, 0},
		{"empty", EmptyBBox(), 0},
		{"infinite", BBox{MaxX: math.Inf(1), MaxY: 1}, 0},
	} {
		if got := GridStep(c.box); got != c.want {
			t.Errorf("%s: GridStep = %g, want %g", c.name, got, c.want)
		}
	}
	// Operands of zero extent snap on the unit extent's grid.
	if got := AutoSnapEps(nil, Polygon{{{}, {}, {}}}); got != 0x1p-39 {
		t.Errorf("AutoSnapEps at zero extent = %g, want 2^-39", got)
	}
}

func TestSnapPointAndPolygon(t *testing.T) {
	if got, want := SnapPoint(Point{X: 0.3, Y: -0.7}, 0.5), (Point{X: 0.5, Y: -0.5}); got != want {
		t.Errorf("SnapPoint = %v, want %v", got, want)
	}
	// Grid-aligned input stays bit-identical.
	if p := (Point{X: 3, Y: 1.25}); SnapPoint(p, 0.25) != p {
		t.Errorf("SnapPoint moved the grid point %v", p)
	}
	// A ring collapsing below three distinct vertices is dropped; eps <= 0
	// leaves the polygon alone.
	p := Polygon{
		{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 4, Y: 4}},
		{{X: 0.1, Y: 0.1}, {X: 0.2, Y: 0.1}, {X: 0.2, Y: 0.2}},
	}
	if got := SnapPolygon(p, 1); len(got) != 1 || len(got[0]) != 3 {
		t.Errorf("SnapPolygon(eps 1) = %v, want the first ring only", got)
	}
	if got := SnapPolygon(p, 0); len(got) != 2 {
		t.Errorf("SnapPolygon(eps 0) changed the polygon: %v", got)
	}
}

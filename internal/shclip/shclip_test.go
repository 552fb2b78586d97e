package shclip

import (
	"math"
	"math/rand"
	"testing"

	"polyclip/internal/geom"
)

func TestSHSquareInWindow(t *testing.T) {
	subj := geom.Rect(1, 1, 3, 3)
	win := geom.Rect(0, 0, 10, 10)
	got := SutherlandHodgman(subj, win)
	if math.Abs(got.Area()-4) > 1e-12 {
		t.Errorf("area = %v, want 4", got.Area())
	}
}

func TestSHSquareClipped(t *testing.T) {
	subj := geom.Rect(-2, -2, 2, 2)
	win := geom.Rect(0, 0, 10, 10)
	got := SutherlandHodgman(subj, win)
	if math.Abs(got.Area()-4) > 1e-12 {
		t.Errorf("area = %v, want 4 (quadrant)", got.Area())
	}
}

func TestSHTriangleAgainstTriangle(t *testing.T) {
	subj := geom.Ring{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 2, Y: 4}}
	win := geom.Ring{{X: 0, Y: 1}, {X: 2, Y: -3}, {X: 4, Y: 1}}
	got := SutherlandHodgman(subj, win)
	if got.Area() <= 0 {
		t.Error("expected nonempty clip")
	}
	// Every output vertex must be inside (or on) both operands' hulls.
	for _, p := range got {
		if p.Y > 1+1e-9 {
			t.Errorf("vertex %v above clip hull", p)
		}
	}
}

func TestSHDisjoint(t *testing.T) {
	subj := geom.Rect(20, 20, 30, 30)
	win := geom.Rect(0, 0, 10, 10)
	if got := SutherlandHodgman(subj, win); len(got) != 0 {
		t.Errorf("disjoint clip = %v", got)
	}
}

func TestSHConcaveSubjectArea(t *testing.T) {
	// U-shape clipped to a band across the arms: area must match the
	// analytic value even though SH emits bridge edges (signed area is
	// still correct).
	u := geom.Ring{
		{X: 0, Y: 0}, {X: 6, Y: 0}, {X: 6, Y: 5}, {X: 4, Y: 5},
		{X: 4, Y: 2}, {X: 2, Y: 2}, {X: 2, Y: 5}, {X: 0, Y: 5},
	}
	win := geom.Rect(-1, 3, 7, 6)
	got := SutherlandHodgman(u, win)
	// Arms: [0,2]x[3,5] and [4,6]x[3,5] => 4 + 4 = 8.
	if math.Abs(got.SignedArea()-8) > 1e-9 {
		t.Errorf("signed area = %v, want 8", got.SignedArea())
	}
}

func TestClipToRect(t *testing.T) {
	subj := geom.RegularPolygon(geom.Point{X: 0, Y: 0}, 10, 16, 0.1)
	box := geom.BBox{MinX: -3, MinY: -3, MaxX: 3, MaxY: 3}
	got := SutherlandHodgman(subj, geom.Rect(box.MinX, box.MinY, box.MaxX, box.MaxY))
	// Fully covering polygon clipped to box = box itself.
	if math.Abs(got.Area()-36) > 1e-9 {
		t.Errorf("area = %v, want 36", got.Area())
	}
}

func TestLiangBarskyInside(t *testing.T) {
	box := geom.BBox{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	s := geom.Segment{A: geom.Point{X: 1, Y: 1}, B: geom.Point{X: 9, Y: 9}}
	got, ok := LiangBarsky(s, box)
	if !ok || got != s {
		t.Errorf("inside segment altered: %v %v", got, ok)
	}
}

func TestLiangBarskyCrossing(t *testing.T) {
	box := geom.BBox{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	s := geom.Segment{A: geom.Point{X: -5, Y: 5}, B: geom.Point{X: 15, Y: 5}}
	got, ok := LiangBarsky(s, box)
	if !ok {
		t.Fatal("crossing segment rejected")
	}
	if got.A != (geom.Point{X: 0, Y: 5}) || got.B != (geom.Point{X: 10, Y: 5}) {
		t.Errorf("got %v", got)
	}
}

func TestLiangBarskyOutside(t *testing.T) {
	box := geom.BBox{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	cases := []geom.Segment{
		{A: geom.Point{X: -5, Y: -5}, B: geom.Point{X: -1, Y: -1}},
		{A: geom.Point{X: 11, Y: 0}, B: geom.Point{X: 20, Y: 10}},
		{A: geom.Point{X: -1, Y: 11}, B: geom.Point{X: 11, Y: 12}},
	}
	for _, s := range cases {
		if _, ok := LiangBarsky(s, box); ok {
			t.Errorf("outside segment %v accepted", s)
		}
	}
}

func TestLiangBarskyDiagonalCorner(t *testing.T) {
	box := geom.BBox{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	s := geom.Segment{A: geom.Point{X: -2, Y: 8}, B: geom.Point{X: 8, Y: 18}}
	got, ok := LiangBarsky(s, box)
	if !ok {
		t.Fatal("corner-cutting segment rejected")
	}
	if math.Abs(got.A.X-0) > 1e-12 || math.Abs(got.B.Y-10) > 1e-12 {
		t.Errorf("got %v", got)
	}
}

func TestLiangBarskyMatchesSHOnRandomSegments(t *testing.T) {
	box := geom.BBox{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	rng := rand.New(rand.NewSource(83))
	for i := 0; i < 500; i++ {
		s := geom.Segment{
			A: geom.Point{X: rng.Float64()*30 - 10, Y: rng.Float64()*30 - 10},
			B: geom.Point{X: rng.Float64()*30 - 10, Y: rng.Float64()*30 - 10},
		}
		got, ok := LiangBarsky(s, box)
		if ok {
			for _, p := range []geom.Point{got.A, got.B} {
				if p.X < -1e-9 || p.X > 10+1e-9 || p.Y < -1e-9 || p.Y > 10+1e-9 {
					t.Fatalf("clipped endpoint %v outside box", p)
				}
			}
			// Clipped endpoints must stay on the original segment.
			if s.DistToPoint(got.A) > 1e-9 || s.DistToPoint(got.B) > 1e-9 {
				t.Fatalf("clipped point off the line: %v %v", got.A, got.B)
			}
		}
	}
}

package geom

import "testing"

func TestIsSimple(t *testing.T) {
	if !Rect(0, 0, 2, 2).IsSimple() {
		t.Error("square should be simple")
	}
	if BowTie(0, 0, 2, 2).IsSimple() {
		t.Error("bow tie should not be simple")
	}
	if SelfIntersectingStar(Point{X: 0, Y: 0}, 2, 5, 0.1).IsSimple() {
		t.Error("pentagram should not be simple")
	}
	if !RegularPolygon(Point{X: 0, Y: 0}, 3, 17, 0.4).IsSimple() {
		t.Error("regular 17-gon should be simple")
	}
	// Ring with an overlapping spike (degenerate back-and-forth edge).
	spike := Ring{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 4, Y: 4}, {X: 2, Y: 4}, {X: 2, Y: 6}, {X: 2, Y: 4}, {X: 0, Y: 4}}
	if spike.IsSimple() {
		t.Error("spiked ring should not be simple")
	}
}

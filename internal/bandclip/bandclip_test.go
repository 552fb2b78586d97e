package bandclip

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"polyclip/internal/data"
	"polyclip/internal/engine"
	"polyclip/internal/geom"
	"polyclip/internal/overlay"
	"polyclip/internal/vatti"
)

// oracle clips via the overlay engine against a generous-width rectangle.
func oracle(p geom.Polygon, lo, hi float64) geom.Polygon {
	box := p.BBox()
	if box.IsEmpty() {
		return nil
	}
	rect := geom.RectPolygon(box.MinX-10, lo, box.MaxX+10, hi)
	out, _ := overlay.Clip(context.Background(), p, rect, engine.Intersection, engine.Options{})
	return out
}

func checkBand(t *testing.T, name string, p geom.Polygon, lo, hi float64) {
	t.Helper()
	got := Clip(p, lo, hi)
	want := oracle(p, lo, hi)
	// The clipped rings may self-intersect (they inherit the input's
	// crossings), so measure their even-odd area by normalizing through the
	// overlay engine rather than summing signed ring areas.
	gotArea := got.Area()
	if len(got) > 0 {
		box := got.BBox()
		big := geom.RectPolygon(box.MinX-1, box.MinY-1, box.MaxX+1, box.MaxY+1)
		norm, _ := overlay.Clip(context.Background(), got, big, engine.Intersection, engine.Options{})
		gotArea = norm.Area()
	}
	if math.Abs(gotArea-want.Area()) > 1e-6*(1+want.Area()) {
		t.Errorf("%s: band [%v,%v]: area=%v want %v (rings=%d)", name, lo, hi, gotArea, want.Area(), len(got))
	}
	// Every output vertex must lie inside the band.
	for _, r := range got {
		for _, pt := range r {
			if pt.Y < lo-1e-9 || pt.Y > hi+1e-9 {
				t.Errorf("%s: vertex %v outside band [%v,%v]", name, pt, lo, hi)
			}
		}
	}
}

func TestSquareBands(t *testing.T) {
	sq := geom.RectPolygon(0, 0, 10, 10)
	checkBand(t, "middle", sq, 3, 7)
	checkBand(t, "bottom", sq, -5, 5)
	checkBand(t, "top", sq, 5, 15)
	checkBand(t, "cover", sq, -5, 15)
	checkBand(t, "exact", sq, 0, 10)
	if got := Clip(sq, 20, 30); got != nil {
		t.Errorf("disjoint band = %v", got)
	}
	if got := Clip(sq, 7, 3); got != nil {
		t.Errorf("inverted band = %v", got)
	}
	// A ring that meets the band only along a boundary line keeps no area,
	// whichever of the two lines it lies on.
	touch := geom.Polygon{geom.Ring{{X: 0, Y: 0}, {X: 5, Y: 0}, {X: 10, Y: 0}, {X: 10, Y: 10}, {X: 5, Y: 10}, {X: 0, Y: 10}}}
	if got := Clip(touch, 10, 20); got != nil {
		t.Errorf("band touching the top = %v", got)
	}
	if got := Clip(touch, -10, 0); got != nil {
		t.Errorf("band touching the bottom = %v", got)
	}
}

func TestTriangle(t *testing.T) {
	tri := geom.Polygon{geom.Ring{{X: 0, Y: 0}, {X: 8, Y: 0}, {X: 4, Y: 8}}}
	checkBand(t, "tri-mid", tri, 2, 6)
	checkBand(t, "tri-tip", tri, 6, 10)
	checkBand(t, "tri-base", tri, -1, 1)
}

func TestConcaveU(t *testing.T) {
	u := geom.Polygon{geom.Ring{
		{X: 0, Y: 0}, {X: 6, Y: 0}, {X: 6, Y: 5}, {X: 4, Y: 5},
		{X: 4, Y: 2}, {X: 2, Y: 2}, {X: 2, Y: 5}, {X: 0, Y: 5},
	}}
	checkBand(t, "u-arms", u, 3, 4)
	checkBand(t, "u-base", u, 0.5, 1.5)
	checkBand(t, "u-notch", u, 1, 3)
}

func TestStarAndRegularRandomBands(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 25; trial++ {
		var p geom.Polygon
		if trial%2 == 0 {
			p = geom.Polygon{geom.Star(geom.Point{X: 0, Y: 0}, 5, 2, 5+rng.Intn(7), rng.Float64())}
		} else {
			p = geom.Polygon{geom.RegularPolygon(geom.Point{X: 0, Y: 0}, 5, 3+rng.Intn(10), rng.Float64())}
		}
		lo := -6 + rng.Float64()*8
		hi := lo + 0.5 + rng.Float64()*6
		checkBand(t, "random", p, lo, hi)
	}
}

func TestSelfIntersectingBand(t *testing.T) {
	bt := geom.Polygon{geom.BowTie(0, 0, 4, 4)}
	checkBand(t, "bowtie-mid", bt, 1, 3)
	checkBand(t, "bowtie-low", bt, 0, 1.5)
	star := geom.Polygon{geom.SelfIntersectingStar(geom.Point{X: 0, Y: 0}, 5, 5, 0.3)}
	checkBand(t, "pentagram", star, -2, 1)
}

func TestMultiRing(t *testing.T) {
	p := geom.Polygon{geom.Rect(0, 0, 2, 6), geom.Rect(4, 1, 6, 5)}
	checkBand(t, "two-rects", p, 2, 4)
	got := Clip(p, 2, 4)
	if len(got) != 2 {
		t.Errorf("rings = %d, want 2", len(got))
	}
}

func TestPolygonWithHole(t *testing.T) {
	outer := geom.Rect(0, 0, 10, 10)
	hole := geom.Rect(3, 3, 7, 7)
	hole.Reverse()
	p := geom.Polygon{outer, hole}
	checkBand(t, "hole-cross", p, 2, 8)
	checkBand(t, "hole-above", p, 8, 12)
	checkBand(t, "hole-inside", p, 4, 6)
}

func TestRingEntirelyInside(t *testing.T) {
	p := geom.RectPolygon(0, 2, 4, 4)
	got := Clip(p, 0, 10)
	if len(got) != 1 || math.Abs(got.Area()-8) > 1e-12 {
		t.Errorf("got %v", got)
	}
	// Must be a copy, not an alias.
	got[0][0].X = 99
	if p[0][0].X == 99 {
		t.Error("Clip aliases input")
	}
}

func TestVertexExactlyOnBoundary(t *testing.T) {
	// Diamond with its waist vertices exactly on the band boundaries.
	d := geom.Polygon{geom.Ring{{X: 2, Y: 0}, {X: 4, Y: 2}, {X: 2, Y: 4}, {X: 0, Y: 2}}}
	checkBand(t, "diamond-touch", d, 2, 3)
	checkBand(t, "diamond-span", d, 1, 3)
	// Band boundary exactly through the top vertex.
	checkBand(t, "diamond-apex", d, 1, 4)
}

func TestVirtualVertexCountMatchesCrossings(t *testing.T) {
	// A regular polygon crossed by a band: the number of boundary vertices
	// (virtual vertices k') equals the number of edge crossings with the two
	// scanlines.
	p := geom.Polygon{geom.RegularPolygon(geom.Point{X: 0, Y: 0}, 5, 12, 0.2)}
	lo, hi := -2.0, 2.0
	got := Clip(p, lo, hi)
	virt := 0
	for _, r := range got {
		for _, pt := range r {
			if pt.Y == lo || pt.Y == hi {
				virt++
			}
		}
	}
	if virt != 4 {
		t.Errorf("virtual vertices = %d, want 4", virt)
	}
}

func TestBandClipAgainstVattiEngine(t *testing.T) {
	// Cross-validate band clipping against the independent vatti engine on
	// concave inputs.
	rng := rand.New(rand.NewSource(401))
	for trial := 0; trial < 10; trial++ {
		p := geom.Polygon{geom.Star(geom.Point{X: 0, Y: 0}, 6, 2.5, 5+rng.Intn(8), rng.Float64())}
		lo := -7 + rng.Float64()*9
		hi := lo + 0.5 + rng.Float64()*7
		got := Clip(p, lo, hi)
		// vatti.Clip against the band rectangle.
		box := p.BBox()
		rect := geom.RectPolygon(box.MinX-1, lo, box.MaxX+1, hi)
		want := vatti.Clip(p, rect, engine.Intersection, engine.Options{})
		ga, wa := got.Area(), want.Area()
		if math.Abs(ga-wa) > 1e-6*(1+wa) {
			t.Errorf("trial %d band [%v,%v]: bandclip=%v vatti=%v", trial, lo, hi, ga, wa)
		}
	}
}

func TestBandClipComposesWithAdjacentBands(t *testing.T) {
	// Clipping to [a,b] then concatenating with the clip to [b,c] covers the
	// clip to [a,c] exactly (area additivity of slabs).
	p := geom.Polygon{geom.Star(geom.Point{X: 0, Y: 0}, 6, 2, 9, 0.4)}
	whole := Clip(p, -4, 4)
	lower := Clip(p, -4, 0.7)
	upper := Clip(p, 0.7, 4)
	if math.Abs(whole.Area()-(lower.Area()+upper.Area())) > 1e-9 {
		t.Errorf("slab additivity: %v != %v + %v", whole.Area(), lower.Area(), upper.Area())
	}
}

// winding returns the winding number of poly around p by the crossing rule:
// an upward edge passing strictly right of p adds one, a downward edge
// passing strictly right of p subtracts one.
func winding(poly geom.Polygon, p geom.Point) int {
	w := 0
	for _, r := range poly {
		for i, a := range r {
			b := r[(i+1)%len(r)]
			switch {
			case a.Y <= p.Y && b.Y > p.Y && geom.Orient(a, b, p) == geom.CounterClockwise:
				w++
			case a.Y > p.Y && b.Y <= p.Y && geom.Orient(a, b, p) == geom.Clockwise:
				w--
			}
		}
	}
	return w
}

func TestClipKeepsWinding(t *testing.T) {
	origin := geom.Point{}
	twice := geom.Star(origin, 5, 2, 7, 0.1)
	siA, siB := data.SelfIntersectingPair(3, 101)
	inputs := []struct {
		name string
		poly geom.Polygon
	}{
		{"pentagram", geom.Polygon{geom.SelfIntersectingStar(origin, 5, 5, 0.3)}},
		{"heptagram", geom.Polygon{geom.SelfIntersectingStar(origin, 5, 7, 0.7)}},
		{"ring-twice", geom.Polygon{twice, twice.Clone()}},
		{"same-direction-inner", geom.Polygon{geom.Rect(0, 0, 10, 10), geom.Rect(3, 3, 7, 7)}},
		{"selfintersecting-subject", siA},
		{"selfintersecting-clip", siB},
	}
	rng := rand.New(rand.NewSource(33))
	for _, in := range inputs {
		box := in.poly.BBox()
		for trial := 0; trial < 20; trial++ {
			lo := box.MinY + rng.Float64()*(box.MaxY-box.MinY)
			hi := lo + rng.Float64()*(box.MaxY-lo)
			if hi <= lo {
				continue
			}
			got := Clip(in.poly, lo, hi)
			bad := 0
			for s := 0; s < 80; s++ {
				p := geom.Point{
					X: box.MinX + rng.Float64()*(box.MaxX-box.MinX),
					Y: lo + rng.Float64()*(hi-lo),
				}
				if p.Y <= lo || p.Y >= hi {
					continue
				}
				if winding(got, p) != winding(in.poly, p) {
					bad++
				}
			}
			if bad > 0 {
				t.Errorf("%s band [%v,%v]: %d of 80 sample points changed winding", in.name, lo, hi, bad)
			}
		}
	}
}

// TestClipAllocs pins the pass's allocations: the output ring grows by
// append, so a 4,096-spike star cut across its spikes allocates about
// twenty times, not once per spike.
func TestClipAllocs(t *testing.T) {
	star := geom.Polygon{geom.Star(geom.Point{}, 100, 1, 4096, 0.3)}
	allocs := testing.AllocsPerRun(10, func() { Clip(star, 10, 30) })
	if allocs > 19 {
		t.Errorf("Clip allocates %v times, want at most 19", allocs)
	}
}

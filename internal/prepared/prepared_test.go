package prepared

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"polyclip/internal/data"
	"polyclip/internal/engine"
	"polyclip/internal/geom"
	"polyclip/internal/vatti"
)

// layerSquareWithHole is the reference layer of the table tests: a 10x10
// square with a centered 2x2 hole, plus a detached triangle to the right.
func layerSquareWithHole() geom.Polygon {
	return geom.Polygon{
		geom.Rect(0, 0, 10, 10),
		geom.Rect(4, 4, 6, 6), // hole by even-odd parity
		{{X: 20, Y: 0}, {X: 24, Y: 0}, {X: 22, Y: 4}},
	}
}

func TestClassifyRectTable(t *testing.T) {
	pp := Prepare(layerSquareWithHole(), engine.EvenOdd)
	cases := []struct {
		name string
		box  geom.BBox
		want Class
	}{
		{"fully inside outer", geom.BBox{MinX: 1, MinY: 1, MaxX: 3, MaxY: 3}, Inside},
		{"fully inside hole", geom.BBox{MinX: 4.5, MinY: 4.5, MaxX: 5.5, MaxY: 5.5}, Outside},
		{"far outside", geom.BBox{MinX: 50, MinY: 50, MaxX: 60, MaxY: 60}, Outside},
		{"outside but within layer bbox", geom.BBox{MinX: 12, MinY: 6, MaxX: 14, MaxY: 8}, Outside},
		{"straddling outer edge", geom.BBox{MinX: -1, MinY: 4, MaxX: 1, MaxY: 5}, Straddle},
		{"straddling hole edge", geom.BBox{MinX: 3, MinY: 4.5, MaxX: 5, MaxY: 5.5}, Straddle},
		{"covering whole layer", geom.BBox{MinX: -5, MinY: -5, MaxX: 30, MaxY: 15}, Straddle},
		{"inside triangle", geom.BBox{MinX: 21.6, MinY: 0.5, MaxX: 22.4, MaxY: 1}, Inside},
		// Degenerate contacts: the classifier must call these Straddle — a
		// boundary touch reaches the exact clip, which then decides.
		{"tile edge collinear with ring edge", geom.BBox{MinX: 0, MinY: 2, MaxX: 2, MaxY: 4}, Straddle},
		{"tile edge collinear, outside", geom.BBox{MinX: -2, MinY: 2, MaxX: 0, MaxY: 4}, Straddle},
		{"tile corner on ring corner", geom.BBox{MinX: 10, MinY: 10, MaxX: 12, MaxY: 12}, Straddle},
		{"tile corner on triangle apex", geom.BBox{MinX: 22, MinY: 4, MaxX: 23, MaxY: 5}, Straddle},
		{"tile identical to outer ring", geom.BBox{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}, Straddle},
		{"degenerate empty box", geom.BBox{MinX: 3, MinY: 3, MaxX: 2, MaxY: 2}, Outside},
	}
	for _, tc := range cases {
		if got := pp.ClassifyRect(tc.box); got != tc.want {
			t.Errorf("%s: classified %v, want %v", tc.name, got, tc.want)
		}
	}
}

// xorArea measures the symmetric difference of two polygons — the robust
// "same region" check the differential tests use.
func xorArea(a, b geom.Polygon) float64 {
	return vatti.Clip(a, b, engine.Xor, engine.Options{Rule: engine.EvenOdd}).Area()
}

// checkAgainstNaive clips the window three ways — fast path, prepared sweep,
// naive full sweep — and requires all three to cover the same region.
func checkAgainstNaive(t *testing.T, name string, src geom.Polygon, pp *Prepared, box geom.BBox, rule engine.FillRule) {
	t.Helper()
	got, _ := pp.ClipRect(box)
	want := NaiveClipRect(src, box, rule)
	scale := (box.Width() + box.Height()) * (box.Width() + box.Height())
	if scale == 0 {
		scale = 1
	}
	tol := 1e-9 * scale
	if d := xorArea(got, want); d > tol {
		t.Errorf("%s: ClipRect differs from naive by area %g (tol %g)\n got: %v\nwant: %v", name, d, tol, got, want)
	}
	sweep := pp.SweepRect(box)
	if d := xorArea(sweep, want); d > tol {
		t.Errorf("%s: SweepRect differs from naive by area %g (tol %g)", name, d, tol)
	}
}

func TestClipRectTableAllRules(t *testing.T) {
	src := layerSquareWithHole()
	boxes := []struct {
		name string
		box  geom.BBox
	}{
		{"inside", geom.BBox{MinX: 1, MinY: 1, MaxX: 3, MaxY: 3}},
		{"in hole", geom.BBox{MinX: 4.5, MinY: 4.5, MaxX: 5.5, MaxY: 5.5}},
		{"outside", geom.BBox{MinX: 40, MinY: 40, MaxX: 50, MaxY: 50}},
		{"straddle outer", geom.BBox{MinX: -1, MinY: -1, MaxX: 5, MaxY: 5}},
		{"straddle hole", geom.BBox{MinX: 3, MinY: 3, MaxX: 7, MaxY: 7}},
		{"hole inside tile", geom.BBox{MinX: 3.5, MinY: 3.5, MaxX: 6.5, MaxY: 6.5}},
		{"covers everything", geom.BBox{MinX: -5, MinY: -5, MaxX: 30, MaxY: 15}},
		{"edge collinear", geom.BBox{MinX: 0, MinY: 2, MaxX: 2, MaxY: 4}},
		{"corner on vertex", geom.BBox{MinX: 10, MinY: 10, MaxX: 12, MaxY: 12}},
		{"identical to outer", geom.BBox{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}},
		{"sliver along edge", geom.BBox{MinX: 0, MinY: 0, MaxX: 10, MaxY: 1e-9}},
	}
	for _, rule := range engine.Rules() {
		pp := Prepare(src, rule)
		for _, bc := range boxes {
			checkAgainstNaive(t, fmt.Sprintf("%s/%s", rule, bc.name), src, pp, bc.box, rule)
		}
	}
}

// TestClipRectWindingLayers pins rule canonicalization: layers whose region
// depends on the fill rule (overlapping rings, reversed rings, a bowtie)
// must clip identically to the naive per-rule sweep.
func TestClipRectWindingLayers(t *testing.T) {
	overlapping := geom.Polygon{geom.Rect(0, 0, 6, 6), geom.Rect(4, 4, 10, 10)}
	reversed := geom.Polygon{geom.Rect(0, 0, 6, 6)}
	reversed[0].Reverse() // CW: Positive says empty, Negative says full
	bowtie := geom.Polygon{geom.BowTie(0, 0, 8, 8)}
	star := geom.Polygon{geom.SelfIntersectingStar(geom.Point{X: 5, Y: 5}, 5, 5, 0)}
	layers := []struct {
		name string
		poly geom.Polygon
	}{
		{"overlapping", overlapping},
		{"reversed", reversed},
		{"bowtie", bowtie},
		{"pentagram", star},
	}
	boxes := []geom.BBox{
		{MinX: 1, MinY: 1, MaxX: 3, MaxY: 3},
		{MinX: 3, MinY: 3, MaxX: 7, MaxY: 7},
		{MinX: -2, MinY: -2, MaxX: 12, MaxY: 12},
		{MinX: 4.5, MinY: 4.5, MaxX: 5.5, MaxY: 5.5},
		{MinX: 5, MinY: 0, MaxX: 9, MaxY: 4},
	}
	for _, lc := range layers {
		for _, rule := range engine.Rules() {
			pp := Prepare(lc.poly, rule)
			for bi, box := range boxes {
				checkAgainstNaive(t, fmt.Sprintf("%s/%s/box%d", lc.name, rule, bi), lc.poly, pp, box, rule)
			}
		}
	}
}

// randomLayer synthesizes a messy multi-ring layer: grid-placed jittered
// polygons, some with holes, one star, one self-intersecting bowtie.
func randomLayer(rng *rand.Rand, cells int) geom.Polygon {
	var p geom.Polygon
	for gy := 0; gy < cells; gy++ {
		for gx := 0; gx < cells; gx++ {
			cx := float64(gx)*10 + 5
			cy := float64(gy)*10 + 5
			r := 2 + rng.Float64()*2.5
			n := 3 + rng.Intn(7)
			p = append(p, geom.RegularPolygon(geom.Point{X: cx, Y: cy}, r, n, rng.Float64()))
			if rng.Float64() < 0.3 {
				p = append(p, geom.RegularPolygon(geom.Point{X: cx, Y: cy}, r*0.4, n, rng.Float64()))
			}
		}
	}
	p = append(p, geom.Star(geom.Point{X: 5, Y: 5}, 4, 1.5, 7, 0.3))
	p = append(p, geom.BowTie(1, 1, 9, 9))
	return p
}

func TestClipRectRandomDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	src := randomLayer(rng, 3)
	span := 30.0
	for _, rule := range engine.Rules() {
		pp := Prepare(src, rule)
		nBoxes := 24
		if testing.Short() {
			nBoxes = 8
		}
		for i := 0; i < nBoxes; i++ {
			x := rng.Float64()*span - 2
			y := rng.Float64()*span - 2
			w := rng.Float64() * 12
			h := rng.Float64() * 12
			box := geom.BBox{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
			if i%4 == 0 {
				// Grid-aligned windows provoke collinear contacts.
				box = geom.BBox{MinX: math.Floor(x), MinY: math.Floor(y), MaxX: math.Floor(x) + math.Ceil(w), MaxY: math.Floor(y) + math.Ceil(h)}
			}
			checkAgainstNaive(t, fmt.Sprintf("%s/rand%d", rule, i), src, pp, box, rule)
		}
	}
}

// TestPreparedCanonicalRegion pins that preparation preserves the region:
// the canonical even-odd form covers the same point set as the rule-R
// reading of the source.
func TestPreparedCanonicalRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	src := randomLayer(rng, 2)
	for _, rule := range engine.Rules() {
		pp := Prepare(src, rule)
		want := vatti.Clip(src, nil, engine.Union, engine.Options{Rule: rule})
		if d := xorArea(pp.Polygon(), want); d > 1e-6 {
			t.Errorf("%s: canonical form differs from rule region by area %g", rule, d)
		}
	}
}

// TestCanonicalizeIsOutputSensitive counts the canonical form's vertices:
// the union sweep returns the layer's own boundary, not the sides the beam
// lines cut it into, so a 32-ring tile layer stays within 2x its vertices
// under every rule.
func TestCanonicalizeIsOutputSensitive(t *testing.T) {
	layer := data.TileLayer(data.TileLayerOptions{Rings: 32, Seed: 1})
	n := layer.NumVertices()
	for _, rule := range engine.Rules() {
		if got := Canonicalize(layer, rule).NumVertices(); got > 2*n {
			t.Errorf("%s: canonical form has %d vertices, the layer %d", rule, got, n)
		}
	}
}

// TestClipRectConcurrent pins that one Prepared serves concurrent windows
// with results bit-identical to the serial run (the tile driver shares one
// Prepared across its worker pool).
func TestClipRectConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	src := randomLayer(rng, 3)
	pp := Prepare(src, engine.NonZero)
	var boxes []geom.BBox
	for i := 0; i < 64; i++ {
		x := rng.Float64() * 28
		y := rng.Float64() * 28
		boxes = append(boxes, geom.BBox{MinX: x, MinY: y, MaxX: x + 4, MaxY: y + 4})
	}
	serial := make([]geom.Polygon, len(boxes))
	for i, b := range boxes {
		serial[i], _ = pp.ClipRect(b)
	}
	for round := 0; round < 4; round++ {
		parallel := make([]geom.Polygon, len(boxes))
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(boxes); i += 8 {
					parallel[i], _ = pp.ClipRect(boxes[i])
				}
			}(w)
		}
		wg.Wait()
		for i := range boxes {
			if fmt.Sprint(serial[i]) != fmt.Sprint(parallel[i]) {
				t.Fatalf("round %d window %d: concurrent result differs from serial", round, i)
			}
		}
	}
}

// TestStatsCounters pins the route accounting the benchmark artifact
// reports.
func TestStatsCounters(t *testing.T) {
	pp := Prepare(layerSquareWithHole(), engine.EvenOdd)
	if _, cls := pp.ClipRect(geom.BBox{MinX: 1, MinY: 1, MaxX: 3, MaxY: 3}); cls != Inside {
		t.Fatalf("inside window classified %v", cls)
	}
	if _, cls := pp.ClipRect(geom.BBox{MinX: 50, MinY: 50, MaxX: 60, MaxY: 60}); cls != Outside {
		t.Fatalf("outside window classified %v", cls)
	}
	if _, cls := pp.ClipRect(geom.BBox{MinX: 21, MinY: 1, MaxX: 25, MaxY: 2}); cls != Straddle {
		t.Fatalf("triangle straddle classified %v", cls)
	}
	st := pp.Stats()
	if st.FastInside != 1 || st.FastOutside != 1 || st.Sweeps() != 1 {
		t.Errorf("stats = %+v, want 1 inside / 1 outside / 1 sweep", st)
	}
	if st.BandClips != 1 || st.ConvexClips != 0 {
		t.Errorf("triangle straddle should take the oriented route, stats = %+v", st)
	}
	if pp.SnapEps() <= 0 || pp.Rule() != engine.EvenOdd {
		t.Errorf("accessor sanity: eps=%g rule=%v", pp.SnapEps(), pp.Rule())
	}
}

// TestEmptyAndDegenerateLayers: preparation of nothing classifies everything
// Outside and clips to nothing.
func TestEmptyAndDegenerateLayers(t *testing.T) {
	for _, src := range []geom.Polygon{nil, {}, {geom.Ring{{X: 0, Y: 0}, {X: 1, Y: 1}}}} {
		pp := Prepare(src, engine.EvenOdd)
		box := geom.BBox{MinX: 0, MinY: 0, MaxX: 5, MaxY: 5}
		if cls := pp.ClassifyRect(box); cls != Outside {
			t.Errorf("empty layer classified %v", cls)
		}
		if out, _ := pp.ClipRect(box); len(out) != 0 {
			t.Errorf("empty layer clipped to %v", out)
		}
	}
	// Negative rule on a CCW-only layer: empty canonical region.
	pp := Prepare(geom.Polygon{geom.Rect(0, 0, 4, 4)}, engine.Negative)
	if cls := pp.ClassifyRect(geom.BBox{MinX: 1, MinY: 1, MaxX: 2, MaxY: 2}); cls != Outside {
		t.Errorf("negative-empty layer classified %v", cls)
	}
}

// alignedLayer is the chaos tiles family's aligned layer: rectangles with
// even-integer corners in [0,16]^2 and a square with a flush hole, so
// windows on the even grid put ring edges along sides and ring corners on
// window corners.
func alignedLayer(rng *rand.Rand) geom.Polygon {
	var layer geom.Polygon
	for i := 0; i < 5; i++ {
		x0, y0 := float64(2*rng.Intn(6)), float64(2*rng.Intn(6))
		w, h := float64(2*(1+rng.Intn(3))), float64(2*(1+rng.Intn(3)))
		layer = append(layer, geom.Rect(x0, y0, x0+w, y0+h))
	}
	hole := geom.Rect(6, 6, 10, 10)
	hole.Reverse()
	return append(layer, geom.Rect(4, 4, 12, 12), hole)
}

// degenerateWindows builds windows from the canonical layer's own
// coordinates: spanned by two vertices (sides through both, corners on both
// when they are opposite), cornered on one vertex, a ring's bounding box,
// and sharing the line of an axis-parallel canonical edge as a side.
func degenerateWindows(rng *rand.Rand, canon geom.Polygon, n int) []geom.BBox {
	var verts []geom.Point
	var edges []geom.Segment
	for _, r := range canon {
		verts = append(verts, r...)
		for _, e := range r.Edges(nil) {
			if e.A.X == e.B.X || e.A.Y == e.B.Y {
				edges = append(edges, e)
			}
		}
	}
	var boxes []geom.BBox
	add := func(x0, y0, x1, y1 float64) {
		if x1 > x0 && y1 > y0 {
			boxes = append(boxes, geom.BBox{MinX: x0, MinY: y0, MaxX: x1, MaxY: y1})
		}
	}
	for len(boxes) < n {
		v, u := verts[rng.Intn(len(verts))], verts[rng.Intn(len(verts))]
		add(min(v.X, u.X), min(v.Y, u.Y), max(v.X, u.X), max(v.Y, u.Y))
		w, h := math.Abs(u.X-v.X), math.Abs(u.Y-v.Y)
		dx, dy := []float64{-w, 0}[rng.Intn(2)], []float64{-h, 0}[rng.Intn(2)]
		add(v.X+dx, v.Y+dy, v.X+dx+w, v.Y+dy+h)
		// A ring's own box, whose sides its extreme vertices touch from
		// inside, and that box pushed out past u on two sides.
		rb := canon[rng.Intn(len(canon))].BBox()
		add(rb.MinX, rb.MinY, rb.MaxX, rb.MaxY)
		add(min(rb.MinX, u.X), min(rb.MinY, u.Y), max(rb.MaxX, u.X), max(rb.MaxY, u.Y))
		if len(edges) == 0 {
			continue
		}
		// The edge's line as a side, the window reaching u on the other
		// axis and running past or short of the edge's ends.
		e := edges[rng.Intn(len(edges))]
		lox, hix := e.XSpan()
		loy, hiy := e.YSpan()
		if loy == hiy {
			add(min(lox, u.X), min(loy, u.Y), max(hix, u.X), max(loy, u.Y))
			add((lox+hix)/2, min(loy, u.Y), hix, max(loy, u.Y))
		} else {
			add(min(lox, u.X), min(loy, u.Y), max(lox, u.X), max(hiy, u.Y))
			add(min(lox, u.X), loy, max(lox, u.X), (loy+hiy)/2)
		}
	}
	return boxes
}

// TestClipRectDegenerateWindows cuts windows whose sides and corners lie on
// the layer's own vertices and edges: the contacts the oriented pass
// settles by its shrunk-window rule. Each clip must match the naive sweep,
// keep every ring a proper ring (3+ distinct vertices, nonzero area), be
// oriented canonically (its signed-area sum is its area), and never need
// the sweep rescue.
func TestClipRectDegenerateWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	layers := []struct {
		name string
		poly geom.Polygon
	}{
		{"random", randomLayer(rng, 3)},
		{"tiles", data.TileLayer(data.TileLayerOptions{Rings: 16, Seed: 3})},
		{"aligned", alignedLayer(rng)},
	}
	n := 48
	if testing.Short() {
		n = 12
	}
	for _, lc := range layers {
		for _, rule := range engine.Rules() {
			pp := Prepare(lc.poly, rule)
			if len(pp.Polygon()) == 0 {
				continue // Negative of a CCW-only layer
			}
			for i, box := range degenerateWindows(rng, pp.Polygon(), n) {
				name := fmt.Sprintf("%s/%s/win%d %+v", lc.name, rule, i, box)
				checkAgainstNaive(t, name, lc.poly, pp, box, rule)
				got, _ := pp.ClipRect(box)
				var signed float64
				for ri, r := range got {
					if len(r) < 3 || r.SignedArea() == 0 {
						t.Errorf("%s: ring %d is degenerate: %v", name, ri, r)
					}
					for j := range r {
						if r[j] == r[(j+1)%len(r)] {
							t.Errorf("%s: ring %d repeats vertex %v", name, ri, r[j])
						}
					}
					signed += r.SignedArea()
				}
				if d := math.Abs(signed - got.Area()); d > 1e-9*box.Width()*box.Height() {
					t.Errorf("%s: signed areas sum to %g, area %g: rings not canonically oriented", name, signed, got.Area())
				}
			}
			if st := pp.Stats(); st.Rescues != 0 {
				t.Errorf("%s/%s: %d windows rescued by the sweep", lc.name, rule, st.Rescues)
			}
		}
	}
}

// TestClipRectConvexRouteDistinctVertices clips a convex diamond to windows
// with a side or corner on its vertices: the oriented pass, the route a lone
// convex ring takes like any other, must return each ring without a
// repeated vertex, matching the naive sweep.
func TestClipRectConvexRouteDistinctVertices(t *testing.T) {
	diamond := geom.Polygon{{{X: 2, Y: 0}, {X: 4, Y: 2}, {X: 2, Y: 4}, {X: 0, Y: 2}}}
	pp := FromCanonical(diamond, engine.EvenOdd)
	box := geom.BBox{MinX: 1, MinY: 2, MaxX: 4, MaxY: 3}
	got, cls := pp.ClipRect(box)
	want := geom.Ring{{X: 1, Y: 2}, {X: 4, Y: 2}, {X: 3, Y: 3}, {X: 1, Y: 3}}
	if cls != Straddle || len(got) != 1 || !sameRing(got[0], want) {
		t.Fatalf("%+v: got %v (%v), want %v up to its start vertex", box, got, cls, want)
	}
	for i, box := range []geom.BBox{
		{MinX: 2, MinY: 0, MaxX: 5, MaxY: 2},
		{MinX: 1, MinY: 1, MaxX: 4, MaxY: 2},
		{MinX: 0, MinY: 1, MaxX: 3, MaxY: 2},
		{MinX: 2, MinY: 2, MaxX: 3, MaxY: 4},
		{MinX: -1, MinY: 2, MaxX: 3, MaxY: 3},
	} {
		name := fmt.Sprintf("window %d %+v", i, box)
		checkAgainstNaive(t, name, diamond, pp, box, engine.EvenOdd)
		got, _ := pp.ClipRect(box)
		for _, r := range got {
			for j := range r {
				if r[j] == r[(j+1)%len(r)] {
					t.Errorf("%s: ring %v repeats vertex %v", name, r, r[j])
				}
			}
		}
	}
	// checkAgainstNaive clips each window once more.
	if st := pp.Stats(); st.BandClips != 11 || st.ConvexClips != 0 || st.Rescues != 0 {
		t.Errorf("stats %+v: every clip should take the oriented pass", st)
	}
}

// sameRing reports whether b is ring a, perhaps from another start vertex.
func sameRing(a, b geom.Ring) bool {
	for k := range b {
		if slices.Equal(a, append(slices.Clone(b[k:]), b[:k]...)) {
			return true
		}
	}
	return false
}

// TestClipRectVertexJustInside pins the crossings that round together: a
// ring vertex one ulp inside the window's left side, between two shallow
// edges whose crossings with that side both round to (x0, 0.5). As the tip
// of a hole the vertex leaves the window covered; as the tip of an outer
// ring it adds nothing.
func TestClipRectVertexJustInside(t *testing.T) {
	d := math.Ldexp(1, -20)
	p, v, q := geom.Point{X: 0, Y: 0.5 - d}, geom.Point{X: 1, Y: 0.5}, geom.Point{X: 0, Y: 0.5 + d}
	box := geom.BBox{MinX: math.Nextafter(1, 0), MinY: 0, MaxX: 2, MaxY: 1}
	for _, tc := range []struct {
		name  string
		layer geom.Polygon
		area  float64
	}{
		{"hole tip", geom.Polygon{geom.Rect(-10, -10, 10, 10), {p, q, v}}, box.Width() * box.Height()},
		{"outer tip", geom.Polygon{{p, v, q}}, 0},
	} {
		pp := FromCanonical(tc.layer, engine.EvenOdd)
		got, cls := pp.ClipRect(box)
		if cls != Straddle || pp.Stats().Rescues != 0 {
			t.Fatalf("%s: classified %v, stats %+v", tc.name, cls, pp.Stats())
		}
		if a := got.Area(); math.Abs(a-tc.area) > 1e-12 {
			t.Errorf("%s: area %g, want %g: %v", tc.name, a, tc.area, got)
		}
	}
}

// starLayer is a canonical layer of side*side 16-vertex stars, 10 apart,
// and the window straddling the right tip of the star nearest the centre.
func starLayer(side int) (geom.Polygon, geom.BBox) {
	var p geom.Polygon
	for i := 0; i < side*side; i++ {
		c := geom.Point{X: float64(i%side)*10 + 5, Y: float64(i/side)*10 + 5}
		p = append(p, geom.Star(c, 4, 2, 8, 0))
	}
	c := float64(side/2)*10 + 5
	return p, geom.BBox{MinX: c + 2.5, MinY: c - 1, MaxX: c + 5, MaxY: c + 1}
}

// bigRegular is one canonical convex ring of n vertices and a window
// straddling its boundary that holds four of them.
func bigRegular(n int) (geom.Polygon, geom.BBox) {
	const r = 1000.0
	s := 2 * math.Pi * r / float64(n)
	return geom.Polygon{geom.RegularPolygon(geom.Point{}, r, n, 0)},
		geom.BBox{MinX: r - s, MinY: -1.5 * s, MaxX: r + s, MaxY: 2.5 * s}
}

// bigStar is one canonical star ring of n vertices, its spikes as deep as
// two vertex spacings so every size looks alike up close, and a window
// straddling its boundary that holds about four vertices.
func bigStar(n int) (geom.Polygon, geom.BBox) {
	const r = 1000.0
	s := 2 * math.Pi * r / float64(n)
	mid := r - s
	return geom.Polygon{geom.Star(geom.Point{}, r, r-2*s, n/2, 0)},
		geom.BBox{MinX: mid - 2*s, MinY: -2 * s, MaxX: mid + 2*s, MaxY: 2 * s}
}

// TestClipRectIsOutputSensitive holds a straddling tile's cost to the
// boundary inside it: clipping one window of a big layer must cost within
// 4x of the same window of a small one, as a 64x larger star ring, as a 64x
// larger convex ring and as a 256x larger ring count. Each layer is
// canonical already, so FromCanonical skips the sweep; each time is the best
// of 5 batches of clips.
func TestClipRectIsOutputSensitive(t *testing.T) {
	vSmall, vBig, rSmall, rBig := 1<<10, 1<<16, 8, 128
	if testing.Short() {
		vBig, rBig = 1<<14, 64
	}
	// sample times one batch of clips of the window; small and big layers
	// alternate, so a burst of load on the host hits both.
	sample := func(pp *Prepared, box geom.BBox) time.Duration {
		const reps = 200
		start := time.Now()
		for j := 0; j < reps; j++ {
			pp.ClipRect(box)
		}
		return time.Since(start) / reps
	}
	cost := func(small, big func() (geom.Polygon, geom.BBox)) (time.Duration, time.Duration) {
		var pps [2]*Prepared
		var boxes [2]geom.BBox
		for i, mk := range [2]func() (geom.Polygon, geom.BBox){small, big} {
			layer, box := mk()
			pps[i], boxes[i] = FromCanonical(layer, engine.EvenOdd), box
			if _, cls := pps[i].ClipRect(box); cls != Straddle {
				t.Fatalf("window %+v classified %v, want straddle", box, cls)
			}
		}
		best := [2]time.Duration{math.MaxInt64, math.MaxInt64}
		for i := 0; i < 5; i++ {
			for k := range pps {
				best[k] = min(best[k], sample(pps[k], boxes[k]))
			}
		}
		return best[0], best[1]
	}
	cases := []struct {
		name       string
		small, big func() (geom.Polygon, geom.BBox)
	}{
		{fmt.Sprintf("ring of %d vs %d vertices", vBig, vSmall),
			func() (geom.Polygon, geom.BBox) { return bigStar(vSmall) },
			func() (geom.Polygon, geom.BBox) { return bigStar(vBig) }},
		{fmt.Sprintf("convex ring of %d vs %d vertices", vBig, vSmall),
			func() (geom.Polygon, geom.BBox) { return bigRegular(vSmall) },
			func() (geom.Polygon, geom.BBox) { return bigRegular(vBig) }},
		{fmt.Sprintf("%d vs %d rings", rBig*rBig, rSmall*rSmall),
			func() (geom.Polygon, geom.BBox) { return starLayer(rSmall) },
			func() (geom.Polygon, geom.BBox) { return starLayer(rBig) }},
	}
	for _, tc := range cases {
		small, big := cost(tc.small, tc.big)
		ratio := float64(big) / float64(small)
		t.Logf("%s: %v vs %v per clip (%.2fx)", tc.name, big, small, ratio)
		if ratio > 4 {
			t.Errorf("%s: the big layer's tile costs %.1fx the small one's (%v vs %v), want within 4x", tc.name, ratio, big, small)
		}
	}
}

// BenchmarkClipRect times ClipRect on straddling windows: every straddling
// zoom-7 tile of the seed-1 32-ring tile layer, and one tile on a
// 2^16-vertex ring.
func BenchmarkClipRect(b *testing.B) {
	b.Run("tiles-z7", func(b *testing.B) {
		layer := data.TileLayer(data.TileLayerOptions{Rings: 32, Seed: 1})
		pp := Prepare(layer, engine.EvenOdd)
		lb := layer.BBox()
		side := max(lb.Width(), lb.Height()) * (1 + 1.0/1024)
		x0, y0 := (lb.MinX+lb.MaxX-side)/2, (lb.MinY+lb.MaxY-side)/2
		const n = 128
		var boxes []geom.BBox
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				box := geom.BBox{
					MinX: x0 + side*float64(x)/n, MinY: y0 + side*float64(y)/n,
					MaxX: x0 + side*float64(x+1)/n, MaxY: y0 + side*float64(y+1)/n,
				}
				if pp.ClassifyRect(box) == Straddle {
					boxes = append(boxes, box)
				}
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pp.ClipRect(boxes[i%len(boxes)])
		}
	})
	b.Run("ring-2^16", func(b *testing.B) {
		layer, box := bigStar(1 << 16)
		pp := FromCanonical(layer, engine.EvenOdd)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pp.ClipRect(box)
		}
	})
}

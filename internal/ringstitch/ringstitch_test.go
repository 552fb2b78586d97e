package ringstitch

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"polyclip/internal/geom"
)

func edgesOfCCWRect(minX, minY, maxX, maxY float64) []Edge {
	r := geom.Rect(minX, minY, maxX, maxY)
	var out []Edge
	for i := range r {
		j := (i + 1) % len(r)
		out = append(out, Edge{r[i], r[j]})
	}
	return out
}

func TestStitchSingleSquare(t *testing.T) {
	got := Stitch(edgesOfCCWRect(0, 0, 2, 2))
	if len(got) != 1 {
		t.Fatalf("rings = %d", len(got))
	}
	if a := got[0].SignedArea(); math.Abs(a-4) > 1e-12 {
		t.Errorf("signed area = %v, want 4 (CCW)", a)
	}
}

func TestStitchShuffledEdges(t *testing.T) {
	es := edgesOfCCWRect(0, 0, 2, 2)
	es[0], es[2] = es[2], es[0]
	es[1], es[3] = es[3], es[1]
	got := Stitch(es)
	if len(got) != 1 || math.Abs(got[0].Area()-4) > 1e-12 {
		t.Fatalf("got %v", got)
	}
}

func TestStitchTwoDisjointSquares(t *testing.T) {
	es := append(edgesOfCCWRect(0, 0, 1, 1), edgesOfCCWRect(5, 5, 6, 6)...)
	got := Stitch(es)
	if len(got) != 2 {
		t.Fatalf("rings = %d", len(got))
	}
}

func TestStitchSquareWithHole(t *testing.T) {
	es := edgesOfCCWRect(0, 0, 10, 10)
	// Hole: clockwise square (interior of region is OUTSIDE the hole, i.e.
	// on the left when walking CW).
	hole := geom.Rect(3, 3, 7, 7)
	for i := len(hole) - 1; i >= 0; i-- {
		j := (i + len(hole) - 1) % len(hole)
		es = append(es, Edge{hole[i], hole[j]})
	}
	got := Stitch(es)
	if len(got) != 2 {
		t.Fatalf("rings = %d", len(got))
	}
	var sum float64
	for _, r := range got {
		sum += r.SignedArea()
	}
	if math.Abs(sum-84) > 1e-12 {
		t.Errorf("net area = %v, want 84", sum)
	}
}

func TestStitchCornerTouchingSquares(t *testing.T) {
	// Two CCW squares sharing one corner: the clockwise-first rule must
	// keep them as two simple rings, not one figure-eight.
	es := append(edgesOfCCWRect(0, 0, 2, 2), edgesOfCCWRect(2, 2, 4, 4)...)
	got := Stitch(es)
	if len(got) != 2 {
		t.Fatalf("rings = %d, want 2", len(got))
	}
	for _, r := range got {
		if math.Abs(r.Area()-4) > 1e-12 {
			t.Errorf("ring area = %v, want 4", r.Area())
		}
		if len(r) != 4 {
			t.Errorf("ring has %d vertices, want 4", len(r))
		}
	}
}

func TestStitchDropsOpenChains(t *testing.T) {
	es := []Edge{
		{geom.Point{X: 0, Y: 0}, geom.Point{X: 1, Y: 0}},
		{geom.Point{X: 1, Y: 0}, geom.Point{X: 1, Y: 1}},
		// not closed
	}
	if got := Stitch(es); got != nil {
		t.Errorf("open chain produced rings: %v", got)
	}
}

func TestStitchEmpty(t *testing.T) {
	if got := Stitch(nil); got != nil {
		t.Errorf("Stitch(nil) = %v", got)
	}
}

func TestCancelOpposites(t *testing.T) {
	a := geom.Point{X: 0, Y: 0}
	b := geom.Point{X: 1, Y: 0}
	c := geom.Point{X: 2, Y: 0}
	es := []Edge{{a, b}, {b, a}, {b, c}}
	got := CancelOpposites(es)
	if len(got) != 1 || got[0] != (Edge{b, c}) {
		t.Errorf("got %v", got)
	}
}

func TestCancelOppositesKeepsMultiplicity(t *testing.T) {
	a := geom.Point{X: 0, Y: 0}
	b := geom.Point{X: 1, Y: 0}
	es := []Edge{{a, b}, {a, b}, {b, a}}
	got := CancelOpposites(es)
	if len(got) != 1 || got[0] != (Edge{a, b}) {
		t.Errorf("got %v", got)
	}
}

func TestCancelThenStitchSeam(t *testing.T) {
	// Two stacked rectangles whose shared horizontal seam cancels, fusing
	// them into one ring of area 8.
	es := append(edgesOfCCWRect(0, 0, 2, 2), edgesOfCCWRect(0, 2, 2, 4)...)
	got := Stitch(CancelOpposites(es))
	if len(got) != 1 {
		t.Fatalf("rings = %d, want 1", len(got))
	}
	if math.Abs(got[0].Area()-8) > 1e-12 {
		t.Errorf("area = %v, want 8", got[0].Area())
	}
}

func TestDropSlivers(t *testing.T) {
	p := geom.Polygon{
		geom.Rect(0, 0, 10, 10),
		geom.Rect(0, 0, 1e-13, 1e-13),
	}
	got := DropSlivers(p)
	if len(got) != 1 {
		t.Errorf("rings = %d, want 1", len(got))
	}
	if DropSlivers(nil) != nil {
		t.Error("DropSlivers(nil) should be nil")
	}
}

func TestNetCaps(t *testing.T) {
	// Line y=0: a bottom cap over [0,4] and a top cap over [1,3] net to
	// [0,1] and [3,4] toward +x. Line y=2: two top caps over [0,2] and a
	// bottom cap over [1,2] net to -2 over [0,1], two edges toward -x,
	// and to -1 over [1,2].
	caps := []Cap{
		{Y: 0, X0: 0, X1: 4, Dir: +1},
		{Y: 0, X0: 1, X1: 3, Dir: -1},
		{Y: 2, X0: 0, X1: 2, Dir: -1},
		{Y: 2, X0: 0, X1: 2, Dir: -1},
		{Y: 2, X0: 1, X1: 2, Dir: +1},
	}
	pt := func(x, y float64) geom.Point { return geom.Point{X: x, Y: y} }
	want := []Edge{
		{pt(0, 0), pt(1, 0)},
		{pt(3, 0), pt(4, 0)},
		{pt(1, 2), pt(0, 2)},
		{pt(1, 2), pt(0, 2)},
		{pt(2, 2), pt(1, 2)},
	}
	got := NetCaps(nil, caps)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("NetCaps = %v, want %v", got, want)
	}
}

func TestNetCapsLineTakesLastY(t *testing.T) {
	negz := math.Copysign(0, -1)
	got := NetCaps(nil, []Cap{{Y: 0, X0: 0, X1: 1, Dir: +1}, {Y: negz, X0: 1, X1: 2, Dir: +1}})
	if len(got) != 2 {
		t.Fatalf("NetCaps = %v, want 2 edges", got)
	}
	for _, e := range got {
		if !math.Signbit(e.From.Y) || !math.Signbit(e.To.Y) {
			t.Errorf("edge %v: line drawn at +0, want the last cap's -0", e)
		}
	}
}

// stitchMap and cancelOppositesMap are Stitch and CancelOpposites built on
// hash maps, kept as reference implementations: the sort-based kernel must
// return exactly what they return, down to ring start vertices and the
// sign of zero coordinates. A map keeps the first key inserted while only
// reads follow (Stitch's vertex ids) and takes the latest key on every
// update (CancelOpposites' counts).
func stitchMap(edges []Edge) geom.Polygon {
	if len(edges) == 0 {
		return nil
	}
	type vkey struct{ x, y float64 }
	vid := make(map[vkey]int32, len(edges))
	var verts []geom.Point
	idOf := func(p geom.Point) int32 {
		k := vkey{p.X, p.Y}
		if id, ok := vid[k]; ok {
			return id
		}
		id := int32(len(verts))
		vid[k] = id
		verts = append(verts, p)
		return id
	}

	type outEdge struct {
		to    int32
		angle float64
		used  bool
	}
	froms := make([]int32, len(edges))
	tos := make([]int32, len(edges))
	for i, e := range edges {
		froms[i] = idOf(e.From)
		tos[i] = idOf(e.To)
	}
	adj := make([][]outEdge, len(verts))
	for i := range edges {
		f, t := froms[i], tos[i]
		ang := math.Atan2(verts[t].Y-verts[f].Y, verts[t].X-verts[f].X)
		adj[f] = append(adj[f], outEdge{to: t, angle: ang})
	}

	var result geom.Polygon
	for i := range edges {
		f := froms[i]
		start := -1
		for k := range adj[f] {
			if !adj[f][k].used && adj[f][k].to == tos[i] {
				start = k
				break
			}
		}
		if start < 0 {
			continue
		}

		ring := geom.Ring{verts[f]}
		cur, curEdge := f, start
		for {
			e := &adj[cur][curEdge]
			e.used = true
			nxt := e.to
			if nxt == f {
				break
			}
			ring = append(ring, verts[nxt])
			rev := math.Atan2(verts[cur].Y-verts[nxt].Y, verts[cur].X-verts[nxt].X)
			bestK, bestOff := -1, math.Inf(1)
			for k := range adj[nxt] {
				c := &adj[nxt][k]
				if c.used {
					continue
				}
				off := math.Mod(rev-c.angle, 2*math.Pi)
				if off <= 0 {
					off += 2 * math.Pi
				}
				if off < bestOff {
					bestOff, bestK = off, k
				}
			}
			if bestK < 0 {
				ring = nil
				break
			}
			cur, curEdge = nxt, bestK
		}
		if len(ring) >= 3 {
			result = append(result, ring)
		}
	}
	return DropSlivers(result)
}

func cancelOppositesMap(edges []Edge) []Edge {
	type key struct{ ax, ay, bx, by float64 }
	net := make(map[key]int, len(edges))
	for _, e := range edges {
		a, b := e.From, e.To
		flip := false
		if b.Less(a) {
			a, b = b, a
			flip = true
		}
		k := key{a.X, a.Y, b.X, b.Y}
		if flip {
			net[k]--
		} else {
			net[k]++
		}
	}
	out := make([]Edge, 0, len(net))
	for k, n := range net {
		a := geom.Point{X: k.ax, Y: k.ay}
		b := geom.Point{X: k.bx, Y: k.by}
		for ; n > 0; n-- {
			out = append(out, Edge{a, b})
		}
		for ; n < 0; n++ {
			out = append(out, Edge{b, a})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From.Less(out[j].From)
		}
		return out[i].To.Less(out[j].To)
	})
	return out
}

// bits renders points with their exact bit patterns, so -0 and +0 differ.
func bits(pts ...geom.Point) string {
	s := ""
	for _, p := range pts {
		s += fmt.Sprintf("(%x %x)", math.Float64bits(p.X), math.Float64bits(p.Y))
	}
	return s
}

func polyBits(p geom.Polygon) string {
	s := fmt.Sprintf("%d rings", len(p))
	for _, r := range p {
		s += " [" + bits(r...) + "]"
	}
	return s
}

func edgeBits(es []Edge) string {
	s := fmt.Sprintf("%d edges", len(es))
	for _, e := range es {
		s += " " + bits(e.From, e.To)
	}
	return s
}

// randomEdges draws a directed edge multiset on a small grid whose axes hold
// both -0 and +0: closed walks that share vertices (three or more edges
// meet at many vertices), plus duplicated, reversed and stray edges.
func randomEdges(rng *rand.Rand) []Edge {
	coords := []float64{math.Copysign(0, -1), 0, 1, 2, 3, 4}[:3+rng.Intn(4)]
	pt := func() geom.Point {
		return geom.Point{X: coords[rng.Intn(len(coords))], Y: coords[rng.Intn(len(coords))]}
	}
	var es []Edge
	for w := rng.Intn(4); w >= 0; w-- {
		first := pt()
		prev := first
		for i := 2 + rng.Intn(7); i > 0; i-- {
			p := pt()
			es = append(es, Edge{prev, p})
			prev = p
		}
		es = append(es, Edge{prev, first})
	}
	for k := rng.Intn(8); k > 0; k-- {
		e := es[rng.Intn(len(es))]
		switch rng.Intn(3) {
		case 0:
			es = append(es, e)
		case 1:
			es = append(es, Edge{e.To, e.From})
		default:
			es = append(es, Edge{pt(), pt()})
		}
	}
	rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
	return es
}

func TestKernelMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for c := 0; c < 3000; c++ {
		es := randomEdges(rng)
		if got, want := polyBits(Stitch(es)), polyBits(stitchMap(es)); got != want {
			t.Fatalf("case %d: Stitch(%s)\n got %s\nwant %s", c, edgeBits(es), got, want)
		}
		net := CancelOpposites(es)
		if got, want := edgeBits(net), edgeBits(cancelOppositesMap(es)); got != want {
			t.Fatalf("case %d: CancelOpposites(%s)\n got %s\nwant %s", c, edgeBits(es), got, want)
		}
		if got, want := polyBits(Stitch(net)), polyBits(stitchMap(net)); got != want {
			t.Fatalf("case %d: Stitch(CancelOpposites(%s))\n got %s\nwant %s", c, edgeBits(es), got, want)
		}
	}
}

// checkerEdges returns the counter-clockwise edges of the dark squares of
// an nx×ny unit checkerboard: rings meeting at shared corners, as an
// even-odd clip emits them.
func checkerEdges(nx, ny int) []Edge {
	var es []Edge
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			if (i+j)%2 == 0 {
				es = append(es, edgesOfCCWRect(float64(i), float64(j), float64(i+1), float64(j+1))...)
			}
		}
	}
	return es
}

// gridEdges returns the counter-clockwise edges of every square of an
// nx×ny unit grid: each interior seam is traversed once in each direction,
// as the sides of stacked trapezoids are.
func gridEdges(nx, ny int) []Edge {
	var es []Edge
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			es = append(es, edgesOfCCWRect(float64(i), float64(j), float64(i+1), float64(j+1))...)
		}
	}
	return es
}

// stageSizes are the benchmark and allocation-pin inputs, as nx×ny
// checkerboards and nx×ny/2 grids: 16 edges, the size of a pair clip's
// output, and 4096 edges, a layer-scale output.
var stageSizes = []struct {
	name   string
	nx, ny int
}{{"edges=16", 2, 4}, {"edges=4096", 32, 64}}

func TestStitchAllocs(t *testing.T) {
	// Seven fixed allocations (the endpoint sort, vertex ids, vertices, CSR
	// offsets and edges, the ring buffer, ring areas) plus the ring list's
	// growth: 4 rings grow it three times, 1024 rings eleven times.
	for i, want := range []float64{10, 18} {
		es := checkerEdges(stageSizes[i].nx, stageSizes[i].ny)
		if got := testing.AllocsPerRun(20, func() { Stitch(es) }); got != want {
			t.Errorf("%s: Stitch allocates %v objects/op, pinned at %v", stageSizes[i].name, got, want)
		}
	}
}

func TestCancelOppositesAllocs(t *testing.T) {
	for _, sz := range stageSizes {
		es := gridEdges(sz.nx, sz.ny/2)
		if got := testing.AllocsPerRun(20, func() { CancelOpposites(es) }); got != 2 {
			t.Errorf("%s: CancelOpposites allocates %v objects/op, pinned at 2 (the sort keys and the output)", sz.name, got)
		}
	}
}

func BenchmarkStitch(b *testing.B) {
	for _, sz := range stageSizes {
		es := checkerEdges(sz.nx, sz.ny)
		b.Run(sz.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Stitch(es)
			}
		})
	}
}

func BenchmarkCancelOpposites(b *testing.B) {
	for _, sz := range stageSizes {
		es := gridEdges(sz.nx, sz.ny/2)
		b.Run(sz.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				CancelOpposites(es)
			}
		})
	}
}

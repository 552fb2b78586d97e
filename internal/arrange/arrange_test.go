package arrange

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"polyclip/internal/data"
	"polyclip/internal/geom"
	"polyclip/internal/isect"
	"polyclip/internal/ringstitch"
)

func rect(x0, y0, x1, y1 float64) geom.Ring {
	return geom.Ring{{X: x0, Y: y0}, {X: x1, Y: y0}, {X: x1, Y: y1}, {X: x0, Y: y1}}
}

func bowtie(cx, cy, w float64) geom.Ring {
	return geom.Ring{
		{X: cx - w, Y: cy - w}, {X: cx + w, Y: cy + w},
		{X: cx + w, Y: cy - w}, {X: cx - w, Y: cy + w},
	}
}

// pentagram returns the {5/2} star polygon on a circle of radius r.
func pentagram(cx, cy, r float64) geom.Ring {
	ring := make(geom.Ring, 0, 5)
	for i := 0; i < 5; i++ {
		a := math.Pi/2 + 2*math.Pi*float64(i*2%5)/5
		ring = append(ring, geom.Point{X: cx + r*math.Cos(a), Y: cy + r*math.Sin(a)})
	}
	return ring
}

// pentagramArea is the even-odd measure of a {5/2} pentagram with
// circumradius R: the five tips only — the decagon outline (5·R·r·sin36°,
// alternating outer radius R and inner-pentagon radius r = R·cos72°/cos36°)
// minus the inner pentagon ((5/2)·r²·sin72°), which even-odd excludes
// because the chords wind around it twice.
func pentagramArea(r float64) float64 {
	ri := r * math.Cos(2*math.Pi/5) / math.Cos(math.Pi/5)
	return 5*r*ri*math.Sin(math.Pi/5) - (5.0/2)*ri*ri*math.Sin(2*math.Pi/5)
}

func TestResolveFastPathLeavesSimpleInputAlone(t *testing.T) {
	p := geom.Polygon{rect(0, 0, 4, 4)}
	got, _ := ResolvePair(p, nil)
	if len(got) != 1 || &got[0][0] != &p[0][0] {
		t.Fatalf("simple polygon should be returned unchanged, got %v", got)
	}
}

func TestResolvePairFastPathSharedVertices(t *testing.T) {
	// Checkerboard cells touch only at shared exact vertices: nothing to
	// split, nothing to re-extract.
	a := geom.Polygon{rect(0, 0, 1, 1), rect(1, 1, 2, 2)}
	b := geom.Polygon{rect(1, 0, 2, 1), rect(0, 1, 1, 2)}
	ra, rb := ResolvePair(a, b)
	if &ra[0][0] != &a[0][0] || &rb[0][0] != &b[0][0] {
		t.Fatalf("vertex-touching operands should be returned unchanged")
	}
}

func TestResolveBowtie(t *testing.T) {
	p := geom.Polygon{bowtie(0, 0, 1)}
	got, _ := ResolvePair(p, nil)
	// The even-odd region of a bowtie is its two lobe triangles, each of
	// area ½·2·1 = 1.
	if a := got.Area(); math.Abs(a-2) > 1e-9 {
		t.Errorf("bowtie even-odd area = %v, want 2", a)
	}
	if len(got) != 2 {
		t.Errorf("bowtie resolves to %d rings, want 2", len(got))
	}
	for ri, r := range got {
		if !r.IsCCW() {
			t.Errorf("ring %d not CCW: %v", ri, r)
		}
	}
}

func TestResolvePentagram(t *testing.T) {
	p := geom.Polygon{pentagram(0, 0, 10)}
	got, _ := ResolvePair(p, nil)
	if a, want := got.Area(), pentagramArea(10); math.Abs(a-want) > 1e-6*want {
		t.Errorf("pentagram even-odd area = %v, want %v", a, want)
	}
	// Five tip triangles; adjacent tips share an inner-pentagon vertex but
	// no area, and the interior-left stitch walk separates them there.
	if len(got) != 5 {
		t.Errorf("pentagram resolves to %d rings, want 5", len(got))
	}
}

func TestResolveDuplicatedRingCancels(t *testing.T) {
	// The same ring twice: every boundary edge has even multiplicity, so
	// the even-odd region is empty.
	r := rect(0, 0, 3, 3)
	p := geom.Polygon{r, r.Clone()}
	if got, _ := ResolvePair(p, nil); len(got) != 0 {
		t.Errorf("doubled ring should resolve to empty, got %v", got)
	}
}

func TestResolveAdjacentRectsShareEdge(t *testing.T) {
	// Two rectangles of one operand sharing the full edge x=1: the shared
	// vertical edge appears twice, cancels, and the region re-extracts as
	// the single fused rectangle.
	p := geom.Polygon{rect(0, 0, 1, 1), rect(1, 0, 2, 1)}
	got, _ := ResolvePair(p, nil)
	if a := got.Area(); math.Abs(a-2) > 1e-9 {
		t.Errorf("fused area = %v, want 2", a)
	}
	if len(got) != 1 {
		t.Errorf("fused region has %d rings, want 1", len(got))
	}
}

func TestResolvePairSplitsCrossings(t *testing.T) {
	a := geom.Polygon{rect(0, 0, 4, 4)}
	b := geom.Polygon{rect(2, 2, 6, 6)}
	ra, rb := ResolvePair(a, b)
	// The operands cross at (2,4) and (4,2): each ring gains both points.
	for _, want := range []geom.Point{{X: 2, Y: 4}, {X: 4, Y: 2}} {
		for name, p := range map[string]geom.Polygon{"a": ra, "b": rb} {
			found := false
			for _, v := range p[0] {
				if v == want {
					found = true
				}
			}
			if !found {
				t.Errorf("resolved %s is missing crossing vertex %v: %v", name, want, p)
			}
		}
	}
	// Areas are unchanged by splitting.
	if aa := ra.Area(); math.Abs(aa-16) > 1e-9 {
		t.Errorf("resolved a area = %v, want 16", aa)
	}
	// No two edges of the joint arrangement intersect anywhere but at
	// shared exact endpoints anymore.
	assertResolved(t, ra, rb)
}

func TestResolveSelfIntersectionsGone(t *testing.T) {
	for name, p := range map[string]geom.Polygon{
		"bowtie":    {bowtie(1, 2, 3)},
		"pentagram": {pentagram(0, 0, 7)},
	} {
		got, _ := ResolvePair(p, nil)
		assertResolved(t, got)
		for ri, r := range got {
			if len(r) < 3 {
				t.Errorf("%s: ring %d has %d vertices", name, ri, len(r))
			}
		}
	}
}

// assertResolved fails if any two edges of the given polygons intersect
// anywhere other than a shared exact endpoint.
func assertResolved(t *testing.T, ps ...geom.Polygon) {
	t.Helper()
	var segs []geom.Segment
	for _, p := range ps {
		segs = append(segs, p.Edges()...)
	}
	for _, pr := range isect.BruteForcePairs(segs) {
		si, sj := segs[pr.I], segs[pr.J]
		kind, p0, p1 := geom.SegIntersection(si, sj)
		switch kind {
		case geom.Overlapping:
			t.Errorf("edges %v and %v still overlap (%v..%v)", si, sj, p0, p1)
		case geom.Crossing:
			sharedI := p0 == si.A || p0 == si.B
			sharedJ := p0 == sj.A || p0 == sj.B
			if !sharedI || !sharedJ {
				t.Errorf("edges %v and %v still cross at %v (not a shared endpoint)", si, sj, p0)
			}
		}
	}
}

func TestResolveHugeAndTinyScale(t *testing.T) {
	// The weld grid derives from geom.RelEps of the data extent, so
	// resolution behaves identically at any coordinate scale.
	for _, s := range []float64{1e100, 1, 1e-100} {
		p := geom.Polygon{bowtie(0, 0, s)}
		got, _ := ResolvePair(p, nil)
		want := 2 * s * s
		if a := got.Area(); math.Abs(a-want) > 1e-9*want {
			t.Errorf("scale %g: area = %v, want %v", s, a, want)
		}
		if len(got) != 2 {
			t.Errorf("scale %g: %d rings, want 2", s, len(got))
		}
	}
}

func TestResolvePairExtremeAspectSliver(t *testing.T) {
	// Fuzz-found: a sliver spanning y up to 1e12 at width 1e-10 beside a
	// unit triangle. The shared weld grid derives from the joint extent
	// (eps = 1 here), which flattens the sliver onto the line x = 0; the
	// collapsed ring must be dropped, not left as coincident vertical edges
	// that break the sweep's parity walk downstream.
	tri := geom.Polygon{{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}}}
	sliver := geom.Polygon{{{X: 0, Y: 0}, {X: 0, Y: 10}, {X: 1e-10, Y: 1e12}}}
	ra, rb := ResolvePair(tri, sliver)
	if a := ra.Area(); math.Abs(a-0.5) > 1e-9 {
		t.Errorf("triangle area after resolution = %v, want 0.5", a)
	}
	if len(rb) != 0 {
		t.Errorf("collapsed sliver should be dropped, got %v", rb)
	}
	assertResolved(t, ra, rb)
}

func TestResolveDegenerateInputs(t *testing.T) {
	if got, _ := ResolvePair(nil, nil); got != nil {
		t.Errorf("ResolvePair(nil, nil) = %v", got)
	}
	// Sub-3-vertex rings and zero-length edges pass through untouched.
	p := geom.Polygon{{{X: 0, Y: 0}, {X: 1, Y: 1}}}
	if got, _ := ResolvePair(p, nil); len(got) != 1 {
		t.Errorf("degenerate ring not passed through: %v", got)
	}
	a, b := ResolvePair(geom.Polygon{rect(0, 0, 1, 1)}, nil)
	if len(a) != 1 || b != nil {
		t.Errorf("ResolvePair with empty operand changed inputs: %v %v", a, b)
	}
}

// TestResolvePairEstimateCountsMeetingPairs holds ResolvePairEstimate's
// count to the paper's k: the number of distinct edge pairs of the operands'
// edge soup that meet, as BruteForcePairs finds them. Each pair is counted
// once even where the grid bins both edges in several shared cells.
func TestResolvePairEstimateCountsMeetingPairs(t *testing.T) {
	ia, ib := data.InterleavedPair(1001, 512)
	sa, sb := data.SelfIntersectingPair(1003, 101)
	la, lb := data.SelfIntersectingPair(1004, 401)
	for _, c := range []struct {
		name string
		a, b geom.Polygon
	}{
		{"InterleavedPair(1001, 512)", ia, ib},
		{"SelfIntersectingPair(1003, 101)", sa, sb},
		{"SelfIntersectingPair(1004, 401)", la, lb},
	} {
		segs := appendEdges(appendEdges(nil, c.a), c.b)
		want := len(isect.BruteForcePairs(segs))
		if _, _, got := ResolvePairEstimate(c.a, c.b); got != want {
			t.Errorf("%s: count %d, want the %d meeting pairs", c.name, got, want)
		}
	}
}

// TestResolvePairPentagramAllocs pins the allocations of re-extracting a
// self-crossing operand: the resolve and stitch buffers plus a fixed set of
// classification-sweep buffers (event ys, schedule, schedule header, entry
// scratch and horizontal prefix counts). No labelling step may reach
// geom.Orient's big.Rat fallback, which allocates on every evaluation.
func TestResolvePairPentagramAllocs(t *testing.T) {
	p := geom.Polygon{pentagram(0, 0, 10)}
	if got := testing.AllocsPerRun(50, func() { ResolvePair(p, nil) }); got != 25 {
		t.Errorf("ResolvePair(pentagram) allocates %v objects/op, pinned at 25", got)
	}
}

// TestExtractEvenOddMatchesRayParity holds the sweep-labelled re-extraction
// to extractEvenOddRay, the exact ray-parity labeller, bit for bit: every
// output coordinate is compared by math.Float64bits, so a change in which
// copy of a coincident edge represents its run (they can differ in the sign
// of a zero) shows even where areas and WKT cannot. The inputs are resolved
// edge sets, each operand's rebuilt rings before extraction: the pentagram,
// the self-intersecting star pairs, and seeded random pairs of one to three
// rings of 3 to 14 vertices, half on a power-of-two-scaled integer grid
// (exact coincidences: shared and collinear edges, T-vertices, horizontals,
// zeros of either sign) and half at decimal scales from 1e-6 to 1e9.
func TestExtractEvenOddMatchesRayParity(t *testing.T) {
	checked, boundary := 0, 0
	check := func(name string, a, b geom.Polygon) {
		t.Helper()
		ra, rb, _ := resolve(a, b, true)
		for oi, p := range [2]geom.Polygon{ra, rb} {
			got, want := extractEvenOdd(p), extractEvenOddRay(p.Edges())
			checked++
			boundary += want.NumVertices()
			if !sameBits(got, want) {
				t.Fatalf("%s operand %d: sweep labelling gives %v, ray parity %v", name, oi, got, want)
			}
		}
	}
	check("pentagram", geom.Polygon{pentagram(0, 0, 10)}, nil)
	for seed := int64(1); seed <= 10; seed++ {
		for _, n := range []int{5, 11, 101} {
			a, b := data.SelfIntersectingPair(seed, n)
			check(fmt.Sprintf("SelfIntersectingPair(%d, %d)", seed, n), a, b)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		grid := i%2 == 0
		s := math.Pow(10, float64(rng.Intn(16)-6))
		if grid {
			s = math.Ldexp(1, rng.Intn(51)-20)
		}
		coord := func() float64 {
			if !grid {
				return s * (8*rng.Float64() - 4)
			}
			v := s * float64(rng.Intn(9)-4)
			if v == 0 && rng.Intn(2) == 0 {
				v = math.Copysign(0, -1) // coincident copies differ in a zero's sign
			}
			return v
		}
		operand := func() geom.Polygon {
			p := make(geom.Polygon, 1+rng.Intn(3))
			for ri := range p {
				p[ri] = make(geom.Ring, 3+rng.Intn(12))
				for vi := range p[ri] {
					p[ri][vi] = geom.Point{X: coord(), Y: coord()}
				}
			}
			return p
		}
		a := operand()
		check(fmt.Sprintf("random pair %d (scale %g)", i, s), a, operand())
	}
	t.Logf("%d operands re-extracted, %d boundary vertices", checked, boundary)
}

// sameBits reports whether a and b have the same rings with bitwise-equal
// coordinates.
func sameBits(a, b geom.Polygon) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j, p := range a[i] {
			q := b[i][j]
			if math.Float64bits(p.X) != math.Float64bits(q.X) || math.Float64bits(p.Y) != math.Float64bits(q.Y) {
				return false
			}
		}
	}
	return true
}

// extractEvenOddRay is the exact oracle for extractEvenOdd: the same
// coincident-edge cancellation, with each boundary edge labelled by a ray
// test against every other boundary edge, O(E²). It recovers the simple
// boundary of the even-odd region covered by an edge multiset that has
// already been split at all intersections and welded: edges meet only at
// shared exact vertices. Coincident edges with even multiplicity separate
// regions of equal parity and vanish; odd groups are boundary once. Each
// boundary edge is directed with the region interior on its left — decided
// by exact ray parity with the robust orientation predicate, not by any
// epsilon — and the directed soup is stitched into counter-clockwise outer
// rings and clockwise holes.
func extractEvenOddRay(edges []geom.Segment) geom.Polygon {
	// Each edge, turned to run from its lesser endpoint, with its position:
	// sorted, coincident edges form runs, and the odd runs are the boundary,
	// already in (A, B) order — the classification and stitch order.
	// Coincident edges can differ in the sign of a zero coordinate; a run
	// is written as its last occurrence.
	type occ struct {
		s geom.Segment
		i int32
	}
	occs := make([]occ, 0, len(edges))
	for i, s := range edges {
		if s.A == s.B {
			continue
		}
		if s.B.Less(s.A) {
			s.A, s.B = s.B, s.A
		}
		occs = append(occs, occ{s, int32(i)})
	}
	slices.SortFunc(occs, func(a, b occ) int {
		if c := a.s.A.Compare(b.s.A); c != 0 {
			return c
		}
		if c := a.s.B.Compare(b.s.B); c != 0 {
			return c
		}
		return cmp.Compare(a.i, b.i)
	})
	bd := make([]geom.Segment, 0, len(occs))
	for lo := 0; lo < len(occs); {
		hi := lo + 1
		for hi < len(occs) && occs[hi].s == occs[lo].s {
			hi++
		}
		if (hi-lo)%2 == 1 {
			bd = append(bd, occs[hi-1].s)
		}
		lo = hi
	}

	// Both rays skip e itself. Its midpoint lies on it — exactly, since
	// welded vertices sit on a power-of-two grid — so it would contribute
	// nothing, after Orient's exact fallback spent a big.Rat evaluation to
	// say Collinear.
	dir := make([]ringstitch.Edge, 0, len(bd))
	for ei, e := range bd {
		m := e.Midpoint()
		if e.A.X == e.B.X {
			// Vertical edge: parity of boundary edges strictly left of m
			// along the leftward horizontal ray. Half-open in y so a vertex
			// exactly at m.Y counts once; Orient is Collinear for edges
			// through m, which contribute nothing.
			parity := false
			for fi, f := range bd {
				if fi != ei && (f.A.Y > m.Y) != (f.B.Y > m.Y) {
					lo, hi := f.A, f.B
					if lo.Y > hi.Y {
						lo, hi = hi, lo
					}
					if geom.Orient(lo, hi, m) == geom.Clockwise {
						parity = !parity
					}
				}
			}
			lo, hi := e.A, e.B
			if lo.Y > hi.Y {
				lo, hi = hi, lo
			}
			if parity {
				// Interior on the left: boundary walks upward.
				dir = append(dir, ringstitch.Edge{From: lo, To: hi})
			} else {
				dir = append(dir, ringstitch.Edge{From: hi, To: lo})
			}
		} else {
			// Non-vertical edge: parity of boundary edges strictly below m
			// along the downward vertical ray.
			parity := false
			for fi, f := range bd {
				if fi != ei && (f.A.X > m.X) != (f.B.X > m.X) {
					lo, hi := f.A, f.B
					if lo.X > hi.X {
						lo, hi = hi, lo
					}
					if geom.Orient(lo, hi, m) == geom.CounterClockwise {
						parity = !parity
					}
				}
			}
			lo, hi := e.A, e.B
			if lo.X > hi.X {
				lo, hi = hi, lo
			}
			if parity {
				// Interior below: boundary walks toward -x.
				dir = append(dir, ringstitch.Edge{From: hi, To: lo})
			} else {
				dir = append(dir, ringstitch.Edge{From: lo, To: hi})
			}
		}
	}
	return ringstitch.Stitch(dir)
}

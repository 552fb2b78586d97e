package arrange

import (
	"math"
	"slices"
	"testing"

	"polyclip/internal/data"
	"polyclip/internal/geom"
	"polyclip/internal/isect"
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
	// The crossing at the origin becomes a vertex both crossing edges
	// share; the ring keeps its direction, so it passes the origin twice.
	want := geom.Ring{{X: -1, Y: -1}, {X: 0, Y: 0}, {X: 1, Y: 1}, {X: 1, Y: -1}, {X: 0, Y: 0}, {X: -1, Y: 1}}
	if len(got) != 1 || !slices.Equal(got[0], want) {
		t.Errorf("bowtie resolves to %v, want %v", got, want)
	}
	assertResolved(t, got)
}

func TestResolvePentagram(t *testing.T) {
	p := geom.Polygon{pentagram(0, 0, 10)}
	got, _ := ResolvePair(p, nil)
	// Each of the five chords crosses two others: the ring gains the five
	// inner-pentagon vertices, each passed twice.
	if len(got) != 1 || len(got[0]) != 15 {
		t.Fatalf("pentagram resolves to %v, want one ring of 15 vertices", got)
	}
	seen := map[geom.Point]int{}
	for _, v := range got[0] {
		seen[v]++
	}
	if len(seen) != 10 {
		t.Errorf("pentagram ring has %d distinct vertices, want 5 tips and 5 crossings passed twice", len(seen))
	}
	assertResolved(t, got)
}

func TestResolveDoubledRingUnchanged(t *testing.T) {
	// The same ring twice: its copies coincide exactly and cut nothing, so
	// the operand comes back as given, unwelded. The engines fold the
	// coincident copies, which cancel under EvenOdd.
	r := rect(0, 0, 3, 3)
	p := geom.Polygon{r, r.Clone()}
	got, _ := ResolvePair(p, nil)
	if len(got) != 2 || &got[0][0] != &p[0][0] || &got[1][0] != &p[1][0] {
		t.Errorf("doubled ring should come back unchanged, got %v", got)
	}
	assertResolved(t, got)
}

func TestResolveAdjacentRectsShareEdge(t *testing.T) {
	// Two rectangles of one operand sharing the full edge x=1: the shared
	// edge is an exact coincident copy, which cuts nothing, so the operand
	// comes back unchanged.
	p := geom.Polygon{rect(0, 0, 1, 1), rect(1, 0, 2, 1)}
	got, _ := ResolvePair(p, nil)
	if len(got) != 2 || &got[0][0] != &p[0][0] || &got[1][0] != &p[1][0] {
		t.Errorf("rectangles sharing an edge should come back unchanged, got %v", got)
	}
	assertResolved(t, got)
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

// assertResolved fails unless the given polygons' edges meet as the
// package doc promises: crossing only at a shared exact endpoint, and
// overlapping only as exact coincident copies.
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
			if si != sj && si != (geom.Segment{A: sj.B, B: sj.A}) {
				t.Errorf("edges %v and %v still overlap (%v..%v)", si, sj, p0, p1)
			}
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
	// resolution behaves identically at any coordinate scale: the bowtie's
	// crossing becomes the shared vertex at the origin, which the ring
	// passes twice. The corners weld onto the power-of-two grid.
	for _, s := range []float64{1e100, 1, 1e-100} {
		p := geom.Polygon{bowtie(0, 0, s)}
		got, _ := ResolvePair(p, nil)
		if len(got) != 1 || len(got[0]) != 6 || got[0][1] != (geom.Point{}) || got[0][4] != (geom.Point{}) {
			t.Errorf("scale %g: resolves to %v, want the origin at vertices 1 and 4 of 6", s, got)
		}
		assertResolved(t, got)
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

// TestResolvePairPentagramAllocs pins the allocations of resolving a
// self-crossing operand: the edge soup, the cut list (sized one cut per
// edge, it grows once to hold the pentagram's ten), the rebuilt rings'
// point buffer and the ring slice. Five edges take no candidate grid. No
// step may reach geom.Orient's big.Rat fallback, which allocates on every
// evaluation.
func TestResolvePairPentagramAllocs(t *testing.T) {
	p := geom.Polygon{pentagram(0, 0, 10)}
	if got := testing.AllocsPerRun(50, func() { ResolvePair(p, nil) }); got != 5 {
		t.Errorf("ResolvePair(pentagram) allocates %v objects/op, pinned at 5", got)
	}
}

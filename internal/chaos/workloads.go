// Adversarial workload generation. Every generator is driven by an explicit
// *rand.Rand, so a chaos run is a pure function of its seed: the same seed
// always replays the same cases, which is what makes a chaos failure
// debuggable after the fact.
//
// The families are chosen from where clippers actually break (Foster &
// Overfelt's degeneracy catalogue, the paper's §III-C): near-collinear
// geometry that stresses orientation predicates, shared vertices and edges
// that produce degenerate intersections, zero-area spikes that must be
// repaired away, coordinate magnitudes at both ends of the float64 range,
// and self-intersecting rings whose even-odd measure differs from their
// shoelace area.
package chaos

import (
	"math"
	"math/rand"
	"strings"

	"polyclip"
)

// workload is one generated chaos case: an operand pair, the operation to
// apply, and the family label used in reports. Every family cross-checks
// every engine — the arrangement pre-resolution in internal/arrange brought
// the sequential Vatti sweep into the same domain as the overlay engine, so
// no family needs scoping anymore.
type workload struct {
	name string
	a, b polyclip.Polygon
	op   polyclip.Op
}

// tiles reports whether w is a tiles-family case: a layer and a pyramid
// window rather than an operand pair.
func (w workload) tiles() bool { return strings.HasPrefix(w.name, "tiles-") }

// generator is one workload family: a report label, the family group it
// belongs to (selectable via Config.Family), and the generation function.
type generator struct {
	name   string
	family string
	gen    func(rng *rand.Rand) (a, b polyclip.Polygon)
}

// Family groups. "adversarial" is the original stress catalogue;
// "degenerate" is the Foster–Overfelt exact-degeneracy taxonomy, where
// every coincidence is constructed bit-exactly rather than approached by
// jitter; "tiles" cuts whole layers into z/x/y pyramids and holds the
// tiling to its partition invariant (see tiles.go).
const (
	FamilyAdversarial = "adversarial"
	FamilyDegenerate  = "degenerate"
	FamilyTiles       = "tiles"
)

// generators is the cycle of workload families. Order matters only for
// reproducibility: case i uses generators[i % len] with a case-specific
// rng, so new families must be appended, never inserted.
var generators = []generator{
	{"random-star", FamilyAdversarial, genRandomStars},
	{"near-collinear-fan", FamilyAdversarial, genNearCollinearFans},
	{"shared-vertex-grid", FamilyAdversarial, genSharedVertexGrids},
	{"spike-ring", FamilyAdversarial, genSpikeRings},
	{"scale-huge", FamilyAdversarial, genScaleHuge},
	{"scale-tiny", FamilyAdversarial, genScaleTiny},
	{"self-touching", FamilyAdversarial, genSelfTouching},
	{"coincident-edge", FamilyDegenerate, genCoincidentEdges},
	{"collinear-overlap", FamilyDegenerate, genCollinearOverlaps},
	{"shared-boundary", FamilyDegenerate, genSharedBoundaries},
	{"t-vertex", FamilyDegenerate, genTVertices},
	{"coincident-ring", FamilyDegenerate, genCoincidentRings},
	{"tiles-rings", FamilyTiles, genTilesRings},
	{"tiles-winding", FamilyTiles, genTilesWinding},
	{"tiles-aligned", FamilyTiles, genTilesAligned},
}

// Families returns the selectable family-group names, for flag validation.
func Families() []string { return []string{FamilyAdversarial, FamilyDegenerate, FamilyTiles} }

// generatorsFor returns the generator cycle for a family filter: the empty
// string selects every family, a group name selects that group, and an
// exact generator name selects the single family. Unknown filters return
// nil, which Run reports as a configuration failure.
func generatorsFor(family string) []generator {
	if family == "" {
		return generators
	}
	var out []generator
	for _, g := range generators {
		if g.family == family || g.name == family {
			out = append(out, g)
		}
	}
	return out
}

// buildWorkload deterministically produces case i from the run seed over
// the full generator cycle.
func buildWorkload(seed int64, i int) workload {
	return buildWorkloadFrom(seed, i, generators)
}

// buildWorkloadFrom produces case i from a (possibly filtered) generator
// cycle. The rng stream depends only on (seed, i), not on the filter, so a
// failing filtered case is replayable in isolation.
func buildWorkloadFrom(seed int64, i int, gens []generator) workload {
	// A large odd multiplier decorrelates per-case streams while keeping
	// them a pure function of (seed, i).
	rng := rand.New(rand.NewSource(seed + int64(i)*1_000_003))
	g := gens[i%len(gens)]
	a, b := g.gen(rng)
	return workload{
		name: g.name,
		a:    a,
		b:    b,
		op:   polyclip.Op(i / len(gens) % 4),
	}
}

// star builds an n-point star ring alternating between two radii. With
// rIn close to rOut it degenerates to a jittered circle; with rIn larger
// than rOut the ring self-intersects.
func star(cx, cy, rOut, rIn float64, n int, phase float64) polyclip.Ring {
	ring := make(polyclip.Ring, 0, 2*n)
	for i := 0; i < 2*n; i++ {
		r := rOut
		if i%2 == 1 {
			r = rIn
		}
		a := phase + math.Pi*float64(i)/float64(n)
		ring = append(ring, polyclip.Point{X: cx + r*math.Cos(a), Y: cy + r*math.Sin(a)})
	}
	return ring
}

// genRandomStars is the clean baseline family: two overlapping star
// polygons with moderate vertex counts and benign coordinates.
func genRandomStars(rng *rand.Rand) (polyclip.Polygon, polyclip.Polygon) {
	n := 8 + rng.Intn(40)
	a := polyclip.Polygon{star(0, 0, 10, 4+6*rng.Float64(), n, rng.Float64())}
	b := polyclip.Polygon{star(3*rng.Float64(), 3*rng.Float64(), 8, 3+5*rng.Float64(), n/2+3, rng.Float64())}
	return a, b
}

// genNearCollinearFans builds slivers whose boundary vertices are almost,
// but not exactly, collinear — the classic orientation-predicate stress.
func genNearCollinearFans(rng *rand.Rand) (polyclip.Polygon, polyclip.Polygon) {
	fan := func(y0, h float64, up bool) polyclip.Ring {
		n := 10 + rng.Intn(30)
		ring := make(polyclip.Ring, 0, n+2)
		for i := 0; i <= n; i++ {
			x := 20 * float64(i) / float64(n)
			// Jitter of ~1e-9 of the span: three orders above the 1e-12
			// relative snap grid, far below anything visible.
			ring = append(ring, polyclip.Point{X: x, Y: y0 + 2e-8*(rng.Float64()-0.5)})
		}
		apex := polyclip.Point{X: 10 + 4*(rng.Float64()-0.5), Y: y0 + h}
		if !up {
			apex.Y = y0 - h
		}
		return append(ring, apex)
	}
	a := polyclip.Polygon{fan(0, 8, true)}
	b := polyclip.Polygon{fan(4, 8, false)}
	return a, b
}

// genSharedVertexGrids builds checkerboards of cells that touch only at
// shared corners — every interior vertex is a degenerate (vertex-on-vertex)
// intersection between the operands.
func genSharedVertexGrids(rng *rand.Rand) (polyclip.Polygon, polyclip.Polygon) {
	k := 3 + rng.Intn(3)
	cell := func(i, j int) polyclip.Ring {
		x, y := float64(i), float64(j)
		return polyclip.Ring{{X: x, Y: y}, {X: x + 1, Y: y}, {X: x + 1, Y: y + 1}, {X: x, Y: y + 1}}
	}
	var a, b polyclip.Polygon
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if (i+j)%2 == 0 {
				a = append(a, cell(i, j))
			} else {
				b = append(b, cell(i, j))
			}
		}
	}
	// Shift B by half a cell half of the time, so edges (not just corners)
	// of the two operands coincide.
	if rng.Intn(2) == 0 {
		for ri := range b {
			for vi := range b[ri] {
				b[ri][vi].X += 0.5
			}
		}
	}
	return a, b
}

// genSpikeRings builds squares with zero-area spikes and duplicated
// vertices — exactly what guard.Repair exists to clean.
func genSpikeRings(rng *rand.Rand) (polyclip.Polygon, polyclip.Polygon) {
	spiky := func(x0, y0, w float64) polyclip.Ring {
		base := polyclip.Ring{
			{X: x0, Y: y0}, {X: x0 + w, Y: y0}, {X: x0 + w, Y: y0 + w}, {X: x0, Y: y0 + w},
		}
		ring := make(polyclip.Ring, 0, 3*len(base))
		for _, pt := range base {
			ring = append(ring, pt)
			switch rng.Intn(3) {
			case 0: // duplicate vertex
				ring = append(ring, pt)
			case 1: // zero-area spike out and back
				sp := polyclip.Point{X: pt.X + w*rng.Float64(), Y: pt.Y - w*rng.Float64()}
				ring = append(ring, sp, pt)
			}
		}
		return ring
	}
	a := polyclip.Polygon{spiky(0, 0, 6)}
	b := polyclip.Polygon{spiky(2+2*rng.Float64(), 2+2*rng.Float64(), 6)}
	return a, b
}

// genScaleHuge replays the star family at coordinate magnitudes near the
// validation ceiling, where naive arithmetic overflows.
func genScaleHuge(rng *rand.Rand) (polyclip.Polygon, polyclip.Polygon) {
	a, b := genRandomStars(rng)
	// 2^332 ≈ 8.7e99: a power of two keeps the scaling itself exact.
	return scalePoly(a, math.Ldexp(1, 332)), scalePoly(b, math.Ldexp(1, 332))
}

// genScaleTiny replays the star family at subnormal-adjacent magnitudes.
func genScaleTiny(rng *rand.Rand) (polyclip.Polygon, polyclip.Polygon) {
	a, b := genRandomStars(rng)
	return scalePoly(a, math.Ldexp(1, -40)), scalePoly(b, math.Ldexp(1, -40))
}

// genSelfTouching builds self-intersecting rings (polygrams and bowties)
// whose even-odd measure differs from their shoelace area.
func genSelfTouching(rng *rand.Rand) (polyclip.Polygon, polyclip.Polygon) {
	bowtie := func(cx, cy, w float64) polyclip.Ring {
		return polyclip.Ring{
			{X: cx - w, Y: cy - w}, {X: cx + w, Y: cy + w},
			{X: cx + w, Y: cy - w}, {X: cx - w, Y: cy + w},
		}
	}
	// A {n/k} polygram (pentagram and friends): connecting every k-th
	// point of a circle self-intersects everywhere and winds the center
	// region k times, so shoelace and even-odd measure diverge wildly.
	polygram := func(cx, cy, r float64, n, k int, phase float64) polyclip.Ring {
		ring := make(polyclip.Ring, 0, n)
		for i := 0; i < n; i++ {
			a := phase + 2*math.Pi*float64(i*k%n)/float64(n)
			ring = append(ring, polyclip.Point{X: cx + r*math.Cos(a), Y: cy + r*math.Sin(a)})
		}
		return ring
	}
	n := 5 + 2*rng.Intn(4) // odd n in 5..11, coprime with k=2
	a := polyclip.Polygon{polygram(0, 0, 8+4*rng.Float64(), n, 2, rng.Float64())}
	b := polyclip.Polygon{bowtie(2*rng.Float64(), 2*rng.Float64(), 6)}
	return a, b
}

// ---------------------------------------------------------------------------
// Foster–Overfelt degenerate taxonomy. Unlike the adversarial families,
// which approach degeneracy by jitter, these construct it exactly: every
// coordinate is a small integer (or half-integer), so shared edges are
// bit-identical between the operands and vertex-on-edge incidences are
// exact. These are the inputs where clippers classically emit doubled
// boundaries, drop slivers, or disagree between engines.

// rectRing builds an axis-aligned rectangle, CCW by default, CW when rev.
func rectRing(x0, y0, x1, y1 float64, rev bool) polyclip.Ring {
	r := polyclip.Ring{{X: x0, Y: y0}, {X: x1, Y: y0}, {X: x1, Y: y1}, {X: x0, Y: y1}}
	if rev {
		for i, j := 0, len(r)-1; i < j; i, j = i+1, j-1 {
			r[i], r[j] = r[j], r[i]
		}
	}
	return r
}

// genCoincidentEdges builds operand pairs sharing one full edge
// bit-exactly: two rectangles abutting along a common vertical edge, with
// the shared edge's endpoints sometimes identical and sometimes staggered
// so each operand's corner lies strictly inside the other's edge.
func genCoincidentEdges(rng *rand.Rand) (polyclip.Polygon, polyclip.Polygon) {
	w1 := float64(2 + rng.Intn(6))
	w2 := float64(2 + rng.Intn(6))
	h := float64(3 + rng.Intn(6))
	// Stagger B's vertical extent by an integer amount half the time: the
	// shared boundary then partially overlaps instead of coinciding end to
	// end, which forces a T-junction at each stagger point.
	dy := float64(rng.Intn(int(h)))
	if rng.Intn(2) == 0 {
		dy = 0
	}
	a := polyclip.Polygon{rectRing(0, 0, w1, h, false)}
	b := polyclip.Polygon{rectRing(w1, dy, w1+w2, dy+h, rng.Intn(2) == 0)}
	return a, b
}

// genCollinearOverlaps builds partially overlapping collinear runs: both
// operands have an edge on the line y=0, overlapping over a strict
// sub-interval, with the operands on the same side half the time (overlap
// region is interior to both) and on opposite sides otherwise (the shared
// run is boundary-only contact).
func genCollinearOverlaps(rng *rand.Rand) (polyclip.Polygon, polyclip.Polygon) {
	aw := float64(4 + rng.Intn(8))
	shift := float64(1 + rng.Intn(int(aw)-1)) // strict partial overlap
	bw := float64(4 + rng.Intn(8))
	ah := float64(2 + rng.Intn(5))
	bh := float64(2 + rng.Intn(5))
	a := polyclip.Polygon{rectRing(0, 0, aw, ah, false)}
	var b polyclip.Polygon
	if rng.Intn(2) == 0 {
		b = polyclip.Polygon{rectRing(shift, 0, shift+bw, bh, false)}
	} else {
		b = polyclip.Polygon{rectRing(shift, -bh, shift+bw, 0, rng.Intn(2) == 0)}
	}
	return a, b
}

// genSharedBoundaries builds operands sharing stretches of boundary while
// one contains the other: B is a flush sub-rectangle of A, coinciding with
// A along one, two, or three of its sides. A\B must open a hole (or an
// L-region) bounded partly by edges both operands own.
func genSharedBoundaries(rng *rand.Rand) (polyclip.Polygon, polyclip.Polygon) {
	w := float64(6 + rng.Intn(6))
	h := float64(6 + rng.Intn(6))
	a := polyclip.Polygon{rectRing(0, 0, w, h, false)}
	var b polyclip.Polygon
	switch rng.Intn(3) {
	case 0: // flush strip along the left side: shares three of A's edges
		b = polyclip.Polygon{rectRing(0, 0, float64(1+rng.Intn(int(w)-1)), h, false)}
	case 1: // flush corner cell: shares two of A's edges
		b = polyclip.Polygon{rectRing(0, 0, float64(1+rng.Intn(int(w)-1)), float64(1+rng.Intn(int(h)-1)), rng.Intn(2) == 0)}
	default: // flush along the bottom only
		b = polyclip.Polygon{rectRing(float64(1+rng.Intn(2)), 0, w-1, float64(1+rng.Intn(int(h)-1)), false)}
	}
	return a, b
}

// genTVertices builds exact T-junctions: B's vertices land in the strict
// interior of A's edges (never on A's corners), both as touch-only contact
// from outside and as a crossing whose entry point is a T-vertex.
func genTVertices(rng *rand.Rand) (polyclip.Polygon, polyclip.Polygon) {
	w := float64(8 + rng.Intn(4))
	h := float64(6 + rng.Intn(4))
	a := polyclip.Polygon{rectRing(0, 0, w, h, false)}
	ax := float64(2 + rng.Intn(int(w)-3)) // interior abscissa on A's bottom edge
	var b polyclip.Polygon
	switch rng.Intn(3) {
	case 0: // triangle apex touching A's bottom edge from below (contact only)
		b = polyclip.Polygon{{{X: ax, Y: 0}, {X: ax + 2, Y: -3}, {X: ax - 2, Y: -3}}}
	case 1: // diamond with its top vertex a T-vertex on A's bottom edge, body outside
		b = polyclip.Polygon{{{X: ax, Y: 0}, {X: ax - 2, Y: -2}, {X: ax, Y: -4}, {X: ax + 2, Y: -2}}}
	default: // rectangle straddling the edge with both its top corners on it
		b = polyclip.Polygon{rectRing(ax-1, -2, ax+1, 0, false)}
		// One extra collinear vertex subdividing B's top edge at ax: a
		// T-vertex within the coincident run itself.
		b = polyclip.Polygon{{
			{X: ax - 1, Y: -2}, {X: ax + 1, Y: -2}, {X: ax + 1, Y: 0}, {X: ax, Y: 0}, {X: ax - 1, Y: 0},
		}}
	}
	return a, b
}

// genCoincidentRings builds rings that coincide entirely: B repeats one of
// A's rings verbatim (sometimes reversed, flipping its winding sign), and
// half the time A itself carries a doubled ring whose even-odd content
// cancels while its nonzero content does not.
func genCoincidentRings(rng *rand.Rand) (polyclip.Polygon, polyclip.Polygon) {
	w := float64(4 + rng.Intn(6))
	outer := rectRing(0, 0, w+4, w+4, false)
	inner := rectRing(1, 1, 1+w, 1+w, false)
	a := polyclip.Polygon{outer}
	doubled := rng.Intn(2) == 0
	if doubled {
		// Doubled interior ring: even-odd sees outer minus square minus
		// nothing (the pair cancels), nonzero sees the full outer region.
		a = append(a, inner, append(polyclip.Ring(nil), inner...))
	}
	var b polyclip.Polygon
	switch rng.Intn(3) {
	case 0: // B is A's outer ring verbatim
		b = polyclip.Polygon{append(polyclip.Ring(nil), outer...)}
	case 1: // B is A's outer ring reversed (opposite winding)
		b = polyclip.Polygon{rectRing(0, 0, w+4, w+4, true)}
	default: // B repeats A's interior square ring verbatim
		if !doubled {
			a = append(a, inner)
		}
		b = polyclip.Polygon{append(polyclip.Ring(nil), inner...)}
	}
	return a, b
}

// scalePoly returns p with every coordinate multiplied by f.
func scalePoly(p polyclip.Polygon, f float64) polyclip.Polygon {
	out := make(polyclip.Polygon, len(p))
	for ri, r := range p {
		nr := make(polyclip.Ring, len(r))
		for vi, pt := range r {
			nr[vi] = polyclip.Point{X: pt.X * f, Y: pt.Y * f}
		}
		out[ri] = nr
	}
	return out
}

// translatePoly returns p with every vertex offset by (dx, dy).
func translatePoly(p polyclip.Polygon, dx, dy float64) polyclip.Polygon {
	out := make(polyclip.Polygon, len(p))
	for ri, r := range p {
		nr := make(polyclip.Ring, len(r))
		for vi, pt := range r {
			nr[vi] = polyclip.Point{X: pt.X + dx, Y: pt.Y + dy}
		}
		out[ri] = nr
	}
	return out
}

// dyadicExtent returns the power of two nearest the workload's linear
// extent — the translation/scaling unit that keeps float arithmetic exact
// for the invariance checks.
func dyadicExtent(a, b polyclip.Polygon) float64 {
	box := a.BBox().Union(b.BBox())
	m := math.Max(box.Width(), box.Height())
	if m <= 0 || math.IsInf(m, 0) || math.IsNaN(m) {
		return 1
	}
	return math.Ldexp(1, int(math.Round(math.Log2(m))))
}

// Package vatti implements the scanbeam plane-sweep clipping algorithm the
// paper parallelizes (Vatti 1992, the algorithm inside the GPC library the
// authors used for sequential clipping). The plane is swept bottom-to-top
// through scanbeams — the horizontal strips between consecutive event
// y-coordinates (edge endpoints and edge intersections, §III-B). Inside a
// scanbeam no two active edges cross, so the active edge list ordered by x
// alternates left/right bounds (Lemma 1); running even-odd parity over the
// list classifies each strip of the beam as inside or outside each input
// polygon (Lemmas 2–3), and the strips selected by the clipping operation
// are emitted as trapezoids. Adjacent beams' trapezoids are merged by
// cancelling the shared horizontal caps (the paper's virtual vertices k')
// and stitching the remaining boundary into rings (the paper's Step 4 /
// Fig. 6 merge).
//
// This is the sequential reference engine; package core parallelizes the
// per-beam work (Algorithm 1) and the slab decomposition (Algorithm 2).
package vatti

import (
	"cmp"
	"math"
	"slices"

	"polyclip/internal/arrange"
	"polyclip/internal/engine"
	"polyclip/internal/geom"
	"polyclip/internal/ringstitch"
	"polyclip/internal/scanbeam"
	"polyclip/internal/segtree"
)

// Op aliases the canonical operation type so all engines share one
// vocabulary (see internal/engine).
type Op = engine.Op

// Re-exported operations.
const (
	Intersection = engine.Intersection
	Union        = engine.Union
	Difference   = engine.Difference
	Xor          = engine.Xor
)

// Trapezoid aliases the canonical scanbeam-piece type (see internal/engine).
type Trapezoid = engine.Trapezoid

// Clip computes `subject op clip` with the sequential scanbeam sweep.
func Clip(subject, clip geom.Polygon, op Op) geom.Polygon {
	return Assemble(Trapezoids(subject, clip, op))
}

// ClipRule computes `subject op clip` under the given fill rule with the
// sequential scanbeam sweep.
func ClipRule(subject, clip geom.Polygon, op Op, rule engine.FillRule) geom.Polygon {
	return Assemble(TrapezoidsRule(subject, clip, op, rule))
}

// ClipRuleResolved is ClipRule for operands already put through the joint
// arrangement resolution for the rule (arrange.ResolvePairRule) — the
// engine.Options.PreResolved seam: the sweep runs directly on the given
// geometry.
func ClipRuleResolved(subject, clip geom.Polygon, op Op, rule engine.FillRule) geom.Polygon {
	return Assemble(trapezoidsRule(subject, clip, op, rule, true))
}

// Trapezoids computes the even-odd trapezoid decomposition of
// `subject op clip` — the raw per-scanbeam output of the sweep, before
// merging (GPC's tristrip analogue).
func Trapezoids(subject, clip geom.Polygon, op Op) []Trapezoid {
	return TrapezoidsRule(subject, clip, op, engine.EvenOdd)
}

// TrapezoidsRule is Trapezoids under an explicit fill rule: the sweep walks
// signed winding counts, so EvenOdd, NonZero, Positive and Negative all run
// through the same beam schedule.
//
// Horizontal input edges are dropped outright rather than perturbed: the
// winding of any scanline strictly inside a beam is unaffected by edges
// lying on beam boundaries, and the boundary pieces they contribute are
// regenerated exactly as trapezoid caps. This sidesteps the paper's §III-C
// perturbation without changing the result.
func TrapezoidsRule(subject, clip geom.Polygon, op Op, rule engine.FillRule) []Trapezoid {
	return trapezoidsRule(subject, clip, op, rule, false)
}

// trapezoidsRule is TrapezoidsRule with the joint resolution pass skipped
// when resolved promises the pair already went through it.
func trapezoidsRule(subject, clip geom.Polygon, op Op, rule engine.FillRule, resolved bool) []Trapezoid {
	subject = dropDegenerate(subject)
	clip = dropDegenerate(clip)

	// Pre-resolve the arrangement: every crossing or overlap between any
	// two edges — within an operand or across them — becomes a shared
	// welded vertex. Scheduling intersection ys on unsplit edges is not
	// enough: a near-collinear crossing's computed y can land in the wrong
	// beam, leaving two active edges crossed inside a beam and the emitted
	// trapezoid corners inverted. Under EvenOdd, self-intersecting operands
	// are additionally rewritten as simple even-odd rings; the winding rules
	// keep the split rings directed as given, because the signed-count walk
	// needs the original winding multiplicities.
	if !resolved {
		subject, clip = arrange.ResolvePairRule(subject, clip, rule)
	}

	edges := scanbeam.CollectEdges(subject, clip)
	if len(edges) == 0 {
		return nil
	}

	// Event schedule: endpoint ys suffice — after resolution no two edges
	// cross strictly inside any beam.
	ys := make([]float64, 0, 2*len(edges))
	for _, ae := range edges {
		ys = append(ys, ae.Seg.A.Y, ae.Seg.B.Y)
	}
	ys = segtree.Dedup(ys)
	if len(ys) < 2 {
		return nil
	}

	// Sweep schedule and per-beam winding walk both come from the shared
	// scanbeam substrate; the sweep is sequential, so one stack scratch
	// serves every beam with zero steady-state allocation.
	sweep := scanbeam.NewSweep(ys, len(edges), func(i int32) (float64, float64) {
		return edges[i].Seg.A.Y, edges[i].Seg.B.Y
	})
	edgeAt := func(id int32) (geom.Segment, uint8, int8) {
		e := &edges[id]
		return e.Seg, e.Owner, e.Delta
	}
	var scratch scanbeam.Scratch
	var tzs []Trapezoid
	sweep.ForEachBeam(func(_ int, yb, yt float64, active []int32) {
		if len(active) >= 2 {
			scanbeam.BeamTrapezoids(&scratch, active, yb, yt, op, rule, edgeAt, &tzs)
		}
	})
	return tzs
}

// Assemble merges a trapezoid decomposition into polygons: the shared
// horizontal caps between vertically adjacent trapezoids cancel (after
// splitting caps at each other's endpoints) and the remaining directed
// boundary stitches into rings. This is the merge phase of the paper's
// Algorithm 1 (Fig. 6), in its flat single-pass form.
func Assemble(tzs []Trapezoid) geom.Polygon {
	if len(tzs) == 0 {
		return nil
	}
	// Corners of adjacent trapezoids that represent the same arrangement
	// vertex can differ by an ulp when computed through different edges
	// (e.g. the two edges of a crossing). Cluster near-identical corners
	// onto shared representatives so the edge graph balances exactly.
	tzs = snapCorners(tzs)
	// Caps: +1 for bottom caps (interior above), -1 for top caps (interior
	// below).
	caps := make([]ringstitch.Cap, 0, 2*len(tzs))
	sides := make([]ringstitch.Edge, 0, 2*len(tzs))
	for _, tz := range tzs {
		if tz.R1.X > tz.L1.X {
			caps = append(caps, ringstitch.Cap{Y: tz.L1.Y, X0: tz.L1.X, X1: tz.R1.X, Dir: +1})
		}
		if tz.R2.X > tz.L2.X {
			caps = append(caps, ringstitch.Cap{Y: tz.L2.Y, X0: tz.L2.X, X1: tz.R2.X, Dir: -1})
		}
		// Right side up, left side down (interior on the left).
		if tz.R1 != tz.R2 {
			sides = append(sides, ringstitch.Edge{From: tz.R1, To: tz.R2})
		}
		if tz.L1 != tz.L2 {
			sides = append(sides, ringstitch.Edge{From: tz.L2, To: tz.L1})
		}
	}
	// Cap lines in ascending y, each line's caps in trapezoid order: the
	// emission order decides where Stitch starts each output ring.
	slices.SortStableFunc(caps, func(a, b ringstitch.Cap) int { return cmp.Compare(a.Y, b.Y) })
	return ringstitch.Stitch(ringstitch.NetCaps(ringstitch.CancelOpposites(sides), caps))
}

// snapCorners welds trapezoid corners that represent the same arrangement
// vertex by quantizing every coordinate onto the geom.GridStep grid of the
// data extent (geom.SnapPoint). Quantization is a pure function of the
// coordinate value, so — unlike greedy nearest-neighbour clustering, whose
// groups depend on scan order and can weld two corners while leaving a
// third, equally close one apart — corners that must cancel downstream
// always land on the identical representative.
func snapCorners(tzs []Trapezoid) []Trapezoid {
	box := geom.EmptyBBox()
	for _, tz := range tzs {
		box.Extend(tz.L1)
		box.Extend(tz.R1)
		box.Extend(tz.L2)
		box.Extend(tz.R2)
	}
	eps := geom.GridStep(box)
	if eps == 0 {
		return tzs
	}
	out := make([]Trapezoid, len(tzs))
	for i, tz := range tzs {
		out[i] = Trapezoid{
			L1: geom.SnapPoint(tz.L1, eps), R1: geom.SnapPoint(tz.R1, eps),
			L2: geom.SnapPoint(tz.L2, eps), R2: geom.SnapPoint(tz.R2, eps),
		}
	}
	return out
}

func dropDegenerate(p geom.Polygon) geom.Polygon {
	var out geom.Polygon
	for _, r := range p {
		if len(r) >= 3 {
			out = append(out, r)
		}
	}
	return out
}

// TriStrip is a triangle strip: vertices v0 v1 v2 ... where every
// consecutive triple forms a triangle (GPC's tristrip output format for
// rendering pipelines).
type TriStrip []geom.Point

// Area returns the total area of the strip's triangles.
func (ts TriStrip) Area() float64 {
	var sum float64
	for i := 0; i+2 < len(ts); i++ {
		sum += math.Abs(ts[i+1].Sub(ts[i]).Cross(ts[i+2].Sub(ts[i]))) / 2
	}
	return sum
}

// TriStrips converts a trapezoid decomposition into triangle strips, one
// per trapezoid: (L1, R1, L2, R2), degenerating naturally for triangles.
// Together with Trapezoids this reproduces GPC's polygon-to-tristrip
// conversion: vatti.TriStrips(vatti.Trapezoids(a, b, op)).
func TriStrips(tzs []Trapezoid) []TriStrip {
	out := make([]TriStrip, 0, len(tzs))
	for _, tz := range tzs {
		strip := TriStrip{tz.L1, tz.R1, tz.L2, tz.R2}
		// Drop duplicated corners (triangle cases).
		dedup := strip[:0]
		for _, p := range strip {
			found := false
			for _, q := range dedup {
				if p == q {
					found = true
				}
			}
			if !found {
				dedup = append(dedup, p)
			}
		}
		if len(dedup) >= 3 {
			out = append(out, dedup)
		}
	}
	return out
}

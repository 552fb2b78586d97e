// Package scanbeam is the shared substrate of every scanbeam-sweep engine:
// the per-beam edge-population buffers (pooled so parallel beam loops stay
// allocation-free), the x-ordering of active edges on a beam line, the
// winding-aware Lemma 1/3 walk that emits rule/op-selected trapezoids (signed
// winding counts generalize the paper's parity argument, so one walk serves
// EvenOdd, NonZero, Positive and Negative), the sequential bottom-to-top
// sweep driver (SweepStarts: edges fed in low-y order, the active list
// compacted once per beam), and the classification sweep (Classify) that
// labels each segment of a subdivided arrangement with the winding numbers
// on its left (Lemmas 1–3).
//
// Before this package existed the same machinery was re-implemented in
// internal/vatti (sequential sweep), internal/core (parallel Algorithm 1
// beams), internal/overlay (classification beams) and internal/bandclip
// (boundary-end pairing). Each engine now composes these primitives
// instead; Classify labels the sides of overlay's subdivided arrangement.
package scanbeam

import (
	"slices"
	"sync"

	"polyclip/internal/engine"
	"polyclip/internal/geom"
)

// Entry is one edge (or chain end) positioned on a scanbeam line: its x
// coordinate there, the caller's edge id, an owner tag (subject/clip
// polygon, or any other per-edge bit the walk needs), and the signed winding
// delta the edge contributes when crossed left to right (+1 for edges whose
// original ring direction is downward, -1 for upward; parity-only callers
// may leave it zero).
type Entry struct {
	X     float64
	ID    int32
	Owner uint8
	Delta int8
}

// Edge is one active edge of a sweep: the segment normalized upward
// (A.Y < B.Y), the operand tag (0 subject, 1 clip) and the winding delta of
// the original ring direction. It is the shared currency between
// CollectEdges, the sweeps and BeamTrapezoids.
type Edge struct {
	Seg   geom.Segment
	Owner uint8
	Delta int8
}

// CollectEdges flattens both operands into upward-oriented active edges
// carrying signed winding deltas. Horizontal edges are dropped outright
// rather than perturbed: the winding of any scanline strictly inside a beam
// is unaffected by edges lying on beam boundaries, and the boundary pieces
// they contribute are regenerated exactly as trapezoid caps (this sidesteps
// the paper's §III-C perturbation without changing the result). The delta
// follows the shared convention of engine.FillRule: an original edge
// directed downward (Hi to Lo) adds +1 when crossed left to right, an
// upward one adds -1, so a counter-clockwise ring winds its interior +1.
func CollectEdges(subject, clip geom.Polygon) []Edge {
	out := make([]Edge, 0, subject.NumVertices()+clip.NumVertices())
	add := func(p geom.Polygon, owner uint8) {
		for _, r := range p {
			n := len(r)
			if n < 3 {
				continue
			}
			for i := 0; i < n; i++ {
				j := i + 1
				if j == n {
					j = 0
				}
				a, b := r[i], r[j]
				if a.Y == b.Y {
					continue
				}
				delta := int8(-1) // ring walks upward through this edge
				if a.Y > b.Y {
					a, b = b, a
					delta = 1 // ring walks downward: +1 left-to-right
				}
				out = append(out, Edge{Seg: geom.Segment{A: a, B: b}, Owner: owner, Delta: delta})
			}
		}
	}
	add(subject, 0)
	add(clip, 1)
	return out
}

// Scratch is a reusable Entry buffer for per-beam ordering. The zero value
// is ready to use; sequential sweeps keep one on the stack, parallel beam
// loops draw pooled instances with Get/Put.
type Scratch struct {
	entries []Entry
}

// Entries returns a length-n entry slice backed by the scratch. When n
// exceeds its capacity the backing array grows to max(n, twice the
// capacity), so a sweep whose active list grows a few edges at a time
// reallocates O(log n) times, not at each new peak.
func (s *Scratch) Entries(n int) []Entry {
	if cap(s.entries) < n {
		s.entries = make([]Entry, max(n, 2*cap(s.entries)))
	}
	return s.entries[:n]
}

// Grow returns a zero-length entry slice with capacity at least n, for
// callers that append an unknown subset of candidates. Put the final slice
// back with Keep so the capacity is retained.
func (s *Scratch) Grow(n int) []Entry {
	if cap(s.entries) < n {
		s.entries = make([]Entry, 0, n)
		return s.entries
	}
	return s.entries[:0]
}

// Keep stores a slice obtained from Grow back into the scratch after
// appends may have reallocated it.
func (s *Scratch) Keep(entries []Entry) { s.entries = entries }

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// Get draws a Scratch from the shared pool.
func Get() *Scratch { return scratchPool.Get().(*Scratch) }

// Put returns a Scratch to the shared pool.
func Put(s *Scratch) { scratchPool.Put(s) }

// SortByX orders entries by X, allocation-free. Ties keep their relative
// order unspecified (equal-x entries compare equal), matching the sweep
// engines' historical comparator.
func SortByX(entries []Entry) {
	slices.SortFunc(entries, func(a, b Entry) int {
		switch {
		case a.X < b.X:
			return -1
		case a.X > b.X:
			return 1
		default:
			return 0
		}
	})
}

// Piece is one trapezoid of a beam together with the edges that bound it:
// Left and Right name the coincident group on each side by its smallest edge
// id. The ids let the merge join an edge's per-beam sides (vatti.Assemble);
// they stay inside the sweep, whose exported output is the bare Trapezoid.
type Piece struct {
	engine.Trapezoid
	Left, Right int32
}

// BeamTrapezoids orders the beam's active edges on the beam midline and
// appends the op-selected pieces of the beam [yb, yt] to out — the shared
// Step 3 of the sequential sweep and the parallel Algorithm 1: walk left to
// right accumulating each polygon's signed winding count (Lemma 1/3
// generalized from parity to winding) and emit one piece per maximal run
// where the operation holds under the fill rule. edge returns the
// (upward-oriented) segment, owner tag and winding delta of an id. For
// EvenOdd the ±1 deltas both flip parity; the winding rules read the
// accumulated sign.
//
// Each run of equal midline x is walked as one boundary: after arrange
// resolution, equal x on the midline means the edges coincide within the
// beam, so the walk applies all of the run's deltas before it evaluates the
// op, and names the run by its smallest edge id. This is the canonical
// shared-edge policy every engine inherits from this walk: no piece has zero
// width, and a coincident group bounds with the same id in every beam it
// spans, so the merge can join its per-beam sides.
func BeamTrapezoids(scratch *Scratch, ids []int32, yb, yt float64, op engine.Op,
	rule engine.FillRule, edge func(int32) (geom.Segment, uint8, int8), out *[]Piece) {
	ymid := (yb + yt) / 2
	order := scratch.Entries(len(ids))
	for i, id := range ids {
		seg, owner, delta := edge(id)
		order[i] = Entry{X: seg.XAtY(ymid), ID: id, Owner: owner, Delta: delta}
	}
	SortByX(order)

	var windSub, windClip int16
	inOp := false
	var left int32 = -1
	for i := 0; i < len(order); {
		x, id := order[i].X, order[i].ID
		for ; i < len(order) && order[i].X == x; i++ {
			e := order[i]
			if e.Owner == 0 {
				windSub += int16(e.Delta)
			} else {
				windClip += int16(e.Delta)
			}
			id = min(id, e.ID)
		}
		now := op.Eval(rule.Inside(windSub), rule.Inside(windClip))
		if now && !inOp {
			left = id
		} else if !now && inOp {
			l, _, _ := edge(left)
			r, _, _ := edge(id)
			p := Piece{Trapezoid: engine.Trapezoid{
				L1: geom.Point{X: l.XAtY(yb), Y: yb},
				R1: geom.Point{X: r.XAtY(yb), Y: yb},
				L2: geom.Point{X: l.XAtY(yt), Y: yt},
				R2: geom.Point{X: r.XAtY(yt), Y: yt},
			}, Left: left, Right: id}
			ClampCorners(&p.Trapezoid)
			*out = append(*out, p)
		}
		inOp = now
	}
}

// ClampCorners collapses an inverted corner pair — the left bound evaluating
// right of the right bound on a beam boundary — to its common midpoint.
// After arrangement resolution this can only come from weld roundoff, so the
// inversion is at most a few ulps wide; collapsing it keeps the cap
// intervals well-formed and, because the midpoint is an order-independent
// function of the two x values, the adjacent beam (which sees the same two
// edges in swapped order) computes the identical point and the shared caps
// still cancel exactly.
func ClampCorners(tz *engine.Trapezoid) {
	if tz.L1.X > tz.R1.X {
		m := (tz.L1.X + tz.R1.X) / 2
		tz.L1.X, tz.R1.X = m, m
	}
	if tz.L2.X > tz.R2.X {
		m := (tz.L2.X + tz.R2.X) / 2
		tz.L2.X, tz.R2.X = m, m
	}
}

package arrange

import (
	"math"

	"polyclip/internal/engine"
	"polyclip/internal/geom"
)

// EmptyResult reports that `a op b` is empty under rule, read off a pair
// that went through ResolvePair (and possibly a snap onto its grid), so
// that a sweep can return the empty result without running. It may miss an
// empty result; it never reports a non-empty one.
//
// Resolved edges meet only at shared vertices, so a ring split at its
// repeated vertices falls apart into loops that repeat no vertex, each of
// them simple: it winds +1 inside itself when it turns counter-clockwise,
// -1 when clockwise, and the operand's winding number is the sum over its
// loops. A loop turns as geom.Orient says at its lowest vertex, which is
// convex; a loop undecided there counts as both turns. An operand is empty
// under Positive when no loop turns counter-clockwise, and under Negative
// when none turns clockwise; EvenOdd and NonZero are never reported empty.
// The result is empty when op is Intersection and either operand is,
// Difference and the subject is, or Union or Xor and both are.
//
// A ring's signed area is the sum of its loops' areas, so a ring whose area
// has the rule's sign holds a loop of that turn: one shoelace pass, which
// allocates nothing, settles the usual non-empty operand.
func EmptyResult(a, b geom.Polygon, op engine.Op, rule engine.FillRule) bool {
	var want geom.Orientation
	switch rule {
	case engine.Positive:
		want = geom.CounterClockwise
	case engine.Negative:
		want = geom.Clockwise
	default:
		return false
	}
	var lt loopTable
	switch op {
	case engine.Intersection:
		return lt.empty(a, want) || lt.empty(b, want)
	case engine.Difference:
		return lt.empty(a, want)
	default:
		return lt.empty(a, want) && lt.empty(b, want)
	}
}

// loopTable numbers one ring's vertices at a time in an open-addressing
// table keyed on their coordinate bits (-0 as +0, the same vertex to every
// engine), and holds the path walked so far, which repeats no vertex.
type loopTable struct {
	slots []vertexSlot
	path  []pathVertex
	ring  uint32 // the ring being walked; a slot claimed for another is free
}

// vertexSlot is one vertex of the ring being walked and its index on the
// path, -1 when it is off the path.
type vertexSlot struct {
	x, y uint64
	ring uint32
	pos  int32
}

// pathVertex is one vertex on the path and its slot.
type pathVertex struct {
	p    geom.Point
	slot int32
}

// empty reports whether p has no loop that turns like want.
func (lt *loopTable) empty(p geom.Polygon, want geom.Orientation) bool {
	longest := 0
	for _, r := range p {
		if a := r.SignedArea(); a > 0 && want == geom.CounterClockwise || a < 0 && want == geom.Clockwise {
			return false
		}
		longest = max(longest, len(r))
	}
	if 2*longest > len(lt.slots) {
		size := 16
		for size < 2*longest {
			size *= 2
		}
		lt.slots, lt.path, lt.ring = make([]vertexSlot, size), make([]pathVertex, 0, longest+1), 0
	}
	for _, r := range p {
		if len(r) >= 3 && lt.ringTurns(r, want) {
			return false
		}
	}
	return true
}

// ringTurns walks r once, closing it at its first vertex, and pops a loop
// off the path whenever a vertex repeats: it reports whether some loop may
// turn like want.
func (lt *loopTable) ringTurns(r geom.Ring, want geom.Orientation) bool {
	lt.ring++
	path := lt.path[:0]
	for i := 0; i <= len(r); i++ {
		p := r[i%len(r)]
		s := lt.slot(p)
		j := lt.slots[s].pos
		if j < 0 {
			lt.slots[s].pos = int32(len(path))
			path = append(path, pathVertex{p, s})
			continue
		}
		if loopTurns(path[j:], want) {
			return true
		}
		for _, v := range path[j+1:] {
			lt.slots[v.slot].pos = -1
		}
		path = path[:j+1]
	}
	return false
}

// slot returns p's slot, claiming a free one when p is new to the ring.
func (lt *loopTable) slot(p geom.Point) int32 {
	var x, y uint64 // -0 keys as +0
	if p.X != 0 {
		x = math.Float64bits(p.X)
	}
	if p.Y != 0 {
		y = math.Float64bits(p.Y)
	}
	// The splitmix64 finalizer of x mixed with y.
	h := x*0x9e3779b97f4a7c15 ^ y
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	mask := uint64(len(lt.slots) - 1)
	for h = (h ^ h>>31) & mask; ; h = (h + 1) & mask {
		s := &lt.slots[h]
		if s.ring != lt.ring {
			*s = vertexSlot{x, y, lt.ring, -1}
			return int32(h)
		}
		if s.x == x && s.y == y {
			return int32(h)
		}
	}
}

// loopTurns reports whether the loop may turn like want: it bounds nothing
// below three vertices, and otherwise turns as it does at its lowest (then
// leftmost) vertex, where a collinear turn leaves it undecided.
func loopTurns(loop []pathVertex, want geom.Orientation) bool {
	n := len(loop)
	if n < 3 {
		return false
	}
	lo := 0
	for i := 1; i < n; i++ {
		if p, q := loop[i].p, loop[lo].p; p.Y < q.Y || p.Y == q.Y && p.X < q.X {
			lo = i
		}
	}
	return geom.Orient(loop[(lo+n-1)%n].p, loop[lo].p, loop[(lo+1)%n].p) != -want
}

// Package gh implements the Greiner–Hormann polygon clipping algorithm
// (Greiner & Hormann 1998), which the paper uses for the rectangle-clipping
// steps 4–5 of its multi-threaded Algorithm 2 because it is "faster than GPC
// for rectangular clipping".
//
// The algorithm builds doubly linked vertex lists for the subject and clip
// contours, inserts every pairwise edge intersection into both lists (sorted
// by the parametric position along each edge), marks each intersection as an
// entry or exit with respect to the other polygon, and traces result
// contours by switching lists at each intersection. It supports
// intersection, union and difference of simple (non-self-intersecting)
// polygons whose boundaries cross properly; degenerate configurations
// (grazing contacts, shared edges) are outside its contract — exactly the
// limitation the paper notes for the clipping literature it improves on.
package gh

import (
	"polyclip/internal/engine"
	"polyclip/internal/geom"
)

// node is a vertex in the circular doubly linked polygon list.
type node struct {
	pt         geom.Point
	next, prev *node
	// intersection bookkeeping
	intersect bool
	entry     bool
	visited   bool
	neighbor  *node
	alpha     float64 // parametric position along the edge it subdivides
}

// buildList turns a ring into a circular doubly linked list.
func buildList(r geom.Ring) *node {
	var first, last *node
	for _, p := range r {
		n := &node{pt: p}
		if first == nil {
			first = n
			last = n
			n.next = n
			n.prev = n
			continue
		}
		n.prev = last
		n.next = first
		last.next = n
		first.prev = n
		last = n
	}
	return first
}

// insertAfter inserts in between a and the next non-intersection vertex,
// keeping intersections sorted by alpha.
func insertSorted(a *node, in *node) {
	p := a
	for p.next.intersect && p.next.alpha < in.alpha {
		p = p.next
	}
	in.next = p.next
	in.prev = p
	p.next.prev = in
	p.next = in
}

// Clip computes `subject op clip` for two simple rings in general position.
// Returns the result contours. When the boundaries do not intersect, the
// containment cases are resolved with point-in-polygon tests. Xor is outside
// the algorithm's contract and runs as Difference.
func Clip(subject, clip geom.Ring, op engine.Op) geom.Polygon {
	if len(subject) < 3 || len(clip) < 3 {
		switch op {
		case engine.Intersection:
			return nil
		case engine.Union:
			out := geom.Polygon{}
			if len(subject) >= 3 {
				out = append(out, subject.Clone())
			}
			if len(clip) >= 3 {
				out = append(out, clip.Clone())
			}
			if len(out) == 0 {
				return nil
			}
			return out
		default:
			if len(subject) >= 3 {
				return geom.Polygon{subject.Clone()}
			}
			return nil
		}
	}

	sList := buildList(subject)
	cList := buildList(clip)

	// Phase 1: find and insert intersections into both lists.
	found := insertIntersections(sList, cList, len(subject), len(clip))

	if found == 0 {
		return noIntersectionCase(subject, clip, op)
	}

	// Phase 2: mark entry/exit. For the subject list, status alternates
	// starting from whether the first vertex is inside the clip polygon;
	// union/difference flip the initial status per Greiner–Hormann's table.
	sInside := geom.Polygon{clip}.ContainsPoint(sList.pt)
	cInside := geom.Polygon{subject}.ContainsPoint(cList.pt)
	sEntry := !sInside
	cEntry := !cInside
	switch op {
	case engine.Union:
		sEntry = !sEntry
		cEntry = !cEntry
	case engine.Difference:
		sEntry = !sEntry
	}
	markEntryExit(sList, sEntry)
	markEntryExit(cList, cEntry)

	// Phase 3: trace result contours.
	var result geom.Polygon
	for {
		start := firstUnvisited(sList)
		if start == nil {
			break
		}
		var ring geom.Ring
		cur := start
		for {
			cur.visited = true
			if cur.neighbor != nil {
				cur.neighbor.visited = true
			}
			ring = append(ring, cur.pt)
			if cur.entry {
				for {
					cur = cur.next
					if cur.intersect {
						break
					}
					ring = append(ring, cur.pt)
				}
			} else {
				for {
					cur = cur.prev
					if cur.intersect {
						break
					}
					ring = append(ring, cur.pt)
				}
			}
			cur = cur.neighbor
			if cur.visited {
				break
			}
		}
		if len(ring) >= 3 {
			result = append(result, dedupRing(ring))
		}
	}
	return result
}

// insertIntersections finds all proper edge crossings and links them into
// both lists; returns the number inserted.
func insertIntersections(sList, cList *node, ns, nc int) int {
	found := 0
	sv := sList
	for i := 0; i < ns; i++ {
		sNext := nextVertex(sv)
		cv := cList
		for j := 0; j < nc; j++ {
			cNext := nextVertex(cv)
			segS := geom.Segment{A: sv.pt, B: sNext.pt}
			segC := geom.Segment{A: cv.pt, B: cNext.pt}
			if geom.SegmentsCross(segS, segC) {
				kind, p, _ := geom.SegIntersection(segS, segC)
				if kind == geom.Crossing {
					aS := alphaOf(segS, p)
					aC := alphaOf(segC, p)
					inS := &node{pt: p, intersect: true, alpha: aS}
					inC := &node{pt: p, intersect: true, alpha: aC}
					inS.neighbor = inC
					inC.neighbor = inS
					insertSorted(sv, inS)
					insertSorted(cv, inC)
					found++
				}
			}
			cv = cNext
		}
		sv = sNext
	}
	return found
}

// nextVertex returns the next original (non-intersection) vertex.
func nextVertex(n *node) *node {
	p := n.next
	for p.intersect {
		p = p.next
	}
	return p
}

func alphaOf(s geom.Segment, p geom.Point) float64 {
	d := s.B.Sub(s.A)
	l2 := d.Dot(d)
	if l2 == 0 {
		return 0
	}
	return p.Sub(s.A).Dot(d) / l2
}

// markEntryExit alternates the entry flag over the intersections of a list.
func markEntryExit(list *node, entry bool) {
	n := list
	for {
		if n.intersect {
			n.entry = entry
			entry = !entry
			n.visited = false
		}
		n = n.next
		if n == list {
			break
		}
	}
}

func firstUnvisited(list *node) *node {
	n := list
	for {
		if n.intersect && !n.visited {
			return n
		}
		n = n.next
		if n == list {
			return nil
		}
	}
}

func dedupRing(r geom.Ring) geom.Ring {
	out := r[:0]
	for i, p := range r {
		if i == 0 || p != out[len(out)-1] {
			out = append(out, p)
		}
	}
	if len(out) > 1 && out[0] == out[len(out)-1] {
		out = out[:len(out)-1]
	}
	return out
}

// noIntersectionCase resolves operations when boundaries do not cross.
func noIntersectionCase(subject, clip geom.Ring, op engine.Op) geom.Polygon {
	sInC := geom.Polygon{clip}.ContainsPoint(subject[0])
	cInS := geom.Polygon{subject}.ContainsPoint(clip[0])
	switch op {
	case engine.Intersection:
		if sInC {
			return geom.Polygon{subject.Clone()}
		}
		if cInS {
			return geom.Polygon{clip.Clone()}
		}
		return nil
	case engine.Union:
		if sInC {
			return geom.Polygon{clip.Clone()}
		}
		if cInS {
			return geom.Polygon{subject.Clone()}
		}
		return geom.Polygon{subject.Clone(), clip.Clone()}
	default: // Difference
		if sInC {
			return nil
		}
		if cInS {
			// subject with clip as hole
			hole := clip.Clone()
			hole.Reverse()
			return geom.Polygon{subject.Clone(), hole}
		}
		return geom.Polygon{subject.Clone()}
	}
}

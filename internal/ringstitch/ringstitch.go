// Package ringstitch links directed boundary edges into closed polygon
// rings. Both clipping engines emit their contributing edges directed so
// that the result interior lies to the edge's left; under the even-odd rule
// every vertex then has equal in- and out-degree, and rings are recovered by
// walking edges, at each vertex taking the first unused outgoing edge
// clockwise from the reversed incoming direction. This keeps the interior on
// the left around every turn, producing counter-clockwise outer rings and
// clockwise holes — the paper's Step 3.4/Step 4 vertex ordering.
//
// Equal points and equal edges are grouped by sorting flat arrays, not in
// per-call hash maps: a sort allocates once and orders deterministically.
package ringstitch

import (
	"cmp"
	"math"
	"slices"

	"polyclip/internal/geom"
	"polyclip/internal/guard"
	"polyclip/internal/segtree"
)

// Edge is a directed boundary edge with the region interior on its left.
type Edge struct {
	From, To geom.Point
}

// compareEdges orders edges by From, then To.
func compareEdges(a, b Edge) int {
	if c := a.From.Compare(b.From); c != 0 {
		return c
	}
	return a.To.Compare(b.To)
}

// Stitch links the directed edges into closed rings. Edges must form an
// even-degree graph (every vertex has in-degree == out-degree); numerically
// inconsistent leftovers are dropped rather than emitted as open chains.
// Rings with fewer than three vertices are discarded.
func Stitch(edges []Edge) geom.Polygon {
	guard.Hit("ringstitch.stitch")
	if len(edges) == 0 {
		return nil
	}
	// Vertex ids: sort the endpoints (2i is edges[i].From, 2i+1 its To) by
	// point, ties by endpoint index, so each run of equal points is one
	// vertex, represented by its first occurrence.
	type endpoint struct {
		p geom.Point
		k int32
	}
	ends := make([]endpoint, 2*len(edges))
	for i, e := range edges {
		ends[2*i] = endpoint{e.From, int32(2 * i)}
		ends[2*i+1] = endpoint{e.To, int32(2*i + 1)}
	}
	slices.SortFunc(ends, func(a, b endpoint) int {
		if c := a.p.Compare(b.p); c != 0 {
			return c
		}
		return cmp.Compare(a.k, b.k)
	})
	vid := make([]int32, len(ends))
	verts := make([]geom.Point, 0, len(edges))
	for j, ep := range ends {
		if j == 0 || ep.p != ends[j-1].p {
			verts = append(verts, ep.p)
		}
		vid[ep.k] = int32(len(verts) - 1)
	}

	// Adjacency in CSR form: vertex v's out-edges are adj[off[v]:off[v+1]],
	// in input order, so ring starts and turn ties follow the edge order.
	type outEdge struct {
		to    int32
		used  bool
		angle float64
	}
	off := make([]int32, len(verts)+1)
	for i := range edges {
		off[vid[2*i]]++
	}
	for v := 1; v < len(verts); v++ {
		off[v] += off[v-1]
	}
	off[len(verts)] = int32(len(edges))
	adj := make([]outEdge, len(edges))
	for i := len(edges) - 1; i >= 0; i-- {
		f, t := vid[2*i], vid[2*i+1]
		off[f]--
		adj[off[f]] = outEdge{to: t, angle: math.Atan2(verts[t].Y-verts[f].Y, verts[t].X-verts[f].X)}
	}

	// Every ring's vertices, back to back: a ring uses one edge per vertex.
	pts := make([]geom.Point, 0, len(edges))
	var result geom.Polygon
	for i := range edges {
		f, t := vid[2*i], vid[2*i+1]
		start := int32(-1)
		for k := off[f]; k < off[f+1]; k++ {
			if !adj[k].used && adj[k].to == t {
				start = k
				break
			}
		}
		if start < 0 {
			continue
		}

		base := len(pts)
		pts = append(pts, verts[f])
		cur, k := f, start
		for {
			adj[k].used = true
			nxt := adj[k].to
			if nxt == f {
				break
			}
			pts = append(pts, verts[nxt])
			rev := math.Atan2(verts[cur].Y-verts[nxt].Y, verts[cur].X-verts[nxt].X)
			best, bestOff := int32(-1), math.Inf(1)
			for c := off[nxt]; c < off[nxt+1]; c++ {
				if adj[c].used {
					continue
				}
				o := math.Mod(rev-adj[c].angle, 2*math.Pi)
				if o <= 0 {
					o += 2 * math.Pi
				}
				if o < bestOff {
					bestOff, best = o, c
				}
			}
			if best < 0 {
				pts = pts[:base]
				break
			}
			cur, k = nxt, best
		}
		if len(pts)-base >= 3 {
			result = append(result, geom.Ring(pts[base:len(pts):len(pts)]))
		} else {
			pts = pts[:base]
		}
	}
	return DropSlivers(result)
}

// DropSlivers removes rings of negligible area relative to the largest
// ring — artifacts of coordinate snapping.
func DropSlivers(p geom.Polygon) geom.Polygon {
	if len(p) == 0 {
		return nil
	}
	areas := make([]float64, len(p))
	maxA := 0.0
	for i, r := range p {
		areas[i] = r.Area()
		maxA = max(maxA, areas[i])
	}
	thresh := maxA * 1e-14
	out := p[:0]
	for i, r := range p {
		if areas[i] > thresh {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// CancelOpposites removes pairs of identical segments traversed in opposite
// directions (shared boundaries of adjacent regions) and merges identical
// duplicates, returning the net directed edge set. Engines that assemble a
// region from per-scanbeam pieces use this to erase the internal seams (the
// paper's virtual-vertex caps) before stitching.
func CancelOpposites(edges []Edge) []Edge {
	// Each edge, turned to run from its lesser endpoint, with its direction
	// and position: sorted, coincident edges form runs whose directions sum
	// to the net multiplicity. Coincident edges can differ in the sign of a
	// zero coordinate; a run is written as its last occurrence.
	type occ struct {
		e   Edge
		i   int32
		dir int32
	}
	occs := make([]occ, len(edges))
	for i, e := range edges {
		dir := int32(1)
		if e.To.Less(e.From) {
			e, dir = Edge{e.To, e.From}, -1
		}
		occs[i] = occ{e, int32(i), dir}
	}
	slices.SortFunc(occs, func(a, b occ) int {
		if c := compareEdges(a.e, b.e); c != 0 {
			return c
		}
		return cmp.Compare(a.i, b.i)
	})
	out := make([]Edge, 0, len(edges))
	for lo := 0; lo < len(occs); {
		n, hi := occs[lo].dir, lo+1
		for ; hi < len(occs) && occs[hi].e == occs[lo].e; hi++ {
			n += occs[hi].dir
		}
		e := occs[hi-1].e
		for ; n > 0; n-- {
			out = append(out, e)
		}
		for ; n < 0; n++ {
			out = append(out, Edge{e.To, e.From})
		}
		lo = hi
	}
	// Stitch starts rings at the first unused edge in slice order, so sort
	// the reversed runs into place: clip output, down to each ring's start
	// vertex, is a pure function of the input.
	slices.SortFunc(out, compareEdges)
	return out
}

// Cap is a horizontal piece of boundary at height Y spanning X0 < X1. Dir is
// +1 when the region lies above it, so the boundary runs toward +x, and -1
// when the region lies below, running toward -x.
type Cap struct {
	Y, X0, X1 float64
	Dir       int
}

// NetCaps appends to dst the net boundary of caps, which must be sorted by
// Y. Each run of equal Y is one line, drawn at the Y of its last cap: the
// caps' endpoints cut the line into pieces, each piece sums the Dir of the
// caps over it, and a piece with net n becomes |n| edges, toward +x when
// n > 0 and toward -x when n < 0. The bottom and top caps of two stacked
// pieces of one region cancel, erasing the seam between them.
func NetCaps(dst []Edge, caps []Cap) []Edge {
	// No line has more than 2*len(caps) endpoints, so one endpoint buffer
	// and one net buffer serve every line.
	xs := make([]float64, 0, 2*len(caps))
	nets := make([]int, 2*len(caps))
	for lo := 0; lo < len(caps); {
		hi := lo + 1
		for hi < len(caps) && caps[hi].Y == caps[lo].Y {
			hi++
		}
		line := caps[lo:hi]
		y := line[len(line)-1].Y
		xs = xs[:0]
		for _, c := range line {
			xs = append(xs, c.X0, c.X1)
		}
		xs = segtree.Dedup(xs)
		net := nets[:len(xs)-1]
		clear(net)
		for _, c := range line {
			a, _ := slices.BinarySearch(xs, c.X0)
			b, _ := slices.BinarySearch(xs, c.X1)
			for i := a; i < b; i++ {
				net[i] += c.Dir
			}
		}
		for i, n := range net {
			a := geom.Point{X: xs[i], Y: y}
			b := geom.Point{X: xs[i+1], Y: y}
			for ; n > 0; n-- {
				dst = append(dst, Edge{From: a, To: b})
			}
			for ; n < 0; n++ {
				dst = append(dst, Edge{From: b, To: a})
			}
		}
		lo = hi
	}
	return dst
}

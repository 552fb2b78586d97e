// Package isect finds pairs of intersecting segments among a set of polygon
// edges. Three finders are provided:
//
//   - BruteForcePairs: O(n²) oracle used by tests.
//   - GridPairs: uniform-grid candidate filter (the practical engine's
//     default for irregular GIS data).
//   - ScanbeamPairs: the paper's output-sensitive method — decompose the
//     y-range into scanbeams with a segment tree, order the edges of each
//     beam along the bottom and top scanlines, and report the inversions
//     between the two orders with the extended mergesort of Lemma 4; each
//     inversion is a candidate crossing pair (Fig. 4).
//
// All finders return verified pairs: candidates are confirmed with the exact
// segment intersection predicate before being reported. Horizontal edges
// span no scanbeam, so the scanbeam finder cannot see them; callers with
// horizontal edges use the grid finder (the overlay engine switches to it
// whenever an operand has one).
package isect

import (
	"math"
	"slices"
	"sync"

	"polyclip/internal/geom"
	"polyclip/internal/guard"
	"polyclip/internal/par"
	"polyclip/internal/segtree"
)

// beamScratch holds the per-beam working arrays of the scanbeam finders.
// Beams are processed in parallel, so each worker draws its own scratch from
// the pool instead of allocating six slices per beam.
type beamScratch struct {
	xb, xt          []float64
	order, topOrder []int
	rank, seq       []int
	at              []boundaryEntry
}

var beamScratchPool = sync.Pool{New: func() any { return new(beamScratch) }}

func (s *beamScratch) beamBufs(k int) (xb, xt []float64, order, topOrder, rank, seq []int) {
	if cap(s.xb) < k {
		s.xb = make([]float64, k)
		s.xt = make([]float64, k)
		s.order = make([]int, k)
		s.topOrder = make([]int, k)
		s.rank = make([]int, k)
		s.seq = make([]int, k)
	}
	return s.xb[:k], s.xt[:k], s.order[:k], s.topOrder[:k], s.rank[:k], s.seq[:k]
}

// boundaryEntry positions an edge on a beam boundary scanline.
type boundaryEntry struct {
	x  float64
	id int32
}

func (s *beamScratch) boundary(n int) []boundaryEntry {
	if cap(s.at) < n {
		s.at = make([]boundaryEntry, n)
	}
	return s.at[:n]
}

// beamSeq fills the scratch with the beam's bottom-scanline permutation and
// the rank sequence whose inversions are its crossing candidates (Fig. 4):
// order is the bottom order (ties broken along the top so edges sharing a
// bottom endpoint are not spuriously inverted), topOrder the symmetric top
// order, and seq the top ranks read in bottom order.
func beamSeq(edges []geom.Segment, ids []int32, yb, yt float64, s *beamScratch) (xb, xt []float64, order, topOrder, seq []int) {
	k := len(ids)
	xb, xt, order, topOrder, rank, seq := s.beamBufs(k)
	for i, id := range ids {
		xb[i] = edges[id].XAtY(yb)
		xt[i] = edges[id].XAtY(yt)
	}
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if xb[a] != xb[b] {
			if xb[a] < xb[b] {
				return -1
			}
			return 1
		}
		if xt[a] != xt[b] {
			if xt[a] < xt[b] {
				return -1
			}
			return 1
		}
		return 0
	})
	copy(topOrder, order)
	slices.SortFunc(topOrder, func(a, b int) int {
		if xt[a] != xt[b] {
			if xt[a] < xt[b] {
				return -1
			}
			return 1
		}
		if xb[a] != xb[b] {
			if xb[a] < xb[b] {
				return -1
			}
			return 1
		}
		return 0
	})
	for r, i := range topOrder {
		rank[i] = r
	}
	for pos, i := range order {
		seq[pos] = rank[i]
	}
	return xb, xt, order, topOrder, seq
}

// Pair is an unordered pair of edge indices with I < J that intersect in at
// least one point.
type Pair struct {
	I, J int32
}

func canon(i, j int32) Pair {
	if i > j {
		i, j = j, i
	}
	return Pair{i, j}
}

// verify reports whether edges i and j actually intersect.
func verify(edges []geom.Segment, i, j int32) bool {
	kind, _, _ := geom.SegIntersection(edges[i], edges[j])
	return kind != geom.Disjoint
}

// dedupPairs sorts and removes duplicates in place.
func dedupPairs(ps []Pair) []Pair {
	slices.SortFunc(ps, func(a, b Pair) int {
		if a.I != b.I {
			return int(a.I - b.I)
		}
		return int(a.J - b.J)
	})
	out := ps[:0]
	for i, p := range ps {
		if i == 0 || p != out[len(out)-1] {
			out = append(out, p)
		}
	}
	return out
}

// BruteForcePairs returns every intersecting pair by testing all O(n²)
// candidates. Test oracle; do not use on large inputs.
func BruteForcePairs(edges []geom.Segment) []Pair {
	var out []Pair
	for i := int32(0); i < int32(len(edges)); i++ {
		for j := i + 1; j < int32(len(edges)); j++ {
			if verify(edges, i, j) {
				out = append(out, Pair{i, j})
			}
		}
	}
	return out
}

// edgeGrid is the uniform-grid candidate structure shared by GridPairs and
// VisitCandidatePairs: every edge is binned into the cells its bounding box
// covers, stored in compressed (CSR) form so building it costs three flat
// allocations regardless of how many cells the data spreads over.
type edgeGrid struct {
	minX, minY float64
	cell       float64
	nx, ny     int
	binStart   []int32 // len nx*ny+1: cell c holds binIDs[binStart[c]:binStart[c+1]]
	binIDs     []int32
}

// buildGrid bins the edges. Cell size aims for the average edge extent,
// bounded so the grid stays O(n) cells.
func buildGrid(edges []geom.Segment) *edgeGrid {
	n := len(edges)
	box := geom.EmptyBBox()
	var totalLen float64
	for _, e := range edges {
		box.Extend(e.A)
		box.Extend(e.B)
		totalLen += e.Len()
	}
	w, h := box.Width(), box.Height()
	if w == 0 {
		w = 1
	}
	if h == 0 {
		h = 1
	}
	cell := totalLen / float64(n)
	if cell <= 0 {
		cell = w / 64
	}
	maxCells := 4 * n
	for int(w/cell+1)*int(h/cell+1) > maxCells {
		cell *= 1.5
	}
	g := &edgeGrid{
		minX: box.MinX, minY: box.MinY,
		cell: cell,
		nx:   int(w/cell) + 1,
		ny:   int(h/cell) + 1,
	}

	// Two-phase CSR fill: count cells per edge, prefix-sum, then place ids.
	counts := make([]int32, g.nx*g.ny+1)
	for _, e := range edges {
		g.eachCell(e, func(c int) { counts[c+1]++ })
	}
	for c := 1; c < len(counts); c++ {
		counts[c] += counts[c-1]
	}
	g.binIDs = make([]int32, counts[len(counts)-1])
	fill := make([]int32, g.nx*g.ny)
	for i, e := range edges {
		g.eachCell(e, func(c int) {
			g.binIDs[counts[c]+fill[c]] = int32(i)
			fill[c]++
		})
	}
	g.binStart = counts
	return g
}

// cellOf clamps a coordinate into grid cell indices.
func (g *edgeGrid) cellOf(x, y float64) (int, int) {
	cx := int((x - g.minX) / g.cell)
	cy := int((y - g.minY) / g.cell)
	if cx >= g.nx {
		cx = g.nx - 1
	}
	if cy >= g.ny {
		cy = g.ny - 1
	}
	if cx < 0 {
		cx = 0
	}
	if cy < 0 {
		cy = 0
	}
	return cx, cy
}

// eachCell visits the cells covered by the edge's bounding box.
func (g *edgeGrid) eachCell(e geom.Segment, fn func(c int)) {
	lox, hix := e.XSpan()
	loy, hiy := e.YSpan()
	cx0, cy0 := g.cellOf(lox, loy)
	cx1, cy1 := g.cellOf(hix, hiy)
	for cy := cy0; cy <= cy1; cy++ {
		for cx := cx0; cx <= cx1; cx++ {
			fn(cy*g.nx + cx)
		}
	}
}

// bboxOverlap is the cheap axis-span prefilter applied to cell-sharing
// candidates before any predicate runs.
func bboxOverlap(ei, ej geom.Segment) bool {
	lox1, hix1 := ei.XSpan()
	lox2, hix2 := ej.XSpan()
	if hix1 < lox2 || hix2 < lox1 {
		return false
	}
	loy1, hiy1 := ei.YSpan()
	loy2, hiy2 := ej.YSpan()
	return hiy1 >= loy2 && hiy2 >= loy1
}

// GridPairs returns every intersecting pair using a uniform grid candidate
// filter with parallelism p. Each edge is binned into the grid cells its
// bounding box covers; edges sharing a cell are candidates.
func GridPairs(edges []geom.Segment, p int) []Pair {
	guard.Hit("isect.pairs")
	n := len(edges)
	if n < 2 {
		return nil
	}
	g := buildGrid(edges)

	// Candidate pairs per cell, verified, with bbox prefilter; collected
	// per-goroutine and merged.
	ncells := g.nx * g.ny
	results := make([][]Pair, par.DefaultParallelism())
	if p > 0 {
		results = make([][]Pair, p)
	}
	var mu sync.Mutex
	next := 0
	par.ForEach(ncells, p, func(lo, hi int) {
		mu.Lock()
		slot := next
		next++
		mu.Unlock()
		var local []Pair
		for c := lo; c < hi; c++ {
			ids := g.binIDs[g.binStart[c]:g.binStart[c+1]]
			for a := 0; a < len(ids); a++ {
				for b := a + 1; b < len(ids); b++ {
					i, j := ids[a], ids[b]
					if !bboxOverlap(edges[i], edges[j]) {
						continue
					}
					if verify(edges, i, j) {
						local = append(local, canon(i, j))
					}
				}
			}
		}
		results[slot] = local
	})
	var all []Pair
	for _, r := range results {
		all = append(all, r...)
	}
	return dedupPairs(all)
}

// VisitCandidatePairs streams every grid candidate pair — two edges sharing
// a grid cell whose bounding boxes overlap, exactly the candidate set
// GridPairs verifies — to visit, sequentially, stopping early when visit
// returns false. Candidates are NOT verified (callers run their own
// predicate) and a pair spanning several shared cells is visited once per
// cell; callers must be idempotent. This is the counting/pre-scan mode of
// the grid finder: the arrangement fast path uses it to detect "no
// resolution needed" without materializing, verifying, or deduplicating a
// pair list.
func VisitCandidatePairs(edges []geom.Segment, visit func(i, j int32) bool) {
	if len(edges) < 2 {
		return
	}
	g := buildGrid(edges)
	ncells := g.nx * g.ny
	for c := 0; c < ncells; c++ {
		ids := g.binIDs[g.binStart[c]:g.binStart[c+1]]
		for a := 0; a < len(ids); a++ {
			for b := a + 1; b < len(ids); b++ {
				i, j := ids[a], ids[b]
				if !bboxOverlap(edges[i], edges[j]) {
					continue
				}
				if !visit(i, j) {
					return
				}
			}
		}
	}
}

// ScanbeamPairs returns every intersecting pair using the paper's
// scanbeam-inversion method with parallelism p. Cost is
// O((n + k') log(n + k')) plus the inversion output k, matching the paper's
// output-sensitive bound.
func ScanbeamPairs(edges []geom.Segment, p int) []Pair {
	guard.Hit("isect.pairs")
	n := len(edges)
	if n < 2 {
		return nil
	}
	// Step 1: event schedule = distinct endpoint y's.
	ys := make([]float64, 0, 2*n)
	for _, e := range edges {
		lo, hi := e.YSpan()
		if lo == hi {
			continue // horizontal: spans no beam; caller must perturb
		}
		ys = append(ys, lo, hi)
	}
	ys = segtree.Dedup(ys)
	if len(ys) < 2 {
		return nil
	}

	// Step 2: populate scanbeams via the segment tree.
	tree := segtree.Build(ys, n, func(i int32) segtree.Interval {
		lo, hi := edges[i].YSpan()
		return segtree.Interval{Lo: lo, Hi: hi}
	}, p)
	beams, _ := tree.AllBeams(p)

	// Step 3: per beam, inversions between bottom and top scanline orders.
	m := len(beams)
	perBeam := make([][]Pair, m)
	par.ForEachItem(m, p, func(b int) {
		perBeam[b] = beamPairs(edges, beams[b], ys[b], ys[b+1])
	})

	// Scanline events: pairs that meet exactly on a beam boundary (shared
	// vertices between an edge ending and an edge starting there, or
	// T-junctions on the scanline) occupy disjoint beams and produce no
	// inversion; catch them by merging the top order of the beam below with
	// the bottom order of the beam above and scanning equal-x runs. This is
	// the local-minima/maxima event processing of Vatti's sweep.
	boundary := make([][]Pair, m+1)
	par.ForEachItem(m-1, p, func(bi int) {
		b := bi + 1 // boundary between beams b-1 and b
		y := ys[b]
		s := beamScratchPool.Get().(*beamScratch)
		defer beamScratchPool.Put(s)
		at := s.boundary(len(beams[b-1]) + len(beams[b]))[:0]
		for _, id := range beams[b-1] {
			at = append(at, boundaryEntry{edges[id].XAtY(y), id})
		}
		for _, id := range beams[b] {
			at = append(at, boundaryEntry{edges[id].XAtY(y), id})
		}
		slices.SortFunc(at, func(a, c boundaryEntry) int {
			switch {
			case a.x < c.x:
				return -1
			case a.x > c.x:
				return 1
			default:
				return 0
			}
		})
		// Group within a tolerance relative to the coordinate magnitude:
		// XAtY roundoff is relative, so an absolute grouping tolerance
		// either misses touching pairs at huge scales or degenerates to one
		// quadratic group at tiny ones. verify re-checks every candidate
		// exactly, so over-grouping costs time, never correctness.
		maxAbs := 0.0
		for _, e := range at {
			if a := math.Abs(e.x); a > maxAbs {
				maxAbs = a
			}
		}
		xEps := geom.RelEps * maxAbs
		var out []Pair
		for a := 0; a < len(at); {
			c := a + 1
			for c < len(at) && at[c].x-at[a].x <= xEps {
				c++
			}
			for u := a; u < c; u++ {
				for v := u + 1; v < c; v++ {
					if at[u].id != at[v].id && verify(edges, at[u].id, at[v].id) {
						out = append(out, canon(at[u].id, at[v].id))
					}
				}
			}
			a = c
		}
		boundary[b] = out
	})

	var all []Pair
	for _, ps := range perBeam {
		all = append(all, ps...)
	}
	for _, ps := range boundary {
		all = append(all, ps...)
	}
	return dedupPairs(all)
}

// beamPairs finds intersecting pairs among the edges spanning one scanbeam
// [yb, yt] by counting and reporting inversions between the bottom and top
// orders (Lemma 4), plus equal-x runs to catch pairs that touch exactly on a
// scanline.
func beamPairs(edges []geom.Segment, ids []int32, yb, yt float64) []Pair {
	k := len(ids)
	if k < 2 {
		return nil
	}
	s := beamScratchPool.Get().(*beamScratch)
	defer beamScratchPool.Put(s)
	xb, xt, order, topOrder, seq := beamSeq(edges, ids, yb, yt, s)

	var out []Pair
	for _, ip := range par.ReportInversions(seq) {
		i, j := ids[order[ip.I]], ids[order[ip.J]]
		if verify(edges, i, j) {
			out = append(out, canon(i, j))
		}
	}

	// Equal-x runs on either scanline: candidates that touch on a scanline
	// (shared endpoints, tangencies) produce no inversion but may still
	// intersect.
	addRuns := func(xs []float64, ord []int) {
		for a := 0; a < k; {
			b := a + 1
			for b < k && xs[ord[b]] == xs[ord[a]] {
				b++
			}
			for u := a; u < b; u++ {
				for v := u + 1; v < b; v++ {
					i, j := ids[ord[u]], ids[ord[v]]
					if verify(edges, i, j) {
						out = append(out, canon(i, j))
					}
				}
			}
			a = b
		}
	}
	addRuns(xb, order)
	addRuns(xt, topOrder)
	return out
}

// CountCrossings returns the total number of inversions over all scanbeams —
// the paper's a-priori estimate of k used for output-sensitive processor
// allocation — without reporting the pairs.
func CountCrossings(edges []geom.Segment, p int) int64 {
	n := len(edges)
	if n < 2 {
		return 0
	}
	ys := make([]float64, 0, 2*n)
	for _, e := range edges {
		lo, hi := e.YSpan()
		if lo == hi {
			continue
		}
		ys = append(ys, lo, hi)
	}
	ys = segtree.Dedup(ys)
	if len(ys) < 2 {
		return 0
	}
	tree := segtree.Build(ys, n, func(i int32) segtree.Interval {
		lo, hi := edges[i].YSpan()
		return segtree.Interval{Lo: lo, Hi: hi}
	}, p)
	beams, _ := tree.AllBeams(p)

	counts := make([]int64, len(beams))
	par.ForEachItem(len(beams), p, func(b int) {
		ids := beams[b]
		if len(ids) < 2 {
			return
		}
		s := beamScratchPool.Get().(*beamScratch)
		_, _, _, _, seq := beamSeq(edges, ids, ys[b], ys[b+1], s)
		counts[b] = par.CountInversions(seq)
		beamScratchPool.Put(s)
	})
	var total int64
	for _, c := range counts {
		total += c
	}
	return total
}

// Package prepared is the resolve-once/clip-many abstraction of the tile
// pipeline: a Prepared wraps one subject layer's resolved-and-snapped
// arrangement together with the spatial indexes that make clipping it
// against many axis-aligned windows output-sensitive — per-ring MBRs, an STR
// R-tree over the edges, and a y-sorted binary-search culling index (Skala's
// O(lg N) window reject for line clipping, lifted to the whole layer).
//
// Preparation canonicalizes the subject once: a union-with-empty sweep under
// the requested fill rule (vatti.Clip, whose arrangement resolution runs
// once on the lone layer), snapped onto the power-of-two grid
// (geom.SnapPolygon at geom.AutoSnapEps). The result is a simple even-odd
// boundary — CCW outers, CW holes, edges meeting only at shared exact
// vertices — whose even-odd reading equals the rule-R region of the source.
// Its interior lies on the left of every directed edge, whatever rule the
// layer was prepared for, and every window clip leans on that.
//
// A window clip then takes one of three routes, cheapest first:
//
//	classify: MBR reject -> binary-search y-cull -> R-tree window query
//	          -> exact segment/box tests
//	Outside:  emit nothing               (no geometry touched)
//	Inside:   emit the window rectangle  (O(1) accept)
//	Straddle: one oriented pass over the edges the window query returned
//	          (Weiler–Atherton on the rectangle): chains of boundary through
//	          the open window, linked exit to next entry around the corners;
//	          a sole convex ring goes through Sutherland–Hodgman instead
//
// so the cost of a tile is proportional to the boundary inside it, not to
// the layer.
package prepared

import (
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"polyclip/internal/engine"
	"polyclip/internal/geom"
	"polyclip/internal/rtree"
	"polyclip/internal/vatti"
)

// Class is a window's classification against the prepared layer.
type Class uint8

// Window classes.
const (
	// Outside: the window does not meet the layer's region; the clip is
	// empty.
	Outside Class = iota
	// Inside: the window lies entirely in the layer's interior; the clip is
	// the window rectangle itself.
	Inside
	// Straddle: the layer's boundary crosses the window; a real clip runs.
	Straddle
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case Outside:
		return "outside"
	case Inside:
		return "inside"
	default:
		return "straddle"
	}
}

// Stats is a point-in-time snapshot of a Prepared's clip counters. The JSON
// tags are stable: they surface in `cmd/tilecut -stats`, in POST /tile
// responses and in the benchmark's traced prepared.* metrics. BandClips
// keeps its name from the band-clip route it replaced and counts the
// oriented route.
type Stats struct {
	FastInside  uint64 `json:"fastInside"`  // windows emitted as full rectangles
	FastOutside uint64 `json:"fastOutside"` // windows rejected without geometry
	ConvexClips uint64 `json:"convexClips"` // straddles served by Sutherland–Hodgman
	BandClips   uint64 `json:"bandClips"`   // straddles served by the oriented route
	Rescues     uint64 `json:"rescues"`     // straddles rescued by the full sweep
}

// Sweeps returns the number of windows that reached a real clip.
func (s Stats) Sweeps() uint64 { return s.ConvexClips + s.BandClips + s.Rescues }

// Prepared is a subject layer resolved, snapped, and indexed for repeated
// window clipping. It is immutable after Prepare and safe for concurrent use;
// the clip counters are atomic.
type Prepared struct {
	rule engine.FillRule
	eps  float64
	poly geom.Polygon // canonical even-odd form of the rule-R region
	box  geom.BBox

	ringBox    []geom.BBox
	ringConvex []bool
	ringOff    []int32 // ring ri's edges are edges[ringOff[ri]:ringOff[ri+1]]
	edges      []geom.Segment
	edgeRing   []int32
	tree       *rtree.Tree

	// Binary-search culling index: edge indexes sorted by low y, with the
	// running maximum of high y. One sort.Search answers "does any edge
	// meet this y-range?" in O(lg N), so whole bands of tiles above or
	// below the layer never reach the R-tree, let alone a sweep.
	edgeLoY []float64
	maxHiY  []float64

	fastInside  atomic.Uint64
	fastOutside atomic.Uint64
	convexClips atomic.Uint64
	bandClips   atomic.Uint64
	rescues     atomic.Uint64

	scratch sync.Pool
}

// scratch recycles the per-clip buffers; one Prepared serves many
// goroutines, so the buffers are pooled rather than owned.
type scratch struct {
	ids    []int32 // R-tree window query results
	first  int32   // the first of ids whose edge meets the closed window
	rayIDs []int32 // R-tree ray query results
	rings  []int32 // ring of each ray crossing

	// The oriented pass (clipOriented): chain points, chains, crossings and
	// the ring being linked.
	pts    []geom.Point
	chains []chain
	xs     []crossing
	ring   geom.Ring
}

// Prepare canonicalizes p under rule and builds the window-clipping indexes.
// The source polygon is not retained. Preparing an empty or degenerate layer
// yields a Prepared that classifies every window Outside.
func Prepare(p geom.Polygon, rule engine.FillRule) *Prepared {
	return FromCanonical(Canonicalize(p, rule), rule)
}

// Canonicalize is the expensive half of Prepare, split out so callers can
// memoize it (internal/acache): a union-with-empty sweep under
// the rule, which resolves the lone operand with the same arrangement pass
// every engine runs. The sweep turns any rule's region into a simple even-odd
// boundary with ringstitch's canonical orientations (CCW outers, CW holes) —
// the invariant every fast path leans on — and the result is snapped onto
// the power-of-two grid. The sweep's merge joins each edge's per-beam sides,
// so the canonical form has the resolved layer's vertices and no more: a
// convex ring stays one convex ring, which the convex straddle route serves.
func Canonicalize(p geom.Polygon, rule engine.FillRule) geom.Polygon {
	canon := vatti.Clip(p, nil, engine.Union, engine.Options{Rule: rule})
	return geom.SnapPolygon(canon, geom.AutoSnapEps(canon, nil))
}

// FromCanonical builds the window-clipping indexes over an already-canonical
// layer — the output of Canonicalize, possibly via a cache. The caller must
// not mutate canon afterwards. The index build is the cheap half: linear
// scans plus an STR bulk-load and one sort.
func FromCanonical(canon geom.Polygon, rule engine.FillRule) *Prepared {
	pp := &Prepared{rule: rule, eps: geom.AutoSnapEps(canon, nil), poly: canon, box: canon.BBox()}
	pp.scratch.New = func() any { return new(scratch) }
	pp.buildIndex()
	return pp
}

func (pp *Prepared) buildIndex() {
	for ri, r := range pp.poly {
		pp.ringBox = append(pp.ringBox, r.BBox())
		pp.ringConvex = append(pp.ringConvex, ringIsConvex(r))
		base := len(pp.edges)
		pp.ringOff = append(pp.ringOff, int32(base))
		pp.edges = r.Edges(pp.edges)
		for i := base; i < len(pp.edges); i++ {
			pp.edgeRing = append(pp.edgeRing, int32(ri))
		}
	}
	pp.ringOff = append(pp.ringOff, int32(len(pp.edges)))
	pp.tree = rtree.Build(len(pp.edges), func(i int32) geom.BBox {
		return segBox(pp.edges[i])
	})

	n := len(pp.edges)
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		la, _ := pp.edges[order[a]].YSpan()
		lb, _ := pp.edges[order[b]].YSpan()
		return la < lb
	})
	pp.edgeLoY = make([]float64, n)
	pp.maxHiY = make([]float64, n)
	runMax := math.Inf(-1)
	for i, ei := range order {
		lo, hi := pp.edges[ei].YSpan()
		pp.edgeLoY[i] = lo
		if hi > runMax {
			runMax = hi
		}
		pp.maxHiY[i] = runMax
	}
}

func segBox(s geom.Segment) geom.BBox {
	lox, hix := s.XSpan()
	loy, hiy := s.YSpan()
	return geom.BBox{MinX: lox, MinY: loy, MaxX: hix, MaxY: hiy}
}

// anyEdgeInYRange reports whether any edge's y-extent meets [lo, hi], by
// binary search over the low-y order plus the running high-y maximum.
func (pp *Prepared) anyEdgeInYRange(lo, hi float64) bool {
	r := sort.Search(len(pp.edgeLoY), func(i int) bool { return pp.edgeLoY[i] > hi })
	return r > 0 && pp.maxHiY[r-1] >= lo
}

// Polygon returns the canonical (resolved, snapped, even-odd) form of the
// layer. Callers must not mutate it.
func (pp *Prepared) Polygon() geom.Polygon { return pp.poly }

// Rule returns the fill rule the layer was prepared under.
func (pp *Prepared) Rule() engine.FillRule { return pp.rule }

// BBox returns the canonical layer's bounding box.
func (pp *Prepared) BBox() geom.BBox { return pp.box }

// SnapEps returns the power-of-two vertex grid the canonical form is welded
// onto.
func (pp *Prepared) SnapEps() float64 { return pp.eps }

// NumEdges returns the canonical edge count (the N of the O(lg N) culling).
func (pp *Prepared) NumEdges() int { return len(pp.edges) }

// Stats snapshots the clip counters.
func (pp *Prepared) Stats() Stats {
	return Stats{
		FastInside:  pp.fastInside.Load(),
		FastOutside: pp.fastOutside.Load(),
		ConvexClips: pp.convexClips.Load(),
		BandClips:   pp.bandClips.Load(),
		Rescues:     pp.rescues.Load(),
	}
}

// ClassifyRect classifies the window against the layer without emitting
// geometry and without touching the clip counters — the tile driver probes
// interior pyramid nodes with it, and only leaf tiles count.
func (pp *Prepared) ClassifyRect(box geom.BBox) Class {
	scr := pp.scratch.Get().(*scratch)
	cls := pp.classify(box, scr)
	pp.scratch.Put(scr)
	return cls
}

// classify runs the fast-path cascade. A Straddle leaves the window query's
// candidate edges in scr.ids and the first that meets the window in
// scr.first.
func (pp *Prepared) classify(box geom.BBox, scr *scratch) Class {
	if box.IsEmpty() || len(pp.poly) == 0 || !pp.box.Intersects(box) {
		return Outside
	}
	if pp.anyEdgeInYRange(box.MinY, box.MaxY) {
		scr.ids = pp.tree.SearchRect(box, scr.ids[:0])
		for _, id := range scr.ids {
			if geom.SegIntersectsBBox(pp.edges[id], box) {
				scr.first = id
				return Straddle
			}
		}
	}
	// No boundary meets the closed window, so the whole window lies in one
	// region; its center (strictly off every edge) decides which.
	if pp.containsPoint(box.Center(), scr) {
		return Inside
	}
	return Outside
}

// containsPoint is the even-odd test against the canonical layer via the
// edge R-tree: parity of boundary crossings along the upward vertical ray,
// O(lg N + k) instead of a scan of every edge.
func (pp *Prepared) containsPoint(pt geom.Point, scr *scratch) bool {
	odd := false
	for _, id := range pp.rayQuery(pt, scr) {
		if rayCrosses(pp.edges[id], pt) {
			odd = !odd
		}
	}
	return odd
}

// rayQuery returns the candidate edges of the upward vertical ray from pt.
// The slice is scratch.
func (pp *Prepared) rayQuery(pt geom.Point, scr *scratch) []int32 {
	ray := geom.BBox{MinX: pt.X, MinY: pt.Y, MaxX: pt.X, MaxY: math.Inf(1)}
	scr.rayIDs = pp.tree.SearchRect(ray, scr.rayIDs[:0])
	return scr.rayIDs
}

// rayRings returns the ring of each edge the upward vertical ray from pt
// crosses, rings for which skip reports true aside. The slice is scratch.
func (pp *Prepared) rayRings(pt geom.Point, scr *scratch, skip func(ri int32) bool) []int32 {
	scr.rings = scr.rings[:0]
	for _, id := range pp.rayQuery(pt, scr) {
		if !rayCrosses(pp.edges[id], pt) {
			continue
		}
		if ri := pp.edgeRing[id]; !skip(ri) {
			scr.rings = append(scr.rings, ri)
		}
	}
	return scr.rings
}

// oddRings counts the rings that occur an odd number of times in rings (the
// rings around the ray's origin), sorting rings in place.
func oddRings(rings []int32) int {
	slices.Sort(rings)
	odd := 0
	for i := 0; i < len(rings); {
		j := i + 1
		for j < len(rings) && rings[j] == rings[i] {
			j++
		}
		odd += (j - i) % 2
		i = j
	}
	return odd
}

// rayCrosses reports whether the upward vertical ray from pt crosses the
// edge, half-open in x so shared vertices count exactly once.
func rayCrosses(s geom.Segment, pt geom.Point) bool {
	a, b := s.A, s.B
	if (a.X > pt.X) == (b.X > pt.X) {
		return false
	}
	y := a.Y + (pt.X-a.X)/(b.X-a.X)*(b.Y-a.Y)
	return y > pt.Y
}

// nextEdge returns the edge after edge id around its ring.
func (pp *Prepared) nextEdge(id int32) int32 {
	ri := pp.edgeRing[id]
	if id++; id == pp.ringOff[ri+1] {
		return pp.ringOff[ri]
	}
	return id
}

// ringInterior reports whether ring ri lies strictly inside the box.
func (pp *Prepared) ringInterior(ri int32, b geom.BBox) bool {
	rb := pp.ringBox[ri]
	return rb.MinX > b.MinX && rb.MaxX < b.MaxX && rb.MinY > b.MinY && rb.MaxY < b.MaxY
}

// ringIsConvex reports whether the simple ring turns consistently in one
// direction (collinear triples allowed) — the precondition for the
// Sutherland–Hodgman straddle fast path, whose output against a convex
// window is a single clean piece only for convex subjects.
func ringIsConvex(r geom.Ring) bool {
	n := len(r)
	if n < 3 {
		return false
	}
	sign := 0
	for i := 0; i < n; i++ {
		o := geom.Orient(r[i], r[(i+1)%n], r[(i+2)%n])
		if o == geom.Collinear {
			continue
		}
		s := 1
		if o == geom.Clockwise {
			s = -1
		}
		if sign == 0 {
			sign = s
		} else if s != sign {
			return false
		}
	}
	return sign != 0
}

// Package prepared is the resolve-once/clip-many abstraction of the tile
// pipeline: a Prepared wraps one subject layer's resolved-and-snapped
// arrangement together with the spatial indexes that make clipping it
// against many axis-aligned windows output-sensitive — per-ring MBRs and an
// STR R-tree over the edges, whose window query is Skala's O(lg N) window
// reject for line clipping, lifted to the whole layer.
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
//	classify: MBR reject -> R-tree window query -> exact segment/box tests
//	Outside:  emit nothing               (no geometry touched)
//	Inside:   emit the window rectangle  (O(1) accept)
//	Straddle: one oriented pass over the edges the window query returned
//	          (Weiler–Atherton on the rectangle): chains of boundary through
//	          the open window, linked exit to next entry around the corners
//
// so the cost of a tile is proportional to the boundary inside it, not to
// the layer, for a lone convex ring as for any other.
package prepared

import (
	"math"
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
	ConvexClips uint64 `json:"convexClips"` // always 0; kept for benchmark/tiles.go
	BandClips   uint64 `json:"bandClips"`   // straddles served by the oriented route
	Rescues     uint64 `json:"rescues"`     // straddles rescued by the full sweep
}

// Sweeps returns the number of windows that reached a real clip.
func (s Stats) Sweeps() uint64 { return s.BandClips + s.Rescues }

// Prepared is a subject layer resolved, snapped, and indexed for repeated
// window clipping. It is immutable after Prepare and safe for concurrent use;
// the clip counters are atomic.
type Prepared struct {
	rule engine.FillRule
	eps  float64
	poly geom.Polygon // canonical even-odd form of the rule-R region
	box  geom.BBox

	ringBox  []geom.BBox
	ringOff  []int32 // ring ri's edges are edges[ringOff[ri]:ringOff[ri+1]]
	edges    []geom.Segment
	edgeRing []int32
	tree     *rtree.Tree

	fastInside  atomic.Uint64
	fastOutside atomic.Uint64
	bandClips   atomic.Uint64
	rescues     atomic.Uint64

	scratch sync.Pool
}

// scratch recycles the per-clip buffers; one Prepared serves many
// goroutines, so the buffers are pooled rather than owned.
type scratch struct {
	ids    []int32 // R-tree window query results
	rayIDs []int32 // R-tree ray query results

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
// so the canonical form has the resolved layer's vertices and no more.
func Canonicalize(p geom.Polygon, rule engine.FillRule) geom.Polygon {
	canon := vatti.Clip(p, nil, engine.Union, engine.Options{Rule: rule})
	return geom.SnapPolygon(canon, geom.AutoSnapEps(canon, nil))
}

// FromCanonical builds the window-clipping indexes over an already-canonical
// layer — the output of Canonicalize, possibly via a cache. The caller must
// not mutate canon afterwards. The index build is the cheap half: linear
// scans plus an STR bulk-load.
func FromCanonical(canon geom.Polygon, rule engine.FillRule) *Prepared {
	pp := &Prepared{rule: rule, eps: geom.AutoSnapEps(canon, nil), poly: canon, box: canon.BBox()}
	pp.scratch.New = func() any { return new(scratch) }
	pp.buildIndex()
	return pp
}

func (pp *Prepared) buildIndex() {
	for ri, r := range pp.poly {
		pp.ringBox = append(pp.ringBox, r.BBox())
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
}

func segBox(s geom.Segment) geom.BBox {
	lox, hix := s.XSpan()
	loy, hiy := s.YSpan()
	return geom.BBox{MinX: lox, MinY: loy, MaxX: hix, MaxY: hiy}
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

// Stats snapshots the clip counters.
func (pp *Prepared) Stats() Stats {
	return Stats{
		FastInside:  pp.fastInside.Load(),
		FastOutside: pp.fastOutside.Load(),
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
// candidate edges in scr.ids.
func (pp *Prepared) classify(box geom.BBox, scr *scratch) Class {
	if box.IsEmpty() || len(pp.poly) == 0 || !pp.box.Intersects(box) {
		return Outside
	}
	scr.ids = pp.tree.SearchRect(box, scr.ids[:0])
	for _, id := range scr.ids {
		if geom.SegIntersectsBBox(pp.edges[id], box) {
			return Straddle
		}
	}
	// No boundary meets the closed window, so the whole window lies in one
	// region; its center (strictly off every edge) decides which.
	if pp.containsPoint(box.Center(), scr, nil) {
		return Inside
	}
	return Outside
}

// containsPoint is the even-odd test against the canonical layer via the
// edge R-tree: parity of boundary crossings along the upward vertical ray,
// O(lg N + k) instead of a scan of every edge. Crossings on rings for which
// skip reports true are left out; skip may be nil.
func (pp *Prepared) containsPoint(pt geom.Point, scr *scratch, skip func(ri int32) bool) bool {
	ray := geom.BBox{MinX: pt.X, MinY: pt.Y, MaxX: pt.X, MaxY: math.Inf(1)}
	scr.rayIDs = pp.tree.SearchRect(ray, scr.rayIDs[:0])
	odd := false
	for _, id := range scr.rayIDs {
		if rayCrosses(pp.edges[id], pt) && (skip == nil || !skip(pp.edgeRing[id])) {
			odd = !odd
		}
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

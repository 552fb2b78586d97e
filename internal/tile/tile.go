// Package tile cuts a polygon layer into a z/x/y pyramid of square vector
// tiles — the output-sensitive workload the prepared-geometry pipeline was
// built for. One internal/prepared.Prepared of the layer serves every zoom
// level, and one quadtree descent cuts them all, visiting each node once:
// above MinZoom a node is classified, from MinZoom on it is clipped (the clip
// reports the same class), so whole subtrees of the pyramid are settled by
// one O(lg N) classification:
//
//   - an Outside node prunes its descendant tiles at every deeper zoom;
//   - an Inside node emits them as full tile rectangles;
//   - a Straddle node recurses, down to MaxZoom.
//
// The work done is proportional to the layer's boundary length per zoom
// (the tiles the boundary actually crosses), not to the 4^z tiles of the
// grid — the same output-sensitivity argument as the paper's clipping
// algorithm, lifted from one polygon to a pyramid.
//
// Cutting is parallelized over internal/par's per-call fork by splitting
// the descent at a frontier level sized to the worker count; because every
// tile's content is a pure function of its (z, x, y) key against the
// immutable Prepared, the final (z, x, y) sort makes the output bit-identical
// at any thread count.
package tile

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"polyclip/internal/acache"
	"polyclip/internal/engine"
	"polyclip/internal/geom"
	"polyclip/internal/par"
	"polyclip/internal/prepared"
)

// MaxZoomLimit bounds pyramid depth: 2^20 tiles per axis (a trillion-tile
// pyramid) is already far beyond anything the driver should materialize.
const MaxZoomLimit = 20

// Spec describes a tile pyramid: zoom levels MinZoom..MaxZoom over a square
// Extent, zoom z holding a 2^z by 2^z grid.
type Spec struct {
	MinZoom int       `json:"minZoom"`
	MaxZoom int       `json:"maxZoom"`
	Extent  geom.BBox `json:"extent"`
}

// Validate reports whether the spec is usable.
func (s Spec) Validate() error {
	switch {
	case s.MinZoom < 0 || s.MaxZoom < s.MinZoom:
		return fmt.Errorf("tile: bad zoom range [%d, %d]", s.MinZoom, s.MaxZoom)
	case s.MaxZoom > MaxZoomLimit:
		return fmt.Errorf("tile: max zoom %d exceeds limit %d", s.MaxZoom, MaxZoomLimit)
	case s.Extent.Width() <= 0 || s.Extent.Height() <= 0:
		return fmt.Errorf("tile: degenerate extent %+v", s.Extent)
	}
	return nil
}

// NumTiles returns the total leaf-tile count of the pyramid.
func (s Spec) NumTiles() int64 {
	var n int64
	for z := s.MinZoom; z <= s.MaxZoom; z++ {
		n += int64(1) << uint(2*z)
	}
	return n
}

// Box returns tile (x, y)'s window at zoom z. Grid lines are computed as
// extent-min + width*(i/2^z) so adjacent tiles share bit-identical
// boundaries.
func (s Spec) Box(z int, x, y int32) geom.BBox {
	n := float64(int64(1) << uint(z))
	return geom.BBox{
		MinX: s.Extent.MinX + s.Extent.Width()*(float64(x)/n),
		MinY: s.Extent.MinY + s.Extent.Height()*(float64(y)/n),
		MaxX: s.Extent.MinX + s.Extent.Width()*(float64(x+1)/n),
		MaxY: s.Extent.MinY + s.Extent.Height()*(float64(y+1)/n),
	}
}

// SquareExtent pads b to a square about its center — the usual way to build
// a Spec extent from a layer's bounding box, with a whisker of margin so the
// layer boundary never lies exactly on the pyramid border.
func SquareExtent(b geom.BBox) geom.BBox {
	w, h := b.Width(), b.Height()
	side := w
	if h > side {
		side = h
	}
	if side <= 0 {
		side = 1
	}
	side *= 1.0 + 1.0/1024
	cx, cy := (b.MinX+b.MaxX)/2, (b.MinY+b.MaxY)/2
	return geom.BBox{MinX: cx - side/2, MinY: cy - side/2, MaxX: cx + side/2, MaxY: cy + side/2}
}

// Tile is one non-empty pyramid cell: the layer's region clipped to the
// cell's window, in canonical even-odd form (CCW outers, CW holes).
type Tile struct {
	Z    int
	X, Y int32
	Poly geom.Polygon
}

// Options configures a Cut.
type Options struct {
	// Rule is the fill rule the layer is read under.
	Rule engine.FillRule
	// Threads caps the worker count; <=0 means par.DefaultParallelism.
	Threads int
	// Naive disables the prepared pipeline: every candidate tile runs a
	// full per-tile clip of the raw layer. The benchmark baseline.
	Naive bool
	// Cache, when non-nil, memoizes the layer's canonical form by digest
	// (internal/acache), so repeated cuts of the same layer — serve
	// traffic, multi-request batches — canonicalize once.
	Cache *acache.Cache
}

// Stats describes one Cut. JSON tags are stable; they surface in
// cmd/tilecut -stats and in POST /tile responses.
type Stats struct {
	Zooms    int            `json:"zooms"`
	Tiles    int64          `json:"tiles"`       // non-empty tiles emitted
	Leaves   int64          `json:"leaves"`      // leaf tiles that ran a clip
	Filled   int64          `json:"filledTiles"` // tiles emitted wholesale from Inside nodes
	Pruned   int64          `json:"prunedTiles"` // tiles skipped wholesale from Outside nodes
	Nodes    int64          `json:"nodes"`       // pyramid nodes classified or clipped
	Prepared prepared.Stats `json:"prepared"`    // leaf clip route counters (zero when naive)
}

// Cut slices the layer, read under opt.Rule, into the pyramid's non-empty
// tiles, sorted by (z, x, y). The output is deterministic: bit-identical for
// any Threads value.
func Cut(ctx context.Context, layer geom.Polygon, spec Spec, opt Options) ([]Tile, Stats, error) {
	if err := spec.Validate(); err != nil {
		return nil, Stats{}, err
	}
	threads := opt.Threads
	if threads <= 0 {
		threads = par.DefaultParallelism()
	}
	st := Stats{Zooms: spec.MaxZoom - spec.MinZoom + 1}

	var tiles []Tile
	if opt.Naive {
		for z := spec.MinZoom; z <= spec.MaxZoom; z++ {
			zt, err := cutZoomNaive(ctx, layer, spec, z, threads, opt.Rule, &st)
			if err != nil {
				return nil, st, err
			}
			tiles = append(tiles, zt...)
		}
	} else {
		canon := opt.Cache.Prepared(geom.Hash(layer), opt.Rule, func() geom.Polygon {
			return prepared.Canonicalize(layer, opt.Rule)
		})
		pp := prepared.FromCanonical(canon, opt.Rule)
		var err error
		if tiles, err = cutPrepared(ctx, pp, spec, threads, &st); err != nil {
			return nil, st, err
		}
		st.Prepared = pp.Stats()
	}

	sortTiles(tiles)
	st.Tiles = int64(len(tiles))
	return tiles, st, nil
}

// sortTiles orders tiles by (z, x, y). It sorts one packed key per tile,
// z<<58 | x<<29 | y (MaxZoomLimit keeps x and y below 2^29), with the tile's
// index, then permutes the tiles in place along the cycles of that order, so
// the 40-byte Tiles are not swapped during the sort and no second slice of
// them is made.
func sortTiles(tiles []Tile) {
	type keyed struct {
		key uint64
		i   int32
	}
	keys := make([]keyed, len(tiles))
	for i, t := range tiles {
		keys[i] = keyed{uint64(t.Z)<<58 | uint64(t.X)<<29 | uint64(t.Y), int32(i)}
	}
	slices.SortFunc(keys, func(a, b keyed) int { return cmp.Compare(a.key, b.key) })
	// Position j takes the tile at keys[j].i; a placed position is marked
	// by setting its index to itself.
	for k := range keys {
		if int(keys[k].i) == k {
			continue
		}
		first, j := tiles[k], k
		for {
			src := int(keys[j].i)
			keys[j].i = int32(j)
			if src == k {
				tiles[j] = first
				break
			}
			tiles[j] = tiles[src]
			j = src
		}
	}
}

// node is one pyramid cell.
type node struct {
	level int
	x, y  int32
}

// cutPrepared cuts every zoom in one descent: a serial descent to the
// frontier level settles the cheap upper pyramid (and whole Inside / Outside
// subtrees), then the surviving Straddle frontier nodes' subtrees fan out
// over internal/par's fork.
func cutPrepared(ctx context.Context, pp *prepared.Prepared, spec Spec, threads int, st *Stats) ([]Tile, error) {
	var out []Tile
	var work []node
	walk(pp, spec, node{}, frontierLevel(spec.MaxZoom, threads), st, &out, &work)
	if len(work) == 0 {
		return out, nil
	}
	results := make([][]Tile, len(work))
	stats := make([]Stats, len(work))
	err := par.ForEachCtx(ctx, len(work), threads, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for _, c := range children(work[i]) {
				walk(pp, spec, c, -1, &stats[i], &results[i], nil)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	for i := range work {
		out = append(out, results[i]...)
		st.Leaves += stats[i].Leaves
		st.Filled += stats[i].Filled
		st.Pruned += stats[i].Pruned
		st.Nodes += stats[i].Nodes
	}
	return out, nil
}

// walk settles n and, while it straddles, its subtree down to MaxZoom; a
// straddling node at level stop is queued on work instead of descended.
func walk(pp *prepared.Prepared, spec Spec, n node, stop int, st *Stats, out *[]Tile, work *[]node) {
	if visit(pp, spec, n, st, out) != prepared.Straddle || n.level == spec.MaxZoom {
		return
	}
	if n.level == stop {
		*work = append(*work, n)
		return
	}
	for _, c := range children(n) {
		walk(pp, spec, c, stop, st, out, work)
	}
}

// visit settles one pyramid node. Above MinZoom it is classified; from
// MinZoom on it is clipped, and its tile emitted when non-empty. An Outside
// node prunes, and an Inside node fills, its descendant tiles at every
// deeper zoom; a Straddle node is left for the caller to descend.
func visit(pp *prepared.Prepared, spec Spec, n node, st *Stats, out *[]Tile) prepared.Class {
	st.Nodes++
	box := spec.Box(n.level, n.x, n.y)
	var cls prepared.Class
	if n.level < spec.MinZoom {
		cls = pp.ClassifyRect(box)
	} else {
		st.Leaves++
		var poly geom.Polygon
		if poly, cls = pp.ClipRect(box); len(poly) > 0 {
			*out = append(*out, Tile{Z: n.level, X: n.x, Y: n.y, Poly: poly})
		}
	}
	if cls == prepared.Straddle {
		return cls
	}
	for z := max(n.level+1, spec.MinZoom); z <= spec.MaxZoom; z++ {
		sub := int64(1) << uint(2*(z-n.level)) // descendant tiles at zoom z
		if cls == prepared.Outside {
			st.Pruned += sub
		} else {
			st.Filled += sub
			fill(spec, z, n, out)
		}
	}
	return cls
}

// fill emits every leaf tile under the Inside node n as a full rectangle.
func fill(spec Spec, z int, n node, out *[]Tile) {
	shift := uint(z - n.level)
	for ty := n.y << shift; ty < (n.y+1)<<shift; ty++ {
		for tx := n.x << shift; tx < (n.x+1)<<shift; tx++ {
			b := spec.Box(z, tx, ty)
			*out = append(*out, Tile{Z: z, X: tx, Y: ty,
				Poly: geom.RectPolygon(b.MinX, b.MinY, b.MaxX, b.MaxY)})
		}
	}
}

// children returns n's four quadrant children in (y, x) order.
func children(n node) [4]node {
	l, x, y := n.level+1, n.x<<1, n.y<<1
	return [4]node{
		{l, x, y}, {l, x + 1, y},
		{l, x, y + 1}, {l, x + 1, y + 1},
	}
}

// frontierLevel picks the serial-descent depth for a pyramid whose deepest
// zoom is z: deep enough that the frontier can feed every worker several
// nodes (4^level >= 8*threads), shallow enough to keep the serial prefix
// trivial, and never past z.
func frontierLevel(z, threads int) int {
	level := 0
	for level < z && level < 6 && 1<<uint(2*level) < 8*threads {
		level++
	}
	return level
}

// cutZoomNaive is the per-tile full-clip baseline: every tile whose window
// meets the layer's bounding box is clipped from scratch against the raw
// layer. The bounding-box skip is the only concession — even a naive tiler
// checks MBRs — so the gate measures the prepared pipeline, not a strawman.
func cutZoomNaive(ctx context.Context, layer geom.Polygon, spec Spec, z, threads int, rule engine.FillRule, st *Stats) ([]Tile, error) {
	n := int32(1) << uint(z)
	lb := layer.BBox()
	x0, x1 := gridRange(lb.MinX, lb.MaxX, spec.Extent.MinX, spec.Extent.MaxX, n)
	y0, y1 := gridRange(lb.MinY, lb.MaxY, spec.Extent.MinY, spec.Extent.MaxY, n)
	nx, ny := int(x1-x0), int(y1-y0)
	if nx <= 0 || ny <= 0 {
		st.Pruned += int64(n) * int64(n)
		return nil, nil
	}
	st.Pruned += int64(n)*int64(n) - int64(nx)*int64(ny)

	results := make([][]Tile, ny)
	err := par.ForEachCtx(ctx, ny, threads, func(lo, hi int) {
		for row := lo; row < hi; row++ {
			ty := y0 + int32(row)
			for tx := x0; tx < x1; tx++ {
				poly := prepared.NaiveClipRect(layer, spec.Box(z, tx, ty), rule)
				if len(poly) > 0 {
					results[row] = append(results[row], Tile{Z: z, X: tx, Y: ty, Poly: poly})
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	var out []Tile
	for _, r := range results {
		out = append(out, r...)
	}
	st.Leaves += int64(nx) * int64(ny)
	st.Nodes += int64(nx) * int64(ny)
	return out, nil
}

// gridRange returns the [lo, hi) tile-index range whose cells meet [vmin,
// vmax] on one axis of an n-cell grid over [emin, emax].
func gridRange(vmin, vmax, emin, emax float64, n int32) (int32, int32) {
	if emax <= emin || vmax < emin || vmin > emax {
		return 0, 0
	}
	w := (emax - emin) / float64(n)
	lo := int32((vmin - emin) / w)
	hi := int32((vmax-emin)/w) + 1
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

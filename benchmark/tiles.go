package main

import (
	"math"
	"time"

	"polyclip"
	"polyclip/internal/acache"
	"polyclip/internal/data"
	"polyclip/internal/engine"
	"polyclip/internal/geom"
	"polyclip/internal/prepared"
	"polyclip/internal/tile"
)

// tileLayers is the number of layers the tiles workload cuts, one after
// another, each of tileRings rings. A cut of one 256-ring layer at zooms
// 0–7 takes over a second on one core, so a run would hold a dozen cuts; a
// cut of one 32-ring layer takes about a seventh of a second. The cost of a
// cut varies by about a fifth between layers of different seeds, so a run
// cuts many layers: with eight, the run's total moved by 10% from seed to
// seed (quartile spread), more than the host's noise.
const (
	tileLayers = 24
	tileRings  = 32
)

// runTiles cuts layers into z/x/y pyramids again and again through the warm
// process-wide arrangement cache: the prepared-geometry fast paths and band
// clips do the work, no engine sweep runs.
func runTiles(r *runner) error {
	nLayers, rings, maxZoom := tileLayers, tileRings, 7
	if r.cfg.small {
		nLayers, rings, maxZoom = 2, 8, 4
	}
	texts := make([]string, nLayers)
	for k := range texts {
		texts[k] = polyclip.FormatWKT(data.TileLayer(data.TileLayerOptions{Rings: rings, Seed: r.cfg.seed*100 + int64(k)}))
	}
	layers := make([]polyclip.Polygon, nLayers)
	err := r.timeSetup(r.setupReps(5), func() error {
		for k, text := range texts {
			var err error
			if layers[k], err = polyclip.ParseWKT(text); err != nil {
				return err
			}
			prepared.Prepare(layers[k], engine.EvenOdd)
		}
		return nil
	})
	if err != nil {
		return err
	}
	specs := make([]tile.Spec, nLayers)
	want := make([]float64, nLayers)
	tol := make([]float64, nLayers)
	for k, layer := range layers {
		specs[k] = tile.Spec{MinZoom: 0, MaxZoom: maxZoom, Extent: tile.SquareExtent(layer.BBox())}
		ext := specs[k].Extent
		extent := geom.RectPolygon(ext.MinX, ext.MinY, ext.MaxX, ext.MaxY)
		inside, _, err := polyclip.ClipCtx(r.ctx, layer, extent, polyclip.Intersection, polyclip.Options{Threads: threads})
		if err != nil {
			return err
		}
		want[k], tol[k] = inside.Area(), areaTol(layer, extent)
	}

	// The process-wide cache, as the program's own callers of tile.Cut (the
	// batch cutter, the server) use.
	opt := tile.Options{Rule: engine.EvenOdd, Threads: threads, Cache: acache.Shared()}
	var tiles []tile.Tile
	var tt tileTrace
	count := make([]int, nLayers)
	l := loop{ops: r.rounds(6, nLayers), inputs: nLayers,
		do: func(i int) (float64, error) {
			k := i % nLayers
			var err error
			if r.tracing {
				tiles, err = r.tracedCut(i, layers[k], specs[k], opt, &tt)
			} else {
				tiles, _, err = tile.Cut(r.ctx, layers[k], specs[k], opt)
			}
			return float64(specs[k].NumTiles()), err
		},
		// Every cut of a layer emits the same tiles, and at each zoom they
		// partition layer ∩ extent.
		post: func(i int) {
			k := i % nLayers
			if count[k] == 0 {
				count[k] = len(tiles)
			}
			r.check(len(tiles) == count[k], "cut %d emitted %d tiles, the layer's first cut %d", i, len(tiles), count[k])
			sum := make([]float64, maxZoom+1)
			for _, t := range tiles {
				sum[t.Z] += t.Poly.Area()
			}
			for z, s := range sum {
				r.check(math.Abs(s-want[k]) <= tol[k], "cut %d zoom %d: tile areas sum to %g, layer ∩ extent is %g", i, z, s, want[k])
			}
		},
	}
	if err := r.run(l); err != nil {
		return err
	}
	if r.tr != nil {
		r.tileLayers(&tt)
	}
	return nil
}

// tileTrace accumulates a traced tile run's counters.
type tileTrace struct {
	cuts                        int
	nodes, leaves, pruned, fill float64
	band, convex, fastPath      float64
	rescues                     uint64
	classifyCalls               int
	classifyTime                time.Duration
	leafUs                      []float64
}

// tracedCut runs one tile.Cut inside an entry span, then replays the layer
// functions it is made of on the same layer: canonicalization, the index
// build, ClassifyRect on every interior pyramid node and ClipRect on every
// straddling leaf.
func (r *runner) tracedCut(i int, layer polyclip.Polygon, spec tile.Spec, opt tile.Options, tt *tileTrace) ([]tile.Tile, error) {
	tr := r.tr
	var tiles []tile.Tile
	var st tile.Stats
	var err error
	tr.entry(i, "tile.cut", func(int) { tiles, st, err = tile.Cut(r.ctx, layer, spec, opt) })
	if err != nil {
		return nil, err
	}
	tt.cuts++
	tt.nodes += float64(st.Nodes)
	tt.leaves += float64(st.Leaves)
	tt.pruned += float64(st.Pruned)
	tt.fill += float64(st.Filled)
	tt.band += float64(st.Prepared.BandClips)
	tt.convex += float64(st.Prepared.ConvexClips)
	tt.rescues += st.Prepared.Rescues
	total := float64(spec.NumTiles())
	tt.fastPath += (total - float64(st.Prepared.Sweeps())) / total

	var canon polyclip.Polygon
	tr.layer(i, "prepared.canonicalize", false, func() { canon = prepared.Canonicalize(layer, opt.Rule) })
	var pp *prepared.Prepared
	tr.layer(i, "prepared.index", true, func() { pp = prepared.FromCanonical(canon, opt.Rule) })
	for z := spec.MinZoom; z <= spec.MaxZoom; z++ {
		// The quadtree descent of tile.Cut: classify interior nodes, descend
		// into straddling ones, clip the leaves reached.
		var leaves [][3]int32
		var walk func(level int, x, y int32)
		walk = func(level int, x, y int32) {
			if level == z {
				leaves = append(leaves, [3]int32{int32(level), x, y})
				return
			}
			tt.classifyCalls++
			if pp.ClassifyRect(spec.Box(level, x, y)) != prepared.Straddle {
				return
			}
			for _, c := range [4][2]int32{{0, 0}, {1, 0}, {0, 1}, {1, 1}} {
				walk(level+1, 2*x+c[0], 2*y+c[1])
			}
		}
		s := tr.layer(i, "prepared.classify", true, func() { walk(0, 0, 0) })
		tt.classifyTime += s.dur()
		tr.layer(i, "prepared.cliprect", true, func() {
			for _, lf := range leaves {
				t0 := time.Now()
				pp.ClipRect(spec.Box(int(lf[0]), lf[1], lf[2]))
				tt.leafUs = append(tt.leafUs, float64(time.Since(t0))/float64(time.Microsecond))
			}
		})
	}
	return tiles, nil
}

// tileLayers turns a traced tile run into per-layer metrics.
func (r *runner) tileLayers(tt *tileTrace) {
	L := r.tr.layers()
	m := r.layer
	n := float64(tt.cuts)
	m["trace.coverage"] = r.tr.coverage()
	m["tile.cut_ms"] = entryMeanMs(r.tr)
	m["prepared.canonicalize_s"] = L["prepared.canonicalize"].mean.Seconds()
	m["prepared.index_s"] = L["prepared.index"].mean.Seconds()
	m["prepared.classify_us"] = ratio(float64(tt.classifyTime)/float64(time.Microsecond), float64(tt.classifyCalls))
	m["prepared.cliprect_p50_us"] = percentile(tt.leafUs, 50)
	m["prepared.cliprect_p99_us"] = percentile(tt.leafUs, tailPercentile(len(tt.leafUs)))
	m["prepared.fast_path_ratio"] = ratio(tt.fastPath, n)
	m["prepared.band_clips"] = ratio(tt.band, n)
	m["prepared.convex_clips"] = ratio(tt.convex, n)
	m["prepared.rescues"] = float64(tt.rescues)
	m["tile.nodes"] = ratio(tt.nodes, n)
	m["tile.leaves"] = ratio(tt.leaves, n)
	m["tile.pruned"] = ratio(tt.pruned, n)
	m["tile.filled"] = ratio(tt.fill, n)
}

package batch

import (
	"context"
	"time"

	"polyclip/internal/acache"
	"polyclip/internal/engine"
	"polyclip/internal/geom"
	"polyclip/internal/tile"
)

// TileOptions configures a layer×pyramid batch cut: every feature of one
// layer cut into the same tile pyramid.
type TileOptions struct {
	// Spec is the pyramid every feature is cut into.
	Spec tile.Spec
	// Rule is the fill rule each feature is read under.
	Rule engine.FillRule
	// Threads bounds worker parallelism; <= 0 means all available CPUs.
	Threads int
	// Naive disables the prepared pipeline (per-tile full clips) — the
	// benchmark baseline.
	Naive bool
	// Cache is the prepare cache; nil uses the process-wide shared cache
	// unless NoCache is set. Repeated features (shared basemaps)
	// canonicalize once.
	Cache *acache.Cache
	// NoCache disables caching entirely.
	NoCache bool
}

// TileOutput is one non-empty tile of one feature.
type TileOutput struct {
	Feature int32
	Z       int
	X, Y    int32
	Poly    geom.Polygon
}

// TileStats reports one batch cut. Duration fields are nanoseconds on the
// wire, matching the batch Stats convention.
type TileStats struct {
	Features int           `json:"features"`
	Tiles    int64         `json:"tiles"`
	Cut      tile.Stats    `json:"cut"`    // summed across features
	Clip     time.Duration `json:"clipNs"` // wall time of the cutting loop
	Cache    acache.Stats  `json:"cache"`  // this run's delta
}

// CutTiles cuts every feature of the layer into the pyramid and returns the
// non-empty tiles in canonical (feature, z, x, y) order. Features are cut
// sequentially — each Cut parallelizes internally over internal/par's fork,
// and per-feature tile content is independent of every other feature — so
// the output is bit-identical at any thread count.
func CutTiles(ctx context.Context, features []geom.Polygon, opt TileOptions) ([]TileOutput, *TileStats, error) {
	if err := opt.Spec.Validate(); err != nil {
		return nil, nil, err
	}
	cache := opt.Cache
	if cache == nil && !opt.NoCache {
		cache = acache.Shared()
	}
	if opt.NoCache {
		cache = nil
	}
	cacheBase := cache.Stats()

	st := &TileStats{Features: len(features)}
	cutOpt := tile.Options{
		Rule:    opt.Rule,
		Threads: opt.Threads,
		Naive:   opt.Naive,
		Cache:   cache,
	}
	start := time.Now()
	var out []TileOutput
	for fi, f := range features {
		if err := ctx.Err(); err != nil {
			return nil, st, err
		}
		tiles, cst, err := tile.Cut(ctx, f, opt.Spec, cutOpt)
		if err != nil {
			return nil, st, err
		}
		for _, t := range tiles {
			out = append(out, TileOutput{Feature: int32(fi), Z: t.Z, X: t.X, Y: t.Y, Poly: t.Poly})
		}
		st.Cut = addTileStats(st.Cut, cst)
	}
	st.Clip = time.Since(start)
	st.Tiles = int64(len(out))
	st.Cache = cache.Stats().Delta(cacheBase)
	return out, st, nil
}

// addTileStats sums per-feature cut stats (Zooms is per-feature identical,
// kept from the last).
func addTileStats(a, b tile.Stats) tile.Stats {
	a.Zooms = b.Zooms
	a.Tiles += b.Tiles
	a.Leaves += b.Leaves
	a.Filled += b.Filled
	a.Pruned += b.Pruned
	a.Nodes += b.Nodes
	a.Prepared.FastInside += b.Prepared.FastInside
	a.Prepared.FastOutside += b.Prepared.FastOutside
	a.Prepared.ConvexClips += b.Prepared.ConvexClips
	a.Prepared.BandClips += b.Prepared.BandClips
	a.Prepared.Rescues += b.Prepared.Rescues
	return a
}

// Package polyclip is an output-sensitive parallel polygon clipping library:
// a Go implementation of Puri & Prasad, "Output-Sensitive Parallel Algorithm
// for Polygon Clipping" (ICPP 2014).
//
// It computes boolean operations — intersection, union, difference and
// symmetric difference — between arbitrary polygons: convex, concave,
// multi-contour, and self-intersecting, under the even-odd, nonzero,
// positive or negative fill rule. Four execution strategies are provided:
//
//   - AlgoOverlay (default): a parallel subdivision/classification engine
//     built from the paper's primitives (scanbeams, parity prefix sums,
//     inversion-counting intersection detection).
//   - AlgoSlabs: the paper's multi-threaded Algorithm 2 — the input is cut
//     into horizontal slabs balanced by event count, each slab is clipped
//     by a sequential engine, and the seams are stitched away.
//   - AlgoScanbeam: the multicore realization of the paper's CREW PRAM
//     Algorithm 1 — fully parallel over scanbeams, with output-sensitive
//     work accounting.
//   - AlgoSequential: the single-threaded scanbeam sweep, the Vatti/GPC
//     reference.
//
// Quick start:
//
//	a := polyclip.Polygon{{{0, 0}, {4, 0}, {4, 4}, {0, 4}}}
//	b := polyclip.Polygon{{{2, 2}, {6, 2}, {6, 6}, {2, 6}}}
//	out := polyclip.Clip(a, b, polyclip.Intersection)
//
// Every entry point that clips runs the hardened pipeline of ClipCtx:
// operands are validated and repaired, and engines run inside the
// differential-fallback chain. Clip and ClipWith are ClipCtx without the
// error. Layers of polygon features (GIS overlay) are clipped pair by pair
// through OverlayBatchCtx and OverlayBatchLayersCtx, and as two fused
// regions through OverlayLayersMerged(Ctx); a whole set of polygons is
// dissolved, intersected or xored by ClipAllCtx's reduction tree (the
// paper's Fig. 6). WKT I/O goes through ParseWKT and FormatWKT, GeoJSON
// through ParseGeoJSON and FormatGeoJSON.
package polyclip

import (
	"context"

	"polyclip/internal/core"
	"polyclip/internal/engine"
	"polyclip/internal/geojson"
	"polyclip/internal/geom"
	"polyclip/internal/wkt"
)

// Geometric types re-exported from the geometry kernel.
type (
	// Point is a point in the plane.
	Point = geom.Point
	// Ring is a closed polygonal chain (implicitly closed, first vertex not
	// repeated).
	Ring = geom.Ring
	// Polygon is a set of rings interpreted under the even-odd fill rule.
	Polygon = geom.Polygon
	// BBox is an axis-aligned bounding box.
	BBox = geom.BBox
	// Layer is a set of polygon features (a GIS layer).
	Layer = core.Layer
)

// Op is a boolean clipping operation (canonical type: internal/engine).
type Op = engine.Op

// Supported operations.
const (
	Intersection = engine.Intersection
	Union        = engine.Union
	Difference   = engine.Difference
	Xor          = engine.Xor
)

// Algorithm selects the execution strategy.
type Algorithm uint8

// Available algorithms.
const (
	// AlgoOverlay is the parallel subdivision engine (default).
	AlgoOverlay Algorithm = iota
	// AlgoSlabs is the paper's multi-threaded slab decomposition
	// (Algorithm 2).
	AlgoSlabs
	// AlgoScanbeam is the paper's Algorithm 1 parallel-over-scanbeams
	// pipeline.
	AlgoScanbeam
	// AlgoSequential is the single-threaded scanbeam sweep (the Vatti/GPC
	// reference).
	AlgoSequential
)

// FillRule decides which winding numbers count as interior (canonical type:
// internal/engine).
type FillRule = engine.FillRule

// Supported fill rules. Every Algorithm implements every rule.
const (
	// EvenOdd (default): inside = odd crossing parity, as in GPC and the
	// paper.
	EvenOdd = engine.EvenOdd
	// NonZero: inside = nonzero winding number (vector-graphics rule).
	NonZero = engine.NonZero
	// Positive: inside = winding number > 0 (counter-clockwise regions).
	Positive = engine.Positive
	// Negative: inside = winding number < 0 (clockwise regions).
	Negative = engine.Negative
)

// ErrUnsupported tags a fill rule or Algorithm that is not one of the
// declared constants. Every Algorithm serves every rule, so nothing else is
// rejected; such a request names no strategy, and the library refuses it
// rather than serving it with a default one. Test with errors.Is.
var ErrUnsupported = engine.ErrUnsupported

// Options configures ClipWith and the hardened Ctx entry points.
type Options struct {
	// Algorithm selects the execution strategy; zero value is AlgoOverlay.
	// A value that is not one of the four constants returns an error
	// wrapping ErrUnsupported.
	Algorithm Algorithm
	// Threads bounds the parallelism; <= 0 means all available CPUs.
	Threads int
	// Rule is the fill rule; every Algorithm hosts all four (the scanbeam
	// engines sweep signed winding counts, the slab decomposition
	// normalizes winding operands before partitioning). A value that is not
	// one of the four constants returns an error wrapping ErrUnsupported.
	Rule FillRule
	// Slabs is the slab count for AlgoSlabs; 0 derives it from the input's
	// size and the thread count.
	Slabs int
	// NoFallback disables the differential-fallback chain: the first engine
	// failure (panic or failed audit) surfaces directly instead of being
	// retried on a coarser grid or a different engine.
	NoFallback bool
	// Degraded restricts the fallback chain to its cheap tail — the
	// coarse-grid and sequential steps — and forces single-threaded
	// execution. It is the load-shedding mode of the clipd service:
	// overflow traffic is served at reduced fidelity and bounded cost
	// instead of being dropped. Attempt names in Stats.Resilience
	// still identify the steps taken (e.g. "overlay-coarse:ok").
	Degraded bool
}

// Stats reports phase timings, the engine that produced the accepted result
// (Stats.Engine), and the resilience record (canonical type:
// internal/engine).
type Stats = engine.Stats

// Clip computes `subject op clip` with the default strategy on all CPUs.
// It never returns an error: invalid inputs yield an empty result and
// recoverable failures are absorbed by the fallback chain. Use ClipCtx for
// error reporting and cancellation.
func Clip(subject, clip Polygon, op Op) Polygon {
	out, _, _ := ClipCtx(context.Background(), subject, clip, op, Options{})
	return out
}

// ClipWith computes `subject op clip` with explicit strategy and
// parallelism through the hardened pipeline (see ClipCtx). It never
// returns an error; Stats.Resilience records any repair or fallback taken.
func ClipWith(subject, clip Polygon, op Op, opt Options) (Polygon, *Stats) {
	out, st, _ := ClipCtx(context.Background(), subject, clip, op, opt)
	return out, st
}

// OverlayLayersMerged fuses each layer into one even-odd region and clips
// the regions — supports whole-layer union/difference. Like
// OverlayLayersMergedCtx it always runs AlgoSlabs and ignores
// Options.Algorithm. It never returns an error; use OverlayLayersMergedCtx
// for error reporting and cancellation.
func OverlayLayersMerged(a, b Layer, op Op, opt Options) (Polygon, *Stats) {
	out, st, _ := OverlayLayersMergedCtx(context.Background(), a, b, op, opt)
	return out, st
}

// ParseWKT parses a POLYGON or MULTIPOLYGON Well-Known Text string.
func ParseWKT(s string) (Polygon, error) { return wkt.Unmarshal(s) }

// FormatWKT renders a polygon as Well-Known Text.
func FormatWKT(p Polygon) string { return wkt.Marshal(p) }

// Area returns the even-odd area of a polygon whose rings follow the
// library's output convention (counter-clockwise outers, clockwise holes).
func Area(p Polygon) float64 { return p.Area() }

// ParseGeoJSON parses a GeoJSON Polygon, MultiPolygon, or Feature.
func ParseGeoJSON(data []byte) (Polygon, error) { return geojson.Unmarshal(data) }

// FormatGeoJSON renders a polygon as a GeoJSON geometry.
func FormatGeoJSON(p Polygon) ([]byte, error) { return geojson.Marshal(p) }

// ParseGeoJSONLayer parses a GeoJSON FeatureCollection into a layer.
func ParseGeoJSONLayer(data []byte) (Layer, error) {
	fs, err := geojson.UnmarshalLayer(data)
	return Layer(fs), err
}

// FormatGeoJSONLayer renders a layer as a GeoJSON FeatureCollection.
func FormatGeoJSONLayer(l Layer) ([]byte, error) { return geojson.MarshalLayer(l) }

// Vector-tile chaos family. A tiles workload is a layer (operand A) plus a
// pyramid extent window (operand B, a CCW rectangle ring); instead of the
// pairwise boolean invariants, the check cuts the layer into a z/x/y
// pyramid through internal/tile and holds the cut to the measure-theoretic
// contract that makes tiling correct at all: the tiles at every zoom are a
// partition of the layer clipped to the pyramid extent, so their areas must
// sum to |layer ∩ extent| — computed independently through the full
// hardened clip pipeline (which is also where injected faults land).
package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"polyclip"
	"polyclip/internal/tile"
)

// tileRuleCycle maps the workload's op slot (i / len(gens) % 4) onto a fill
// rule, so a long chaos run exercises the tile cutter under every rule.
var tileRuleCycle = []polyclip.FillRule{
	polyclip.EvenOdd, polyclip.NonZero, polyclip.Positive, polyclip.Negative,
}

// genTilesRings is the clean tiles baseline: a handful of scattered star
// rings (some self-intersecting, some holed) inside a [0,32]^2 extent.
func genTilesRings(rng *rand.Rand) (polyclip.Polygon, polyclip.Polygon) {
	n := 4 + rng.Intn(5)
	var layer polyclip.Polygon
	for i := 0; i < n; i++ {
		cx, cy := 3+26*rng.Float64(), 3+26*rng.Float64()
		r := 1.5 + 2.5*rng.Float64()
		k := 5 + rng.Intn(8)
		layer = append(layer, star(cx, cy, r, r*(0.5+0.45*rng.Float64()), k, rng.Float64()))
		if rng.Intn(3) == 0 {
			hole := star(cx, cy, r*0.4, r*0.35, k, rng.Float64())
			reverseRing(hole)
			layer = append(layer, hole)
		}
	}
	return layer, polyclip.Polygon{rectRing(0, 0, 32, 32, false)}
}

// genTilesWinding builds layers whose region depends on the fill rule:
// overlapping same-winding rectangles (winding 2), a sometimes-reversed
// ring (winding -1), and a bowtie whose lobes cancel under shoelace.
func genTilesWinding(rng *rand.Rand) (polyclip.Polygon, polyclip.Polygon) {
	layer := polyclip.Polygon{
		rectRing(1, 1, 9, 9, false),
		rectRing(float64(4+rng.Intn(3)), float64(4+rng.Intn(3)), 13, 13, false),
		rectRing(2, 10, 7, 15, rng.Intn(2) == 0),
	}
	cx, cy := 10+4*rng.Float64(), 2+3*rng.Float64()
	layer = append(layer, polyclip.Ring{
		{X: cx - 2, Y: cy - 2}, {X: cx + 2, Y: cy + 2},
		{X: cx + 2, Y: cy - 2}, {X: cx - 2, Y: cy + 2},
	})
	return layer, polyclip.Polygon{rectRing(0, 0, 16, 16, false)}
}

// genTilesAligned constructs the degenerate tiling case exactly: every ring
// coordinate is an even integer inside a [0,16]^2 extent, so at the deepest
// checked zoom (tile width 2) every ring edge is collinear with a tile
// boundary and every ring corner lands on a tile corner.
func genTilesAligned(rng *rand.Rand) (polyclip.Polygon, polyclip.Polygon) {
	n := 3 + rng.Intn(4)
	var layer polyclip.Polygon
	for i := 0; i < n; i++ {
		x0 := float64(2 * rng.Intn(6))
		y0 := float64(2 * rng.Intn(6))
		w := float64(2 * (1 + rng.Intn(3)))
		h := float64(2 * (1 + rng.Intn(3)))
		layer = append(layer, rectRing(x0, y0, x0+w, y0+h, false))
	}
	// A square with a flush grid-aligned hole: the hole boundary coincides
	// with interior tile boundaries too.
	layer = append(layer, rectRing(4, 4, 12, 12, false), rectRing(6, 6, 10, 10, true))
	return layer, polyclip.Polygon{rectRing(0, 0, 16, 16, false)}
}

// reversed returns a copy of p with every ring's winding flipped.
func reversed(p polyclip.Polygon) polyclip.Polygon {
	out := make(polyclip.Polygon, len(p))
	for i, r := range p {
		out[i] = append(polyclip.Ring(nil), r...)
		reverseRing(out[i])
	}
	return out
}

// reverseRing flips a ring's winding in place.
func reverseRing(r polyclip.Ring) {
	for i, j := 0, len(r)-1; i < j; i, j = i+1, j-1 {
		r[i], r[j] = r[j], r[i]
	}
}

// checkTiles runs the tiles invariant suite for one workload (dispatched
// from checkCase by the "tiles-" name prefix).
func (e *engine) checkTiles(ci int, w workload) {
	layer, window := w.a, w.b
	rule := tileRuleCycle[int(w.op)%len(tileRuleCycle)]
	ext := window.BBox()
	spec := tile.Spec{MinZoom: 0, MaxZoom: 3, Extent: ext}

	// Reference measure |layer ∩ extent| through the full hardened clip
	// pipeline — under -faults, this is the clip the armed guard sites can
	// hit. The sweep applies the fill rule to each operand separately, so a
	// CCW window reads as empty under Negative; flip it, exactly as the
	// prepared package's naive baseline does, and flip the layer, whose
	// rings are mostly CCW too, so that the case cuts a non-empty region.
	rect := window
	if rule == polyclip.Negative {
		layer, rect = reversed(layer), reversed(window)
	}
	ref, okRef := e.areaOf(ci, w, layer, rect, polyclip.Intersection,
		polyclip.Options{Threads: e.cfg.Threads, Rule: rule})
	if !okRef {
		return
	}
	scale := ext.Width() * ext.Height()

	prep, okPrep := e.cutTiles(ci, w, layer, spec, rule, e.cfg.Threads, false)
	if okPrep {
		// The partition invariant, per zoom: tiles at zoom z cover exactly
		// the clipped layer, overlapping only on measure-zero boundaries.
		for z := spec.MinZoom; z <= spec.MaxZoom; z++ {
			e.check(ci, w, fmt.Sprintf("tiles-cover-z%d", z), zoomArea(prep, z), ref, scale)
		}
	}

	// The naive per-tile full-clip baseline must agree tile by tile: same
	// keys, same per-zoom measure.
	if naive, ok := e.cutTiles(ci, w, layer, spec, rule, e.cfg.Threads, true); ok && okPrep {
		e.rep.InvariantChecks++
		if pk, nk := tileKeys(prep), tileKeys(naive); pk != nk {
			e.rep.InvariantFailures++
			e.record(ci, w.name, "tiles-naive-keys",
				fmt.Sprintf("prepared emitted %q, naive %q", pk, nk))
		}
		for z := spec.MinZoom; z <= spec.MaxZoom; z++ {
			e.check(ci, w, fmt.Sprintf("tiles-naive-z%d", z), zoomArea(naive, z), zoomArea(prep, z), scale)
		}
	}

	// Thread determinism: a single-threaded cut must be bit-identical to
	// the parallel one, coordinates included.
	if one, ok := e.cutTiles(ci, w, layer, spec, rule, 1, false); ok && okPrep {
		e.rep.InvariantChecks++
		if tilesText(one) != tilesText(prep) {
			e.rep.InvariantFailures++
			e.record(ci, w.name, "tiles-determinism",
				fmt.Sprintf("threads=1 cut differs from threads=%d", e.cfg.Threads))
		}
	}
}

// cutTiles runs one pyramid cut under the run budget, classifying any error
// the same way e.clip does for pairwise clips.
func (e *engine) cutTiles(ci int, w workload, layer polyclip.Polygon, spec tile.Spec, rule polyclip.FillRule, threads int, naive bool) ([]tile.Tile, bool) {
	e.rep.Clips++
	ctx := context.Background()
	if e.cfg.Budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.cfg.Budget)
		defer cancel()
	}
	out, st, err := tile.Cut(ctx, layer, spec, tile.Options{Rule: rule, Threads: threads, Naive: naive})
	if err != nil {
		if structuredErr(err) {
			e.rep.StructuredErrors++
		} else {
			e.rep.UnstructuredErrors++
			e.record(ci, w.name, "unstructured-error", err.Error())
		}
		return nil, false
	}
	// A clean cut's leaf clips never need the sweep rescue: a rescue there
	// is a prepared-route bug that would otherwise show only as a slow cut.
	if !naive && !e.cfg.Faults {
		e.rep.InvariantChecks++
		if n := st.Prepared.Rescues; n > 0 {
			e.rep.InvariantFailures++
			e.record(ci, w.name, "tiles-rescue", fmt.Sprintf("%d leaf clips rescued by the sweep", n))
		}
	}
	return out, true
}

// zoomArea sums the (canonical, hole-aware) shoelace areas of the tiles at
// one zoom level.
func zoomArea(ts []tile.Tile, z int) float64 {
	var s float64
	for _, t := range ts {
		if t.Z == z {
			s += polyclip.Area(t.Poly)
		}
	}
	return s
}

// tileKeys renders the emitted z/x/y key sequence, order included.
func tileKeys(ts []tile.Tile) string {
	var sb strings.Builder
	for _, t := range ts {
		fmt.Fprintf(&sb, "%d/%d/%d ", t.Z, t.X, t.Y)
	}
	return sb.String()
}

// tilesText renders keys plus full coordinate text, so any bitwise output
// difference between two cuts shows up.
func tilesText(ts []tile.Tile) string {
	var sb strings.Builder
	for _, t := range ts {
		fmt.Fprintf(&sb, "%d/%d/%d:%s;", t.Z, t.X, t.Y, polyclip.FormatWKT(t.Poly))
	}
	return sb.String()
}

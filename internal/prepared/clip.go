package prepared

import (
	"polyclip/internal/bandclip"
	"polyclip/internal/engine"
	"polyclip/internal/geom"
	"polyclip/internal/shclip"
	"polyclip/internal/vatti"
)

// ClipRect clips the prepared layer to the window and reports which route
// served it. The result is the even-odd region layer ∩ box with canonical
// ring orientations (CCW outers, CW holes); nil when empty.
//
// The straddle route decomposes per ring. Because no ring's boundary both
// crosses the window and stays out of the sweep set, each ring falls into
// exactly one bucket:
//
//   - MBR disjoint from the window: contributes nothing, skipped;
//   - boundary meets the window (marked by classify): clipped for real;
//   - entirely inside the window: passed through verbatim;
//   - otherwise the window lies wholly inside or wholly outside the ring's
//     region — constant parity over the window — so rings containing the
//     window's center toggle one surround bit, and an odd surround appends
//     the window rectangle itself (the even-odd complement trick: XOR-ing
//     the full window flips the clipped region's parity inside it).
//
// A panic anywhere in the fast route is rescued by the full prepared sweep
// (SweepRect), mirroring the engine resilience convention.
func (pp *Prepared) ClipRect(box geom.BBox) (out geom.Polygon, cls Class) {
	scr := pp.scratch.Get().(*scratch)
	defer pp.scratch.Put(scr)
	if scr.ringHit == nil || len(scr.ringHit) < len(pp.poly) {
		scr.ringHit = make([]bool, len(pp.poly))
		scr.rayOdd = make([]bool, len(pp.poly))
	}

	cls = pp.classify(box, scr, true)
	switch cls {
	case Outside:
		pp.fastOutside.Add(1)
		return nil, cls
	case Inside:
		pp.fastInside.Add(1)
		return geom.RectPolygon(box.MinX, box.MinY, box.MaxX, box.MaxY), cls
	}

	defer func() {
		for _, ri := range scr.hits {
			scr.ringHit[ri] = false
		}
		scr.hits = scr.hits[:0]
		if r := recover(); r != nil {
			pp.rescues.Add(1)
			out = pp.SweepRect(box)
		}
	}()

	// Per-ring parity at the window center, all rings in one ray query: the
	// surround test below must not re-scan each big ring.
	_, rayIDs := pp.containsPoint(box.Center(), scr)
	for _, id := range rayIDs {
		if rayCrosses(pp.edges[id], box.Center()) {
			ri := pp.edgeRing[id]
			if !scr.rayOdd[ri] {
				scr.odds = append(scr.odds, ri)
			}
			scr.rayOdd[ri] = !scr.rayOdd[ri]
		}
	}

	scr.sweep = scr.sweep[:0]
	surround := 0
	sweepRing := -1 // ring index of the sole sweep ring, when there is one
	for ri, r := range pp.poly {
		rb := pp.ringBox[ri]
		if !rb.Intersects(box) {
			continue
		}
		switch {
		case scr.ringHit[ri]:
			scr.sweep = append(scr.sweep, r)
			sweepRing = ri
		case box.ContainsBBox(rb):
			out = append(out, r.Clone())
		case scr.rayOdd[ri]:
			surround++
		}
	}
	for _, ri := range scr.odds {
		scr.rayOdd[ri] = false
	}
	scr.odds = scr.odds[:0]

	switch {
	case len(scr.sweep) == 1 && surround == 0 && len(out) == 0 && pp.ringConvex[sweepRing]:
		// Single convex ring straddling an otherwise untouched window: the
		// classic Sutherland–Hodgman case, one linear pass, single piece.
		pp.convexClips.Add(1)
		clipped := shclip.SutherlandHodgman(scr.sweep[0], geom.Rect(box.MinX, box.MinY, box.MaxX, box.MaxY))
		if len(clipped) >= 3 && clipped.Area() > 0 {
			out = geom.Polygon{clipped}
		}
	case len(scr.sweep) > 0:
		pp.bandClips.Add(1)
		partial := bandclip.Clip(scr.sweep, box.MinY, box.MaxY)
		partial = bandclip.Clip(partial.Transpose(), box.MinX, box.MaxX).Transpose()
		out = append(out, partial...)
	default:
		pp.bandClips.Add(1)
	}
	if surround%2 == 1 {
		out = append(out, geom.Rect(box.MinX, box.MinY, box.MaxX, box.MaxY))
	}
	return finalizeTile(out), cls
}

// finalizeTile canonicalizes a tile's ring set: a single piece is oriented
// CCW in place of a full sweep, while multi-ring outputs — where passthrough
// holes, band-clip pieces and a surround rectangle can nest or share
// boundary — run through one small union-with-empty sweep, which cancels
// coincident boundary by parity and reorients everything canonically. The
// sweep's cost follows the tile's output size, never the layer.
func finalizeTile(out geom.Polygon) geom.Polygon {
	switch len(out) {
	case 0:
		return nil
	case 1:
		r := out[0]
		if len(r) < 3 || r.Area() == 0 {
			return nil
		}
		if !r.IsCCW() {
			r = r.Clone()
			r.Reverse()
		}
		return geom.Polygon{r}
	}
	return vatti.ClipRule(out, nil, engine.Union, engine.EvenOdd)
}

// SweepRect is the differential/rescue route: the same window clip computed
// by the full scanbeam sweep (vatti.ClipRule) of the canonical layer against
// the window rectangle.
func (pp *Prepared) SweepRect(box geom.BBox) geom.Polygon {
	rect := geom.RectPolygon(box.MinX, box.MinY, box.MaxX, box.MaxY)
	return vatti.ClipRule(pp.poly, rect, engine.Intersection, engine.EvenOdd)
}

// NaiveClipRect is the baseline that tile's TestPreparedBeatsNaive holds
// the prepared pipeline to (at least 2x faster): a full per-window clip of
// the raw source layer — joint resolution, sweep, stitch — with nothing
// reused across windows. The sweep applies the fill rule to each operand's
// own winding, so the window rectangle is oriented to read as inside under
// the rule: counter-clockwise (winding +1) for every rule except Negative,
// which needs clockwise (winding -1).
func NaiveClipRect(src geom.Polygon, box geom.BBox, rule engine.FillRule) geom.Polygon {
	rect := geom.RectPolygon(box.MinX, box.MinY, box.MaxX, box.MaxY)
	if rule == engine.Negative {
		rect[0].Reverse()
	}
	return vatti.ClipRule(src, rect, engine.Intersection, rule)
}

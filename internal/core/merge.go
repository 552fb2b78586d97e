package core

import (
	"polyclip/internal/geom"
	"polyclip/internal/overlay"
	"polyclip/internal/par"
	"polyclip/internal/ringstitch"
)

// mergePartials combines per-slab outputs (paper Step 8 / Fig. 6).
func mergePartials(partial []geom.Polygon, bounds []float64, mode MergeMode, snapEps float64, p int) geom.Polygon {
	switch mode {
	case MergeConcat:
		var out geom.Polygon
		for _, pp := range partial {
			out = append(out, pp...)
		}
		return out
	case MergeUnionTree:
		out, _ := ReduceTree(partial, p, func(a, b geom.Polygon) (geom.Polygon, error) {
			return overlay.Clip(a, b, overlay.Union, overlay.Options{Parallelism: 1}), nil
		})
		return out
	default:
		return mergeStitch(partial, bounds, snapEps, p)
	}
}

// mergeStitch erases the horizontal seam edges along interior slab
// boundaries: partial outputs are decomposed into directed edges (interior
// on the left, which both engines guarantee), the horizontal edges lying on
// an interior boundary are net-cancelled per boundary (ringstitch.NetCaps:
// adjacent slabs contribute opposite directions over shared intervals), and
// the surviving edges are restitched into rings.
func mergeStitch(partial []geom.Polygon, bounds []float64, snapEps float64, p int) geom.Polygon {
	// Boundaries and partial-output vertices quantize onto the run's shared
	// grid, so seam caps from adjacent slabs meet on identical coordinates.
	lineY := make([]float64, len(bounds))
	interior := make(map[float64]int, len(bounds))
	for i := 1; i < len(bounds)-1; i++ {
		lineY[i] = geom.SnapPoint(geom.Point{Y: bounds[i]}, snapEps).Y
		interior[lineY[i]] = i
	}

	capsPer := make([][]ringstitch.Cap, len(bounds))
	total := 0
	for _, pp := range partial {
		for _, r := range pp {
			total += len(r)
		}
	}
	rest := make([]ringstitch.Edge, 0, total)

	for _, pp := range partial {
		for _, r := range pp {
			n := len(r)
			for i := 0; i < n; i++ {
				a := geom.SnapPoint(r[i], snapEps)
				b := geom.SnapPoint(r[(i+1)%n], snapEps)
				if a == b {
					continue
				}
				if a.Y == b.Y {
					if bi, ok := interior[a.Y]; ok {
						c := ringstitch.Cap{Y: lineY[bi], X0: a.X, X1: b.X, Dir: +1}
						if b.X < a.X {
							c.X0, c.X1, c.Dir = b.X, a.X, -1
						}
						capsPer[bi] = append(capsPer[bi], c)
						continue
					}
				}
				rest = append(rest, ringstitch.Edge{From: a, To: b})
			}
		}
	}

	// Net cancellation per interior boundary, in parallel.
	results := make([][]ringstitch.Edge, len(bounds))
	par.ForEachItem(len(bounds), p, func(bi int) {
		results[bi] = ringstitch.NetCaps(nil, capsPer[bi])
	})
	for _, es := range results {
		rest = append(rest, es...)
	}
	return ringstitch.Stitch(rest)
}

// ReduceTree folds items with combine by the paper's Fig. 6 reduction tree:
// the items sit at the leaves of a complete binary tree, each internal node
// combines its two children, and every level's combines run concurrently
// with parallelism p — O(log n) rounds. An odd item out rides up a level
// unchanged. The first error of a level, in item order, ends the fold. nil
// in gives nil out; one item comes back as it is.
func ReduceTree(items []geom.Polygon, p int, combine func(a, b geom.Polygon) (geom.Polygon, error)) (geom.Polygon, error) {
	if len(items) == 0 {
		return nil, nil
	}
	cur := items
	for len(cur) > 1 {
		next := make([]geom.Polygon, (len(cur)+1)/2)
		errs := make([]error, len(next))
		par.ForEachItem(len(next), p, func(i int) {
			if 2*i+1 < len(cur) {
				next[i], errs[i] = combine(cur[2*i], cur[2*i+1])
			} else {
				next[i] = cur[2*i]
			}
		})
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		cur = next
	}
	return cur[0], nil
}

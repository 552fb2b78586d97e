package overlay

import (
	"context"
	"sort"

	"polyclip/internal/engine"
	"polyclip/internal/geom"
	"polyclip/internal/par"
	"polyclip/internal/scanbeam"
	"polyclip/internal/segtree"
)

// classify computes, for every unique sub-segment, the winding numbers of
// the region on its "left side" in the subject and in the clip polygon. For
// a non-horizontal segment, the left side is the smaller-x side (travelling
// upward); for a horizontal segment it is the side above (travelling +x).
// In both cases the numbers are constant along the segment because the
// subdivided arrangement has no interior crossings.
//
// One bottom-to-top sweep over the scanbeams labels every segment once, at
// the boundary where it starts. Non-horizontal segments get the prefix sums
// of Lemma 3 in their first scanbeam: the beam's active segments are
// ordered by x on its midline and walked left to right. Horizontal segments
// span no beam; they lie on the beam's bottom boundary and get the winding
// along that line of the beam's segments at or left of their left end.
// (The paper removes horizontal edges by perturbation; counting strictly
// inside beams makes that unnecessary.) Only beams where segments start are
// walked, so the sweep costs the active lists of those beams, not of all.
//
// Cancellation is polled every 64 beams; on a cancelled ctx classification
// is partial and the caller must discard the arrangement.
func classify(ctx context.Context, segs []useg) {
	n := len(segs)
	if n == 0 {
		return
	}
	ys := make([]float64, 0, 2*n)
	for i := range segs {
		ys = append(ys, segs[i].Lo.Y, segs[i].Hi.Y)
	}
	ys = segtree.Dedup(ys)
	if len(ys) < 2 {
		return
	}
	sweep := scanbeam.NewSweep(ys, n, func(i int32) (float64, float64) {
		return segs[i].Lo.Y, segs[i].Hi.Y
	})
	// order sorts the active segments by x on the line y.
	var scratch scanbeam.Scratch
	order := func(active []int32, y float64) []scanbeam.Entry {
		es := scratch.Entries(len(active))
		for k, id := range active {
			s := &segs[id]
			es[k] = scanbeam.Entry{X: geom.Segment{A: s.Lo, B: s.Hi}.XAtY(y), ID: id}
		}
		scanbeam.SortByX(es)
		return es
	}
	// segs are in (Lo, Hi) order, so the segments starting on one boundary
	// are the run segs[first:next].
	var cum [][2]int16
	next, stopped := 0, false
	sweep.ForEachBeam(func(b int, yb, yt float64, active []int32) {
		if stopped || b&63 == 0 && canceled(ctx) {
			stopped = true
			return
		}
		first, walk, flat := next, false, false
		for ; next < n && segs[next].Lo.Y == yb; next++ {
			if segs[next].Hi.Y == yb {
				flat = true
			} else {
				walk = true
			}
		}
		if walk {
			// Lemma 3 generalized: running winding numbers of the subject
			// and clip copies to the left (their parities are the paper's
			// 0/1 prefix sums).
			var windSub, windClip int16
			for _, e := range order(active, (yb+yt)/2) {
				s := &segs[e.ID]
				if s.Lo.Y == yb {
					s.WindSubL, s.WindClipL = windSub, windClip
				}
				windSub += s.WindSub
				windClip += s.WindClip
			}
		}
		if flat {
			// Above a horizontal [x1, x2] the winding is that of the beam's
			// segments with x <= x1 on the boundary: no segment crosses the
			// open strip above it, and the inclusive count makes segments
			// through x1 separate the strip from the region to its left.
			es := order(active, yb)
			cum = append(cum[:0], [2]int16{})
			for _, e := range es {
				c := cum[len(cum)-1]
				cum = append(cum, [2]int16{c[0] + segs[e.ID].WindSub, c[1] + segs[e.ID].WindClip})
			}
			for i := first; i < next; i++ {
				if s := &segs[i]; s.Hi.Y == yb {
					x1 := s.Lo.X
					k := sort.Search(len(es), func(j int) bool { return es[j].X > x1 })
					s.WindSubL, s.WindClipL = cum[k][0], cum[k][1]
				}
			}
		}
	})
}

// dirEdge is a directed contributing edge: the clipping result's interior
// lies to its geometric left.
type dirEdge struct {
	from, to geom.Point
}

// selectEdges applies Lemma 2's contributing test for the operation under
// the fill rule: a sub-segment contributes exactly when the operation's
// value differs between its two sides. The edge is directed so the result
// interior is on its left (Lo->Hi exactly when the left side is interior),
// which makes stitched outer rings counter-clockwise and holes clockwise.
func selectEdges(segs []useg, op engine.Op, rule engine.FillRule, p int) []dirEdge {
	keep := make([]int32, 0, len(segs))
	marks := make([]bool, len(segs))
	par.ForEachItemGrain(len(segs), p, 512, func(i int) {
		s := &segs[i]
		leftIn := op.Eval(rule.Inside(s.WindSubL), rule.Inside(s.WindClipL))
		rightIn := op.Eval(rule.Inside(s.WindSubL+s.WindSub), rule.Inside(s.WindClipL+s.WindClip))
		marks[i] = leftIn != rightIn
	})
	for i, m := range marks {
		if m {
			keep = append(keep, int32(i))
		}
	}
	out := make([]dirEdge, len(keep))
	for k, i := range keep {
		s := &segs[i]
		if op.Eval(rule.Inside(s.WindSubL), rule.Inside(s.WindClipL)) {
			// Left side interior: travel Lo -> Hi (upward, or +x for a
			// horizontal segment).
			out[k] = dirEdge{s.Lo, s.Hi}
		} else {
			out[k] = dirEdge{s.Hi, s.Lo}
		}
	}
	return out
}

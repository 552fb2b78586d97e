package overlay

import (
	"polyclip/internal/engine"
	"polyclip/internal/geom"
	"polyclip/internal/par"
	"polyclip/internal/ringstitch"
	"polyclip/internal/scanbeam"
)

// selectEdges applies Lemma 2's contributing test for the operation under
// the fill rule: a sub-segment contributes exactly when the operation's
// value differs between its two sides. The edge is directed so the result
// interior is on its left (Lo->Hi exactly when the left side is interior),
// which makes stitched outer rings counter-clockwise and holes clockwise.
func selectEdges(segs []scanbeam.Seg, op engine.Op, rule engine.FillRule, p int) []ringstitch.Edge {
	keep := make([]int32, 0, len(segs))
	marks := make([]bool, len(segs))
	par.ForEachItemGrain(len(segs), p, 512, func(i int) {
		s := &segs[i]
		leftIn := op.Eval(rule.Inside(s.Left[0]), rule.Inside(s.Left[1]))
		rightIn := op.Eval(rule.Inside(s.Left[0]+s.Wind[0]), rule.Inside(s.Left[1]+s.Wind[1]))
		marks[i] = leftIn != rightIn
	})
	for i, m := range marks {
		if m {
			keep = append(keep, int32(i))
		}
	}
	out := make([]ringstitch.Edge, len(keep))
	for k, i := range keep {
		s := &segs[i]
		if op.Eval(rule.Inside(s.Left[0]), rule.Inside(s.Left[1])) {
			// Left side interior: travel Lo -> Hi (upward, or +x for a
			// horizontal segment).
			out[k] = ringstitch.Edge{From: s.Lo, To: s.Hi}
		} else {
			out[k] = ringstitch.Edge{From: s.Hi, To: s.Lo}
		}
	}
	return out
}

// stitch links the directed contributing edges into closed output rings via
// the shared interior-on-the-left ring stitcher.
func stitch(dirs []ringstitch.Edge) geom.Polygon {
	if len(dirs) == 0 {
		return nil
	}
	return ringstitch.Stitch(dirs)
}

package scanbeam

import (
	"context"
	"sort"

	"polyclip/internal/geom"
)

// Seg is one unique segment of a subdivided arrangement, with per-operand
// (index 0 subject, 1 clip) winding fields. Lo is the endpoint with smaller
// (Y, X), and no two segments of an arrangement intersect except at shared
// endpoints.
type Seg struct {
	Lo, Hi geom.Point
	// Wind is the signed winding contribution of each operand's copies of
	// the segment: each original piece directed Hi->Lo (downward, or -x for
	// horizontals) adds +1, each directed Lo->Hi adds -1, so that walking
	// left to right (or top to bottom across a horizontal) the region
	// winding number changes by this amount. Parity of the winding equals
	// parity of the copy count, so the even-odd rule needs no separate
	// field.
	Wind [2]int16
	// Left is each operand's winding number of the region on the segment's
	// left side (smaller x; above, for horizontals), filled in by Classify.
	Left [2]int16
}

// Classify computes Left for every segment of an arrangement given in (Lo,
// Hi) order: the paper's side labelling (Lemmas 1–3), run by overlay on its
// subdivided, folded arrangement. For a non-horizontal segment, the left
// side is the smaller-x side (travelling upward); for a horizontal segment
// it is the side above (travelling +x). In both cases the numbers are
// constant along the segment because the arrangement has no interior
// crossings.
//
// One bottom-to-top sweep over the scanbeams (SweepStarts, fed segs in
// their own order: (Lo, Hi) order is ascending low y, ties by index) labels
// every segment once, at the boundary where it starts, so nothing is sorted
// before the walk. Non-horizontal segments get the prefix sums of Lemma 3 in
// their first scanbeam: the beam's active segments are ordered by x on its
// midline and walked left to right. Horizontal segments span no beam; they
// lie on the beam's bottom boundary and get the winding along that line of
// the beam's segments at or left of their left end. (The paper removes
// horizontal edges by perturbation; counting strictly inside beams makes
// that unnecessary.) Horizontals on the topmost boundary keep Left zero:
// nothing lies above them. Only beams where segments start are walked, so
// the sweep costs the active lists of those beams, not of all.
//
// Cancellation is polled every 64 beams; on a cancelled ctx classification
// is partial and the caller must discard the arrangement.
func Classify(ctx context.Context, segs []Seg) {
	n := len(segs)
	starts := make([]int32, n)
	for i := range starts {
		starts[i] = int32(i)
	}
	// order sorts the active segments by x on the line y.
	var scratch Scratch
	order := func(active []int32, y float64) []Entry {
		es := scratch.Entries(len(active))
		for k, id := range active {
			s := &segs[id]
			es[k] = Entry{X: geom.Segment{A: s.Lo, B: s.Hi}.XAtY(y), ID: id}
		}
		SortByX(es)
		return es
	}
	// The segments starting on one boundary are the run segs[first:next].
	var cum [][2]int16
	next, beams := 0, 0
	span := func(i int32) (float64, float64) { return segs[i].Lo.Y, segs[i].Hi.Y }
	SweepStarts(starts, span, func(yb, yt float64, active []int32) bool {
		if beams&63 == 0 && ctx.Err() != nil {
			return false
		}
		beams++
		first, walk, flat := next, false, false
		for ; next < n && segs[next].Lo.Y == yb; next++ {
			if segs[next].Hi.Y == yb {
				flat = true
			} else {
				walk = true
			}
		}
		if walk {
			// Lemma 3 generalized: running winding numbers of each operand
			// to the left (their parities are the paper's 0/1 prefix sums).
			var wind [2]int16
			for _, e := range order(active, (yb+yt)/2) {
				s := &segs[e.ID]
				if s.Lo.Y == yb {
					s.Left = wind
				}
				wind[0] += s.Wind[0]
				wind[1] += s.Wind[1]
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
				c, w := cum[len(cum)-1], segs[e.ID].Wind
				cum = append(cum, [2]int16{c[0] + w[0], c[1] + w[1]})
			}
			for i := first; i < next; i++ {
				if s := &segs[i]; s.Hi.Y == yb {
					x1 := s.Lo.X
					k := sort.Search(len(es), func(j int) bool { return es[j].X > x1 })
					s.Left = cum[k]
				}
			}
		}
		return true
	})
}

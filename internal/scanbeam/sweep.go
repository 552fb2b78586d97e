package scanbeam

// SweepStarts is the sequential bottom-to-top scanbeam sweep, driven the way
// Vatti feeds his active edge table: from the edges sorted once by their low
// y. starts lists the edge ids by ascending low y, ties by ascending id, and
// span returns an id's y-extent (lo <= hi). The beams are the strips between
// consecutive distinct endpoint ys, from the lowest to the highest.
//
// At each beam the sweep appends the edges that start on its bottom line,
// then, in one compaction pass over the active list, drops the edges that end
// there and takes the beam's top as the smaller of the next edge's start and
// the lowest end among the edges left. So visit sees each beam's bottom and
// top scanline and the ids active strictly inside it, in start order (low y,
// then id); a beam inside a gap between extents is visited with none. The
// top of one beam is the bottom of the next, and every boundary is one of the
// edges' own coordinates: of two equal ys, −0 and +0, the boundary keeps the
// next start's or else the first ending edge's. An edge with lo == hi joins
// and leaves at its line without being active in any beam. Every input ends
// the sweep: a start that is not above the current bottom line, NaN
// included, joins that beam, so each beam's top lies strictly above its
// bottom.
//
// The active list lives in the prefix of starts the sweep has consumed, so the
// sweep allocates nothing and leaves starts reordered. visit must not retain
// or modify active; returning false stops the sweep.
func SweepStarts(starts []int32, span func(id int32) (lo, hi float64), visit func(yb, yt float64, active []int32) bool) {
	if len(starts) == 0 {
		return
	}
	// starts[:w] is the active list; starts[next:] has yet to start.
	w, next := 0, 0
	yb, _ := span(starts[0])
	for {
		for ; next < len(starts); next++ {
			id := starts[next]
			if lo, _ := span(id); lo > yb {
				break
			}
			starts[w] = id
			w++
		}
		yt, more := 0.0, next < len(starts)
		if more {
			yt, _ = span(starts[next])
		}
		k := 0
		for _, id := range starts[:w] {
			if _, hi := span(id); hi > yb {
				if !more || hi < yt {
					yt, more = hi, true
				}
				starts[k] = id
				k++
			}
		}
		w = k
		if !more || !visit(yb, yt, starts[:w]) {
			return
		}
		yb = yt
	}
}

package scanbeam

import "sort"

// Sweep is the sequential bottom-to-top scanbeam sweep schedule over sorted
// distinct boundary ys: per-boundary start buckets in compressed (CSR) form
// — a counting pass, a prefix sum and a fill, so the schedule and its
// temporaries are carved from one flat allocation instead of one slice per
// boundary — plus the per-beam active-edge list, maintained by inserting
// each edge once at its start boundary and sweeping it out with one linear
// compaction per beam when its end boundary is reached. That is the same
// per-beam cost as iterating a hash set, without the hashing or the
// iteration-order churn.
type Sweep struct {
	ys       []float64
	endAt    []int32
	startOff []int32
	startIDs []int32
	active   []int32
}

// NewSweep builds the schedule for n edges whose y-extents span returns;
// every extent must lie on boundaries present in ys (true after arrangement
// resolution, whose event schedule is exactly the endpoint ys).
func NewSweep(ys []float64, n int, span func(int32) (lo, hi float64)) *Sweep {
	m := len(ys) - 1
	// One buffer holds every slice: endAt, startOff, startIDs, active (a
	// capacity of n, since an edge is active at most once) and the
	// temporaries startAt and fill.
	buf := make([]int32, 4*n+2*m+3)
	carve := func(k int) []int32 {
		s := buf[:k:k]
		buf = buf[k:]
		return s
	}
	s := &Sweep{ys: ys, endAt: carve(n), startOff: carve(m + 2), startIDs: carve(n), active: carve(n)[:0]}
	startAt, fill := carve(n), carve(m+1)
	for i := 0; i < n; i++ {
		lo, hi := span(int32(i))
		b := int32(sort.SearchFloat64s(ys, lo))
		startAt[i] = b
		s.endAt[i] = int32(sort.SearchFloat64s(ys, hi))
		s.startOff[b+1]++
	}
	for b := 1; b < len(s.startOff); b++ {
		s.startOff[b] += s.startOff[b-1]
	}
	for i := 0; i < n; i++ {
		b := startAt[i]
		s.startIDs[s.startOff[b]+fill[b]] = int32(i)
		fill[b]++
	}
	return s
}

// Beams returns the number of scanbeams.
func (s *Sweep) Beams() int { return len(s.ys) - 1 }

// ForEachBeam sweeps bottom to top, calling visit with each beam's index,
// its bounding scanlines, and the ids active strictly inside it. The active
// slice is reused between beams; visit must not retain it.
func (s *Sweep) ForEachBeam(visit func(b int, yb, yt float64, active []int32)) {
	m := s.Beams()
	for b := 0; b < m; b++ {
		s.active = append(s.active, s.startIDs[s.startOff[b]:s.startOff[b+1]]...)
		w := 0
		for _, id := range s.active {
			if s.endAt[id] > int32(b) {
				s.active[w] = id
				w++
			}
		}
		s.active = s.active[:w]
		visit(b, s.ys[b], s.ys[b+1], s.active)
	}
}

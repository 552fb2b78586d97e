package geom

// IsSimple reports whether the ring has no self-intersections: no two
// non-adjacent edges share a point and no two adjacent edges overlap.
func (r Ring) IsSimple() bool {
	edges := r.Edges(nil)
	n := len(edges)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			kind, p0, _ := SegIntersection(edges[i], edges[j])
			if kind == Disjoint {
				continue
			}
			if kind == Overlapping {
				return false
			}
			// Adjacent edges may share exactly their common endpoint.
			adjacent := j == i+1 || (i == 0 && j == n-1)
			if !adjacent {
				return false
			}
			shared := edges[i].B
			if i == 0 && j == n-1 {
				shared = edges[i].A
			}
			if p0 != shared {
				return false
			}
		}
	}
	return true
}

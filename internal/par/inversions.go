package par

import (
	"fmt"
	"strings"
	"sync"
)

// InvPair is one inversion: positions i < j in the input slice whose values
// are out of order (xs[i] > xs[j]). When the input is the bottom-scanline
// order of edges ranked by their top-scanline order, each inversion is a
// pair of edges that cross inside the scanbeam (paper Fig. 4).
type InvPair struct {
	I, J int
}

// invScratch is the reusable working storage of the inversion mergesorts.
// The scanbeam engines count/report inversions once per beam, so without
// reuse the two O(n) temporaries dominate the sweep's allocation profile.
type invScratch struct {
	work, buf []int
	elems     []invElem
	ebuf      []invElem
}

var invPool = sync.Pool{New: func() any { return new(invScratch) }}

func (s *invScratch) ints(n int) (work, buf []int) {
	if cap(s.work) < n {
		s.work = make([]int, n)
		s.buf = make([]int, n)
	}
	return s.work[:n], s.buf[:n]
}

func (s *invScratch) elemBufs(n int) (elems, ebuf []invElem) {
	if cap(s.elems) < n {
		s.elems = make([]invElem, n)
		s.ebuf = make([]invElem, n)
	}
	return s.elems[:n], s.ebuf[:n]
}

// invElem carries a value together with its original position through the
// reporting mergesort.
type invElem struct{ v, pos int }

// invSerialBase is the subproblem size handed to the insertion-counting base
// case: below it, binary-splitting recursion costs more than one quadratic
// pass that counts each element's shift distance.
const invSerialBase = 48

// CountInversions returns the number of inversions in xs using the extended
// mergesort of Lemma 4: O(n log n) time, O(n) extra space. xs is not
// modified. Equal values are not inversions.
func CountInversions(xs []int) int64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := invPool.Get().(*invScratch)
	work, buf := s.ints(n)
	copy(work, xs)
	inv := countRec(work, buf)
	invPool.Put(s)
	return inv
}

func countRec(xs, buf []int) int64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	if n <= invSerialBase {
		return countInsertion(xs)
	}
	mid := n / 2
	inv := countRec(xs[:mid], buf[:mid]) + countRec(xs[mid:], buf[mid:])
	inv += countMerge(xs[:mid], xs[mid:], buf)
	copy(xs, buf)
	return inv
}

// countInsertion sorts xs in place by insertion, counting inversions as
// shift distances: element i shifts past exactly the earlier elements
// greater than it. Stable, so equal values are never counted.
func countInsertion(xs []int) int64 {
	var inv int64
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > v {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
		inv += int64(i - 1 - j)
	}
	return inv
}

// countMerge merges sorted halves a, b into dst, returning the number of
// cross inversions: whenever b[j] is emitted while elements of a remain,
// every remaining a element forms an inversion with it (the paper's
// "A_l[i] > A_r[j] ⇒ A_l[i..mid] all exceed A_r[j]" argument).
func countMerge(a, b, dst []int) int64 {
	var inv int64
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if b[j] < a[i] {
			inv += int64(len(a) - i)
			dst[k] = b[j]
			j++
		} else {
			dst[k] = a[i]
			i++
		}
		k++
	}
	for i < len(a) {
		dst[k] = a[i]
		i++
		k++
	}
	for j < len(b) {
		dst[k] = b[j]
		j++
		k++
	}
	return inv
}

// ReportInversions returns every inversion of xs as an (i, j) position pair
// with i < j and xs[i] > xs[j]. Following the paper's two-phase,
// output-sensitive scheme, it first counts the inversions, allocates exactly
// that much space ("allocating K additional processors"), then re-runs the
// merge recording each pair. The output order groups pairs by merge node,
// as in Table I.
func ReportInversions(xs []int) []InvPair {
	total := CountInversions(xs)
	out := make([]InvPair, 0, total)

	n := len(xs)
	if n < 2 {
		return out
	}
	// Track original positions through the sort.
	s := invPool.Get().(*invScratch)
	defer invPool.Put(s)
	work, buf := s.elemBufs(n)
	for i, v := range xs {
		work[i] = invElem{v, i}
	}

	var rec func(w, b []invElem)
	rec = func(w, b []invElem) {
		if len(w) < 2 {
			return
		}
		mid := len(w) / 2
		rec(w[:mid], b[:mid])
		rec(w[mid:], b[mid:])
		a, r := w[:mid], w[mid:]
		i, j, k := 0, 0, 0
		for i < len(a) && j < len(r) {
			if r[j].v < a[i].v {
				for t := i; t < len(a); t++ {
					pi, pj := a[t].pos, r[j].pos
					if pi > pj {
						pi, pj = pj, pi
					}
					out = append(out, InvPair{pi, pj})
				}
				b[k] = r[j]
				j++
			} else {
				b[k] = a[i]
				i++
			}
			k++
		}
		for i < len(a) {
			b[k] = a[i]
			i++
			k++
		}
		for j < len(r) {
			b[k] = r[j]
			j++
			k++
		}
		copy(w, b)
	}
	rec(work, buf)
	return out
}

// MergeStep is one time step of merging two sorted sublists in an internal
// node of the merge tree, with the inversion pairs (by value) detected at
// that step — the faithful rendition of the paper's Table I.
type MergeStep struct {
	Compared   [2]int   // A_l[i], A_r[j] compared at this step
	Emitted    int      // value moved to the merged output
	Inversions [][2]int // (A_l value, A_r value) pairs reported, if any
}

// MergeTrace merges the sorted sublists al and ar, recording each time step
// and the inversion pairs reported. Used to regenerate Table I.
func MergeTrace(al, ar []int) []MergeStep {
	var steps []MergeStep
	i, j := 0, 0
	for i < len(al) && j < len(ar) {
		st := MergeStep{Compared: [2]int{al[i], ar[j]}}
		if ar[j] < al[i] {
			for t := i; t < len(al); t++ {
				st.Inversions = append(st.Inversions, [2]int{al[t], ar[j]})
			}
			st.Emitted = ar[j]
			j++
		} else {
			st.Emitted = al[i]
			i++
		}
		steps = append(steps, st)
	}
	for i < len(al) {
		steps = append(steps, MergeStep{Compared: [2]int{al[i], -1}, Emitted: al[i]})
		i++
	}
	for j < len(ar) {
		steps = append(steps, MergeStep{Compared: [2]int{-1, ar[j]}, Emitted: ar[j]})
		j++
	}
	return steps
}

// FormatMergeTrace renders a MergeTrace as a table in the style of Table I.
func FormatMergeTrace(steps []MergeStep) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %-14s %-10s %s\n", "Step", "Comparison", "Emitted", "Inversions reported")
	for i, st := range steps {
		var inv []string
		for _, p := range st.Inversions {
			inv = append(inv, fmt.Sprintf("(%d,%d)", p[0], p[1]))
		}
		fmt.Fprintf(&b, "%-5d (%d,%d)%-7s %-10d %s\n", i+1, st.Compared[0], st.Compared[1], "", st.Emitted, strings.Join(inv, " "))
	}
	return b.String()
}

// BruteForceInversions counts inversions in O(n²); test oracle.
func BruteForceInversions(xs []int) int64 {
	var inv int64
	for i := 0; i < len(xs); i++ {
		for j := i + 1; j < len(xs); j++ {
			if xs[i] > xs[j] {
				inv++
			}
		}
	}
	return inv
}

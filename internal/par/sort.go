package par

import (
	"slices"

	"polyclip/internal/guard"
)

// sortSerialCutoff is the subproblem size below which parallel mergesort
// falls back to the serial sort: below it, goroutine spawn/join overhead
// exceeds the sort work itself.
const sortSerialCutoff = 1 << 12

// serialSort is the mergesort base case: the stdlib generic stable sort,
// which monomorphizes over T and so — unlike sort.SliceStable, whose
// reflect-based swapper allocates per call — runs allocation-free.
func serialSort[T any](xs []T, less func(a, b T) bool) {
	slices.SortStableFunc(xs, func(a, b T) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		default:
			return 0
		}
	})
}

// Sort sorts xs by less using a work-efficient parallel mergesort with
// parallelism p. It is the multicore stand-in for Cole's O(log n) CREW PRAM
// mergesort the paper uses for Step 1 (sorting event points) — same work,
// O(log² n) depth instead of O(log n) (Cole's pipelining is a PRAM
// refinement with no multicore payoff; see DESIGN.md).
func Sort[T any](xs []T, less func(a, b T) bool, p int) {
	guard.Hit("par.sort")
	p = normalize(p)
	if p == 1 || len(xs) <= sortSerialCutoff {
		serialSort(xs, less)
		return
	}
	buf := make([]T, len(xs))
	mergeSort(xs, buf, less, depthFor(p))
}

// depthFor returns the recursion depth at which to stop spawning goroutines:
// 2^depth leaves ≈ 2p tasks for load balance.
func depthFor(p int) int {
	d := 0
	for (1 << d) < 2*p {
		d++
	}
	return d
}

func mergeSort[T any](xs, buf []T, less func(a, b T) bool, depth int) {
	n := len(xs)
	if depth == 0 || n <= sortSerialCutoff {
		serialSort(xs, less)
		return
	}
	mid := n / 2
	join2(
		func() { mergeSort(xs[:mid], buf[:mid], less, depth-1) },
		func() { mergeSort(xs[mid:], buf[mid:], less, depth-1) },
	)
	merge(xs[:mid], xs[mid:], buf, less)
	copy(xs, buf)
}

// merge merges sorted a and b into dst (len(dst) == len(a)+len(b)),
// preserving stability (ties favour a).
func merge[T any](a, b, dst []T, less func(x, y T) bool) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if less(b[j], a[i]) {
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
}

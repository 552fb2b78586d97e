package main

import (
	"math"
	"sort"
)

// rankIndex is the nearest-rank index of the p-th percentile in a sorted
// sample of n: the smallest index whose rank covers p percent of the sample.
func rankIndex(p, n int) int {
	i := int(math.Ceil(float64(p)*float64(n)/100)) - 1
	if i < 0 {
		return 0
	}
	if i > n-1 {
		return n - 1
	}
	return i
}

// tailPercentile is the percentile a run reports as its tail: the highest
// whole percentile, at most 99, that leaves at least ten samples above it.
// A sample of fewer than 20 has no such percentile above the median, and the
// median is reported instead.
func tailPercentile(n int) int {
	for p := 99; p > 50; p-- {
		if n-rankIndex(p, n)-1 >= 10 {
			return p
		}
	}
	return 50
}

// percentile returns the nearest-rank p-th percentile of xs (not modified);
// 0 for an empty sample.
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[rankIndex(p, len(s))]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs, averaging the two middle values of
// an even-sized sample; 0 for an empty sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs with the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the rule
// the benchmark's spread checks are stated in. A sample of one has both
// quartiles equal to its value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

package main

import "testing"

func TestTailPercentileLeavesTenSamplesAbove(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{1000, 99}, {999, 98}, {1500, 99}, {200, 95}, {100, 90}, {21, 52}, {20, 50}, {5, 50}, {0, 50},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
	for n := 20; n < 3000; n++ {
		p := tailPercentile(n)
		if above := n - rankIndex(p, n) - 1; p > 50 && above < 10 {
			t.Fatalf("n=%d: p%d leaves %d samples above it", n, p, above)
		}
		if p < 99 && n-rankIndex(p+1, n)-1 >= 10 {
			t.Fatalf("n=%d: p%d is not the highest percentile with ten samples above", n, p)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // reversed: percentile must sort
	}
	for _, tc := range []struct {
		p    int
		want float64
	}{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {1, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("p%d = %g, want %g", tc.p, got, tc.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile modified its input")
	}
}

// The spread rule is stated in Python's statistics.quantiles(xs, n=4); the
// expected values are that function's output.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 5.25},
		{[]float64{2.5, 7.0}, 1.375, 8.125},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{4}, 4, 4},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %g", got)
	}
}

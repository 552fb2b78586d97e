package par

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForEachCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 1000} {
		for _, p := range []int{1, 2, 8, 1000} {
			var seen int64
			ForEach(n, p, func(lo, hi int) {
				atomic.AddInt64(&seen, int64(hi-lo))
			})
			if seen != int64(n) {
				t.Errorf("n=%d p=%d covered %d", n, p, seen)
			}
		}
	}
}

func TestForEachItemEachOnce(t *testing.T) {
	n := 500
	marks := make([]int32, n)
	ForEachItem(n, 4, func(i int) { atomic.AddInt32(&marks[i], 1) })
	for i, m := range marks {
		if m != 1 {
			t.Fatalf("index %d visited %d times", i, m)
		}
	}
}

func TestExclusivePrefixSum(t *testing.T) {
	xs := []int{1, 2, 3, 4}
	if total := ExclusivePrefixSum(xs); total != 10 {
		t.Errorf("total = %d", total)
	}
	if !reflect.DeepEqual(xs, []int{0, 1, 3, 6}) {
		t.Errorf("xs = %v", xs)
	}
}

func TestPrefixSumParityIsLemma3(t *testing.T) {
	// Lemma 3: labels 0/1 per edge; a vertex is contributing iff the prefix
	// sum at its position is odd.
	labels := []int{0, 1, 0, 1, 1, 0} // clip edges marked 1
	sums := append([]int(nil), labels...)
	ExclusivePrefixSum(sums)
	odd := []bool{false, true, true, false, true, true}
	for i, want := range odd {
		if got := (sums[i]+labels[i])%2 == 1; got != want {
			t.Errorf("pos %d parity=%v want %v", i, got, want)
		}
	}
}

func TestSortRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 100, 5000, 50000} {
		for _, p := range []int{1, 4} {
			xs := make([]int, n)
			for i := range xs {
				xs[i] = rng.Intn(1000)
			}
			want := make([]int, n)
			copy(want, xs)
			sort.Ints(want)
			Sort(xs, func(a, b int) bool { return a < b }, p)
			if !reflect.DeepEqual(xs, want) {
				t.Fatalf("n=%d p=%d not sorted", n, p)
			}
		}
	}
}

func TestSortStability(t *testing.T) {
	type kv struct{ k, seq int }
	n := 30000
	xs := make([]kv, n)
	rng := rand.New(rand.NewSource(9))
	for i := range xs {
		xs[i] = kv{rng.Intn(10), i}
	}
	Sort(xs, func(a, b kv) bool { return a.k < b.k }, 4)
	for i := 1; i < n; i++ {
		if xs[i-1].k == xs[i].k && xs[i-1].seq > xs[i].seq {
			t.Fatalf("stability violated at %d", i)
		}
	}
}

func TestCountInversionsKnown(t *testing.T) {
	cases := []struct {
		xs   []int
		want int64
	}{
		{nil, 0},
		{[]int{1}, 0},
		{[]int{1, 2, 3}, 0},
		{[]int{3, 2, 1}, 3},
		{[]int{3, 2, 4, 1}, 4}, // paper Fig. 4: (3,1) (3,2) (4,1) (2,1)
		{[]int{2, 1, 2}, 1},
		{[]int{5, 6, 7, 9, 1, 2, 3, 4}, 16}, // Table I: all cross pairs
	}
	for _, c := range cases {
		if got := CountInversions(c.xs); got != c.want {
			t.Errorf("CountInversions(%v) = %d, want %d", c.xs, got, c.want)
		}
	}
}

func TestCountInversionsDoesNotMutate(t *testing.T) {
	xs := []int{3, 1, 2}
	CountInversions(xs)
	if !reflect.DeepEqual(xs, []int{3, 1, 2}) {
		t.Error("input mutated")
	}
}

func TestCountInversionsMatchesBruteForce(t *testing.T) {
	f := func(raw []int8) bool {
		xs := make([]int, len(raw))
		for i, v := range raw {
			xs[i] = int(v)
		}
		return CountInversions(xs) == BruteForceInversions(xs)
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func sortPairs(ps []InvPair) {
	sort.Slice(ps, func(a, b int) bool {
		if ps[a].I != ps[b].I {
			return ps[a].I < ps[b].I
		}
		return ps[a].J < ps[b].J
	})
}

func TestReportInversionsFig4(t *testing.T) {
	// Paper Fig. 4: edge order {3,2,4,1}; inversion pairs, as positions
	// (i, j): values (3,2)->(0,1), (3,1)->(0,3), (2,1)->(1,3), (4,1)->(2,3).
	xs := []int{3, 2, 4, 1}
	got := ReportInversions(xs)
	want := []InvPair{{0, 1}, {0, 3}, {1, 3}, {2, 3}}
	sortPairs(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("pairs = %v, want %v", got, want)
	}
}

func TestReportInversionsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200)
		xs := make([]int, n)
		for i := range xs {
			xs[i] = rng.Intn(50)
		}
		var want []InvPair
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if xs[i] > xs[j] {
					want = append(want, InvPair{i, j})
				}
			}
		}
		got := ReportInversions(xs)
		sortPairs(got)
		sortPairs(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: got %d pairs, want %d", trial, len(got), len(want))
		}
	}
}

func TestMergeTraceTableI(t *testing.T) {
	// Table I: A_l = {5,6,7,9}, A_r = {1,2,3,4}. Every cross pair is an
	// inversion (16 total), reported in 4 batches of 4 while the right
	// sublist drains.
	al := []int{5, 6, 7, 9}
	ar := []int{1, 2, 3, 4}
	steps := MergeTrace(al, ar)
	total := 0
	for _, st := range steps {
		total += len(st.Inversions)
	}
	if total != 16 {
		t.Errorf("reported %d inversions, want 16", total)
	}
	// First step: compare (5,1), emit 1, report (5,1),(6,1),(7,1),(9,1).
	if steps[0].Compared != [2]int{5, 1} || steps[0].Emitted != 1 {
		t.Errorf("step 0 = %+v", steps[0])
	}
	if len(steps[0].Inversions) != 4 || steps[0].Inversions[3] != [2]int{9, 1} {
		t.Errorf("step 0 inversions = %v", steps[0].Inversions)
	}
	// The merged output must be sorted: reconstruct.
	var merged []int
	for _, st := range steps {
		merged = append(merged, st.Emitted)
	}
	if !sort.IntsAreSorted(merged) {
		t.Errorf("merged = %v not sorted", merged)
	}
	if out := FormatMergeTrace(steps); len(out) == 0 {
		t.Error("empty formatted trace")
	}
}

func TestRanksInversionsDetectCrossings(t *testing.T) {
	// Edges ordered 1,2,3 at the bottom scanline and 2,1,3 at the top:
	// exactly the pair (1,2) crossed.
	bottomIDs := []int{1, 2, 3}
	topIDs := []int{2, 1, 3}
	pos := map[int]int{}
	for i, id := range topIDs {
		pos[id] = i
	}
	seq := make([]int, len(bottomIDs))
	for i, id := range bottomIDs {
		seq[i] = pos[id]
	}
	if got := CountInversions(seq); got != 1 {
		t.Errorf("crossings = %d, want 1", got)
	}
	pairs := ReportInversions(seq)
	if len(pairs) != 1 || bottomIDs[pairs[0].I] != 1 || bottomIDs[pairs[0].J] != 2 {
		t.Errorf("pairs = %v", pairs)
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	var ran atomic.Int32
	var pe *PanicError
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("worker panic was swallowed")
			}
			var ok bool
			pe, ok = r.(*PanicError)
			if !ok {
				t.Fatalf("re-raised value is %T, want *PanicError", r)
			}
		}()
		ForEach(1000, 4, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				ran.Add(1)
				if i == 500 {
					panic("worker boom")
				}
			}
		})
	}()
	if pe.Value != "worker boom" {
		t.Fatalf("panic value %v, want worker boom", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("no worker stack captured")
	}
	// The other workers were allowed to finish: no goroutine was killed
	// mid-range by the failing one.
	if ran.Load() == 0 {
		t.Fatal("no iterations ran")
	}
}

func TestForEachItemPanicPropagates(t *testing.T) {
	defer func() {
		if _, ok := recover().(*PanicError); !ok {
			t.Fatal("ForEachItem did not re-raise *PanicError")
		}
	}()
	ForEachItem(100, 4, func(i int) {
		if i == 42 {
			panic("item boom")
		}
	})
	t.Fatal("unreachable: panic expected")
}

// TestSortPanicPropagates sorts 4·sortSerialCutoff items at p 4, so join2
// nests two deep, with a less that panics on one value in the last serial
// leaf. The caller must get one *PanicError that holds the original value
// (raise passes the inner join2's *PanicError through, not wrapped again)
// and the stack of the goroutine where less panicked.
func TestSortPanicPropagates(t *testing.T) {
	n := 4 * sortSerialCutoff
	xs := make([]int, n)
	for i := range xs {
		xs[i] = i * 7919 % n // a permutation: 7919 is odd and n a power of two
	}
	bad := xs[3*sortSerialCutoff+5]
	var fired atomic.Int32
	var pe *PanicError
	func() {
		defer func() {
			r := recover()
			var ok bool
			if pe, ok = r.(*PanicError); !ok {
				t.Fatalf("Sort re-raised %T (%v), want *PanicError", r, r)
			}
		}()
		Sort(xs, func(a, b int) bool {
			if a == bad || b == bad {
				fired.Add(1)
				panic("less boom")
			}
			return a < b
		}, 4)
	}()
	if got := fired.Load(); got != 1 {
		t.Errorf("less panicked %d times, want 1", got)
	}
	if inner, nested := pe.Value.(*PanicError); nested {
		t.Fatalf("panic value is a nested *PanicError (%v)", inner)
	}
	if pe.Value != "less boom" {
		t.Fatalf("panic value %v, want less boom", pe.Value)
	}
	if !bytes.Contains(pe.Stack, []byte("TestSortPanicPropagates")) {
		t.Fatalf("captured stack does not reach the panicking less:\n%s", pe.Stack)
	}
}

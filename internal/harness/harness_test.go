package harness

import (
	"strconv"
	"strings"
	"testing"
)

func TestTableI(t *testing.T) {
	r := TableI()
	if len(r.Rows) != 8 {
		t.Errorf("rows = %d, want 8 merge steps", len(r.Rows))
	}
	total := 0
	for _, row := range r.Rows {
		if row[3] != "" {
			total += len(strings.Fields(row[3]))
		}
	}
	if total != 16 {
		t.Errorf("inversions reported = %d, want 16", total)
	}
	if !strings.Contains(r.Text, "(9,1)") {
		t.Error("missing inversion (9,1)")
	}
}

func TestTableII(t *testing.T) {
	r := TableII()
	if len(r.Rows) == 0 {
		t.Fatal("empty scanbeam table")
	}
	if !strings.Contains(r.Text, "Scanbeam") {
		t.Error("missing header")
	}
}

func TestTableIII(t *testing.T) {
	r := TableIII(0.002, 1)
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		polys, err := strconv.Atoi(row[2])
		if err != nil || polys < 1 {
			t.Errorf("bad poly count %q", row[2])
		}
	}
}

func TestFig7(t *testing.T) {
	r := Fig7([]int{200, 400}, 5)
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
}

func TestFig8(t *testing.T) {
	r := Fig8([]int{400}, []int{1, 2, 4}, 5)
	if len(r.Rows) != 1 || len(r.Rows[0]) != 5 {
		t.Fatalf("rows = %v", r.Rows)
	}
	// Speedups must be positive numbers.
	for _, c := range r.Rows[0][2:] {
		v, err := strconv.ParseFloat(c, 64)
		if err != nil || v <= 0 {
			t.Errorf("speedup %q", c)
		}
	}
}

func TestFig9(t *testing.T) {
	r := Fig9([]int{1, 2}, []int{500, 1000}, 5)
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
}

func TestFig10SpeedupImprovesForLargeData(t *testing.T) {
	r := Fig10([]int{1, 4}, 0.002, 5)
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
}

func TestFig11(t *testing.T) {
	r := Fig11(4, 0.002, 5)
	if len(r.Rows) == 0 {
		t.Fatal("no per-thread rows")
	}
}

func TestFig12(t *testing.T) {
	r := Fig12(4, 0.002, 5)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		v, err := strconv.ParseFloat(row[4], 64)
		if err != nil || v <= 0 {
			t.Errorf("speedup %q", row[4])
		}
	}
}

func TestPramValidation(t *testing.T) {
	r := PramValidation([]int{64, 256}, 5)
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Rounds for n=256 should be far less than n (polylog).
	rounds, _ := strconv.Atoi(r.Rows[1][5])
	if rounds >= 512 {
		t.Errorf("sort rounds = %d, not polylog", rounds)
	}
}

func TestAblations(t *testing.T) {
	r := Ablations(5)
	if len(r.Rows) < 8 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	kinds := map[string]bool{}
	for _, row := range r.Rows {
		kinds[row[0]] = true
	}
	for _, want := range []string{"finder", "merge", "rect-clip"} {
		if !kinds[want] {
			t.Errorf("missing ablation %q", want)
		}
	}
}

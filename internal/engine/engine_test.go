package engine_test

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"polyclip/internal/engine"
	"polyclip/internal/geom"
)

func TestOpStringAndEval(t *testing.T) {
	cases := []struct {
		op   engine.Op
		name string
		tt   bool // Eval(true, true)
		tf   bool // Eval(true, false)
	}{
		{engine.Intersection, "intersection", true, false},
		{engine.Union, "union", true, true},
		{engine.Difference, "difference", false, true},
		{engine.Xor, "xor", false, true},
	}
	for _, c := range cases {
		if c.op.String() != c.name {
			t.Errorf("%d: String() = %q, want %q", c.op, c.op.String(), c.name)
		}
		if c.op.Eval(true, true) != c.tt || c.op.Eval(true, false) != c.tf {
			t.Errorf("%s: Eval truth table wrong", c.name)
		}
		if c.op.Eval(false, false) {
			t.Errorf("%s: Eval(false, false) = true", c.name)
		}
	}
	if engine.Op(99).String() != "unknown" {
		t.Errorf("invalid op String() = %q", engine.Op(99).String())
	}
	if engine.Op(99).Eval(true, true) {
		t.Error("invalid op Eval = true")
	}
	if len(engine.Ops()) != 4 {
		t.Errorf("Ops() has %d entries, want 4", len(engine.Ops()))
	}
}

func TestFillRule(t *testing.T) {
	if engine.EvenOdd.String() != "evenodd" || engine.NonZero.String() != "nonzero" ||
		engine.Positive.String() != "positive" || engine.Negative.String() != "negative" {
		t.Error("fill rule names wrong")
	}
	if engine.FillRule(9).String() != "unknown" {
		t.Error("invalid rule String")
	}
	if !engine.EvenOdd.Inside(1) || engine.EvenOdd.Inside(2) || !engine.EvenOdd.Inside(-3) {
		t.Error("EvenOdd.Inside wrong")
	}
	if !engine.NonZero.Inside(2) || engine.NonZero.Inside(0) || !engine.NonZero.Inside(-1) {
		t.Error("NonZero.Inside wrong")
	}
	if !engine.Positive.Inside(1) || engine.Positive.Inside(0) || engine.Positive.Inside(-1) {
		t.Error("Positive.Inside wrong")
	}
	if !engine.Negative.Inside(-1) || engine.Negative.Inside(0) || engine.Negative.Inside(2) {
		t.Error("Negative.Inside wrong")
	}
	if len(engine.Rules()) != 4 {
		t.Errorf("Rules() has %d entries, want 4", len(engine.Rules()))
	}
	for _, r := range engine.Rules() {
		for _, name := range []string{r.String(), strings.ToUpper(r.String())} {
			got, ok := engine.ParseRule(name)
			if !ok || got != r {
				t.Errorf("ParseRule(%q) = %v, %v", name, got, ok)
			}
		}
	}
	if got, ok := engine.ParseRule(""); !ok || got != engine.EvenOdd {
		t.Errorf("ParseRule(\"\") = %v, %v; want the EvenOdd default", got, ok)
	}
	if _, ok := engine.ParseRule("winding-deluxe"); ok {
		t.Error("ParseRule accepted an unknown name")
	}
}

func TestCheckRule(t *testing.T) {
	for _, r := range engine.Rules() {
		if err := engine.CheckRule(r); err != nil {
			t.Errorf("%s: %v", r, err)
		}
	}
	err := engine.CheckRule(engine.FillRule(9))
	if !errors.Is(err, engine.ErrUnsupported) {
		t.Fatalf("FillRule(9): err = %v, want ErrUnsupported", err)
	}
	if !strings.Contains(err.Error(), "fill rule 9") {
		t.Errorf("error text %q does not name the rule", err.Error())
	}
	// Every registered engine runs the guard before any work.
	for _, e := range engine.All() {
		if _, err := e.Clip(context.Background(), nil, nil, engine.Union,
			engine.Options{Rule: engine.FillRule(9)}); !errors.Is(err, engine.ErrUnsupported) {
			t.Errorf("%s: FillRule(9) err = %v, want ErrUnsupported", e.Name(), err)
		}
	}
}

func TestRegistryLookup(t *testing.T) {
	if _, ok := engine.Get("no-such-engine"); ok {
		t.Error("Get of unknown name succeeded")
	}
	for _, name := range []string{"overlay", "scanbeam", "slabs", "vatti"} {
		e, ok := engine.Get(name)
		if !ok || e.Name() != name {
			t.Errorf("Get(%q) = %v, %v", name, e, ok)
		}
		if engine.MustGet(name).Name() != name {
			t.Errorf("MustGet(%q) wrong engine", name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("MustGet of unknown name did not panic")
		}
	}()
	engine.MustGet("no-such-engine")
}

func TestRegistryAllSorted(t *testing.T) {
	all := engine.All()
	for i := 1; i < len(all); i++ {
		if all[i-1].Name() >= all[i].Name() {
			t.Fatalf("All() not sorted: %q before %q", all[i-1].Name(), all[i].Name())
		}
	}
}

// TestReference pins the differential reference, which is also the engine
// a failed per-pair clip is retried on: vatti against every engine but
// itself, overlay against vatti — under every rule.
func TestReference(t *testing.T) {
	for _, e := range engine.All() {
		want := "vatti"
		if e.Name() == "vatti" {
			want = "overlay"
		}
		for _, r := range engine.Rules() {
			if ref, ok := engine.Reference(e.Name(), r); !ok || ref.Name() != want {
				t.Errorf("Reference(%s, %s) = %v, %v; want %s", e.Name(), r, ref, ok, want)
			}
		}
	}
	// Engines outside the registry (test fakes) get vatti too.
	if ref, ok := engine.Reference("no-such-engine", engine.EvenOdd); !ok || ref.Name() != "vatti" {
		t.Errorf("Reference(no-such-engine) = %v, %v; want vatti", ref, ok)
	}
}

// TestSlabHostAndAlternate pins the two sequential engines a slab run is
// hosted on and the rescue pairing between them: each host is registered,
// its alternate is the other host, and the alternate agrees with the host,
// so a pair retried on the alternate gets the same answer.
func TestSlabHostAndAlternate(t *testing.T) {
	a := geom.RectPolygon(0, 0, 4, 4)
	b := geom.RectPolygon(2, 1, 6, 3)
	for _, name := range []string{"overlay", "vatti"} {
		host, ok := engine.Get(name)
		if !ok {
			t.Fatalf("slab host %q is not registered", name)
		}
		alt, ok := engine.Reference(name, engine.EvenOdd)
		if !ok || alt.Name() == name {
			t.Fatalf("alternate of %s = %v, %v; want the other host", name, alt, ok)
		}
		if back, ok := engine.Reference(alt.Name(), engine.EvenOdd); !ok || back.Name() != name {
			t.Errorf("alternate of %s = %v, %v; want %s", alt.Name(), back, ok, name)
		}
		for _, op := range engine.Ops() {
			hr, err := host.Clip(context.Background(), a, b, op, engine.Options{Threads: 1})
			if err != nil {
				t.Fatalf("%s %s: %v", name, op, err)
			}
			ar, err := alt.Clip(context.Background(), a, b, op, engine.Options{Threads: 1})
			if err != nil {
				t.Fatalf("%s %s: %v", alt.Name(), op, err)
			}
			if math.Abs(hr.Polygon.Area()-ar.Polygon.Area()) > 1e-9 {
				t.Errorf("%s: %s area %v, alternate %s area %v",
					op, name, hr.Polygon.Area(), alt.Name(), ar.Polygon.Area())
			}
		}
	}
}

func TestStatsMethods(t *testing.T) {
	st := engine.Stats{
		Sort: 1 * time.Millisecond, Partition: 2 * time.Millisecond,
		Merge:     3 * time.Millisecond,
		PerThread: []time.Duration{5 * time.Millisecond, 7 * time.Millisecond, 4 * time.Millisecond},
	}
	if st.CriticalPath() != 7*time.Millisecond {
		t.Errorf("CriticalPath = %v", st.CriticalPath())
	}
	if st.TotalWork() != 16*time.Millisecond {
		t.Errorf("TotalWork = %v", st.TotalWork())
	}
	// One worker: serializes all slabs.
	if got := st.ModelledParallel(1); got != (1+2+3+16)*time.Millisecond {
		t.Errorf("ModelledParallel(1) = %v", got)
	}
	// Two workers: LPT puts 7 alone, 5+4 together -> max 9.
	if got := st.ModelledParallel(2); got != (1+2+3+9)*time.Millisecond {
		t.Errorf("ModelledParallel(2) = %v", got)
	}
	if got := st.ModelledParallel(0); got != st.ModelledParallel(1) {
		t.Errorf("ModelledParallel(0) = %v, want the p=1 value", got)
	}
}

func TestResilienceMerge(t *testing.T) {
	var r engine.Resilience
	r.Merge(engine.Resilience{Repaired: true, Attempts: []string{"a:ok"}, Recovered: 1})
	r.Merge(engine.Resilience{Attempts: []string{"b:panic"}, StageTimeouts: 2, Retries: 3, InvariantFailures: 4})
	if !r.Repaired || r.Recovered != 1 || r.StageTimeouts != 2 || r.Retries != 3 || r.InvariantFailures != 4 {
		t.Errorf("merged counters wrong: %+v", r)
	}
	if len(r.Attempts) != 2 || r.Attempts[0] != "a:ok" || r.Attempts[1] != "b:panic" {
		t.Errorf("merged attempts wrong: %v", r.Attempts)
	}
}

func TestTrapezoidRingArea(t *testing.T) {
	full := engine.Trapezoid{
		L1: geom.Point{X: 0, Y: 0}, R1: geom.Point{X: 2, Y: 0},
		L2: geom.Point{X: 0, Y: 1}, R2: geom.Point{X: 2, Y: 1},
	}
	if r := full.Ring(); len(r) != 4 {
		t.Errorf("rectangle trapezoid ring has %d vertices, want 4", len(r))
	}
	if math.Abs(full.Area()-2) > 1e-12 {
		t.Errorf("rectangle trapezoid area = %g, want 2", full.Area())
	}
	tri := engine.Trapezoid{
		L1: geom.Point{X: 0, Y: 0}, R1: geom.Point{X: 2, Y: 0},
		L2: geom.Point{X: 1, Y: 1}, R2: geom.Point{X: 1, Y: 1},
	}
	if r := tri.Ring(); len(r) != 3 {
		t.Errorf("degenerate trapezoid ring has %d vertices, want 3", len(r))
	}
	if math.Abs(tri.Area()-1) > 1e-12 {
		t.Errorf("triangle area = %g, want 1", tri.Area())
	}
}

// badEngine lets the registration guards be exercised; its registrations all
// panic before mutating the registry.
type badEngine struct{ name string }

func (b badEngine) Name() string { return b.name }
func (badEngine) Clip(context.Context, geom.Polygon, geom.Polygon, engine.Op, engine.Options) (engine.Result, error) {
	return engine.Result{}, nil
}

func TestRegisterGuards(t *testing.T) {
	mustPanic := func(name string, e engine.Engine) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		engine.Register(e)
	}
	mustPanic("empty name", badEngine{name: ""})
	mustPanic("duplicate", badEngine{name: "overlay"})
	if n := len(engine.All()); n != 4 {
		t.Errorf("failed registrations mutated the registry: %d engines", n)
	}
}

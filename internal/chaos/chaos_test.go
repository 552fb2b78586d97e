package chaos

import (
	"math"
	"testing"
	"time"

	"polyclip"
)

// TestCleanRunPasses is the tier-1 slice of the acceptance criterion: a
// fixed-seed run with no faults must find zero contract violations.
func TestCleanRunPasses(t *testing.T) {
	rep := Run(Config{Seed: 1, Cases: 42, Log: t.Logf})
	if rep.Failed() {
		t.Fatalf("clean chaos run failed:\n%s", rep.Summary())
	}
	if rep.InvariantChecks == 0 || rep.Clips == 0 {
		t.Fatalf("run checked nothing: %s", rep.Summary())
	}
}

// TestFaultedRunAbsorbsEveryFault injects a fault into every case and
// requires each to be recovered or surfaced as a structured error — never
// a crash, never a silently wrong answer.
func TestFaultedRunAbsorbsEveryFault(t *testing.T) {
	rep := Run(Config{Seed: 2, Cases: 24, Faults: true, Log: t.Logf})
	if rep.Failed() {
		t.Fatalf("faulted chaos run failed:\n%s", rep.Summary())
	}
	if rep.FaultsArmed != 24 {
		t.Fatalf("want 24 faults armed, got %d", rep.FaultsArmed)
	}
	if rep.FaultsFired <= 0 || rep.FaultsFired > rep.FaultsArmed {
		t.Fatalf("%d of %d armed faults fired, want 0 < fired <= armed", rep.FaultsFired, rep.FaultsArmed)
	}
	// The injected panics must be visible somewhere in the resilience
	// record: rescued in-stage, absorbed by the fallback chain, or caught
	// by the audit.
	r := rep.Resilience
	if r.Recovered+r.FallbackSteps+r.AuditFailures == 0 {
		t.Fatalf("faults left no resilience trace: %s", rep.Summary())
	}
}

// TestBudgetedRunBoundsHangs arms hang faults under a per-clip deadline:
// the engine's own budget-overrun invariant fails the run if any clip
// exceeds twice the budget, and every hang plan must fire.
func TestBudgetedRunBoundsHangs(t *testing.T) {
	if testing.Short() {
		t.Skip("hang faults sleep for real time")
	}
	// The adversarial family's 7 generators are pair workloads, and 11
	// cases arm every hang plan once.
	e := newEngine(Config{Seed: 3, Cases: len(faultPlans), Family: FamilyAdversarial, Faults: true,
		Budget: 500 * time.Millisecond, Log: t.Logf})
	for i := 0; i < e.cfg.Cases; i++ {
		fired := e.rep.FaultsFired
		e.runCase(i)
		if p := e.plan(i); p.kind == kindHang {
			if e.rep.FaultsFired == fired {
				t.Errorf("case %d: %s hang armed but never fired", i, p.site)
			} else {
				t.Logf("case %d: %s hang fired", i, p.site)
			}
		}
	}
	if e.rep.Failed() {
		t.Fatalf("budgeted chaos run failed:\n%s", e.rep.Summary())
	}
	t.Logf("%d of %d armed faults fired", e.rep.FaultsFired, e.rep.FaultsArmed)
}

// TestDegenerateFamilyRun is the tier-1 slice of the degeneracy acceptance
// criterion: a fixed-seed run restricted to the Foster–Overfelt taxonomy
// must find zero contract violations, and must actually draw every
// degenerate family.
func TestDegenerateFamilyRun(t *testing.T) {
	cases := 40
	if testing.Short() {
		cases = 10
	}
	rep := Run(Config{Seed: 7, Cases: cases, Family: FamilyDegenerate, Log: t.Logf})
	if rep.Failed() {
		t.Fatalf("degenerate chaos run failed:\n%s", rep.Summary())
	}
	if rep.InvariantChecks == 0 {
		t.Fatalf("run checked nothing: %s", rep.Summary())
	}
	gens := generatorsFor(FamilyDegenerate)
	if len(gens) < 5 {
		t.Fatalf("degenerate taxonomy has %d families, want >= 5", len(gens))
	}
	for _, g := range gens {
		if g.family != FamilyDegenerate {
			t.Errorf("filter leaked family %q (%s)", g.family, g.name)
		}
	}
}

// TestTilesFamilyRun is the tier-1 slice of the tiling acceptance
// criterion: a fixed-seed run restricted to the tiles family must find zero
// violations of the partition invariant (per-zoom tile areas summing to the
// layer clipped to the pyramid extent), the naive cross-check, and thread
// determinism — across all four fill rules (the op slot cycles the rule
// every len(gens) cases, so 13 cases cover every rule at least once).
func TestTilesFamilyRun(t *testing.T) {
	cases := 13
	if !testing.Short() {
		cases = 26
	}
	rep := Run(Config{Seed: 5, Cases: cases, Family: FamilyTiles, Log: t.Logf})
	if rep.Failed() {
		t.Fatalf("tiles chaos run failed:\n%s", rep.Summary())
	}
	if rep.InvariantChecks == 0 || rep.Clips == 0 {
		t.Fatalf("run checked nothing: %s", rep.Summary())
	}
	gens := generatorsFor(FamilyTiles)
	if len(gens) != 3 {
		t.Fatalf("tiles family has %d generators, want 3", len(gens))
	}
	for _, g := range gens {
		if g.family != FamilyTiles {
			t.Errorf("filter leaked family %q (%s)", g.family, g.name)
		}
	}
}

// TestUnknownFamilyFails: a typo'd filter must fail the run, not pass it
// vacuously over zero cases.
func TestUnknownFamilyFails(t *testing.T) {
	rep := Run(Config{Seed: 1, Cases: 5, Family: "degnerate"})
	if !rep.Failed() {
		t.Fatalf("unknown family reported a pass:\n%s", rep.Summary())
	}
	if len(rep.Failures) != 1 || rep.Failures[0].Invariant != "unknown-family" {
		t.Fatalf("failures = %+v", rep.Failures)
	}
	if rep.Clips != 0 {
		t.Fatalf("unknown family still ran %d clips", rep.Clips)
	}
}

// TestDegenerateWorkloadsAreDegenerate spot-checks that the taxonomy
// families construct their coincidences exactly: shared edges are
// bit-identical between operands and T-vertices land on edge interiors.
func TestDegenerateWorkloadsAreDegenerate(t *testing.T) {
	gens := generatorsFor(FamilyDegenerate)
	for i := 0; i < 4*len(gens); i++ {
		w := buildWorkloadFrom(11, i, gens)
		if len(w.a) == 0 || len(w.b) == 0 {
			t.Fatalf("case %d (%s): empty operand", i, w.name)
		}
		// Every degenerate operand pair must share at least one exact
		// coordinate value on a common axis line — the defining property of
		// constructed (rather than jittered) degeneracy.
		shared := false
		for _, ra := range w.a {
			for _, pa := range ra {
				for _, rb := range w.b {
					for _, pb := range rb {
						if pa.X == pb.X || pa.Y == pb.Y {
							shared = true
						}
					}
				}
			}
		}
		if !shared {
			t.Errorf("case %d (%s): no exact coordinate coincidence between operands", i, w.name)
		}
	}
	// coincident-ring: B sometimes repeats A's outer ring verbatim.
	verbatim := false
	for i := 0; i < 40; i++ {
		w := buildWorkloadFrom(11, i, generatorsFor("coincident-ring"))
		if polyclip.FormatWKT(polyclip.Polygon{w.a[0]}) == polyclip.FormatWKT(w.b) {
			verbatim = true
			break
		}
	}
	if !verbatim {
		t.Error("coincident-ring never produced a verbatim ring copy in 40 draws")
	}
}

// TestDeterminism: the same seed must reproduce the identical report.
func TestDeterminism(t *testing.T) {
	a := Run(Config{Seed: 7, Cases: 14})
	b := Run(Config{Seed: 7, Cases: 14})
	if a.Summary() != b.Summary() {
		t.Fatalf("same seed, different runs:\n%s\n---\n%s", a.Summary(), b.Summary())
	}
}

// TestWorkloadsAreAdversarial spot-checks generator properties the
// invariants rely on: determinism per (seed, index), and each family
// producing non-empty operands with finite, in-range coordinates.
func TestWorkloadsAreAdversarial(t *testing.T) {
	for i := 0; i < 2*len(generators); i++ {
		w1 := buildWorkload(9, i)
		w2 := buildWorkload(9, i)
		if len(w1.a) == 0 || len(w1.b) == 0 {
			t.Fatalf("case %d (%s): empty operand", i, w1.name)
		}
		if polyclip.FormatWKT(w1.a) != polyclip.FormatWKT(w2.a) ||
			polyclip.FormatWKT(w1.b) != polyclip.FormatWKT(w2.b) {
			t.Fatalf("case %d (%s): generation not deterministic", i, w1.name)
		}
	}
	// The self-touching family must actually self-intersect: each operand's
	// even-odd measure must diverge from its raw shoelace sum. The polygram
	// over-counts its multiply-wound core in shoelace terms; the bowtie's
	// lobes cancel to a shoelace of ~0 while the even-odd measure is two
	// full lobes.
	w := buildWorkload(9, 6) // generators[6] = self-touching
	if w.name != "self-touching" {
		t.Fatalf("generator order changed: got %s", w.name)
	}
	for _, operand := range []struct {
		label string
		p     polyclip.Polygon
	}{{"polygram", w.a}, {"bowtie", w.b}} {
		shoelace := polyclip.Area(operand.p)
		measure := polyclip.Area(polyclip.Clip(operand.p, operand.p, polyclip.Intersection))
		if measure <= 0 {
			t.Fatalf("self-touching %s has empty measure", operand.label)
		}
		if diff := math.Abs(measure - shoelace); diff < 1e-3*measure {
			t.Fatalf("self-touching %s is not self-intersecting: shoelace %g, measure %g",
				operand.label, shoelace, measure)
		}
	}
}

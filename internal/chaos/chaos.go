// Package chaos is a deterministic, seedable stress engine for the
// clipping pipeline. One run generates adversarial workloads, optionally
// injects faults (panics, hangs, result corruption) into the pipeline's
// guard sites, and checks metamorphic invariants over the outputs. The
// contract it enforces is the robustness contract of the library itself:
// every injected fault is either recovered (visible in the resilience
// counters) or surfaced as a structured error — never a process crash and
// never a silently wrong answer.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"polyclip"
	"polyclip/internal/guard"
)

// Config parameterizes one chaos run. The zero value is usable; Seed 0 is
// a valid (and reproducible) seed.
type Config struct {
	// Seed drives every random choice. Same seed, same run.
	Seed int64
	// Cases is the number of generated workloads (default 100).
	Cases int
	// Family restricts generation to one family group ("adversarial",
	// "degenerate", "tiles") or one exact family name ("t-vertex"). Empty
	// runs the full cycle. An unknown value fails the run rather than
	// silently testing nothing.
	Family string
	// Threads bounds the clip parallelism; <= 0 means 4, not all CPUs: a
	// stress run must exercise the parallel pipeline (multiple slabs,
	// worker fan-out, watchdogged stages) even on a single-core host.
	Threads int
	// Faults arms one injected fault per case, cycling through the
	// pipeline's guard sites and the panic/hang/corrupt fault kinds.
	Faults bool
	// Budget is the per-clip deadline; 0 disables deadlines. Hang faults
	// are only armed when a budget bounds them.
	Budget time.Duration
	// RelTol is the relative area tolerance for invariant comparisons
	// (default 1e-6; see EXPERIMENTS.md for the derivation).
	RelTol float64
	// MaxFailures caps the retained failure records (default 20).
	MaxFailures int
	// Log, when non-nil, receives a line per failure as it happens.
	Log func(format string, args ...any)
}

// Failure is one recorded contract violation.
type Failure struct {
	Case      int
	Workload  string
	Invariant string
	Detail    string
}

// ResilienceTotals aggregates the per-clip Stats.Resilience counters over
// a whole run — the evidence that injected faults were actually absorbed.
type ResilienceTotals struct {
	RepairedInputs int // clips whose inputs guard.Repair had to modify
	FallbackSteps  int // engine attempts beyond the first in the fallback chain
	Recovered      int // worker panics / abandoned stages rescued in-pipeline
	StageTimeouts  int // stages abandoned by their deadline watchdog
	Retries        int // stage-level sequential retries
	AuditFailures  int // audit rejections inside the fallback chain
	BatchRescued   int // batch overlay pairs rescued on the reference engine (BatchStats.Rescued)
}

// Report is the outcome of a chaos run.
type Report struct {
	Seed   int64
	Cases  int
	Family string // family filter of the run; "" = all families
	Clips  int

	// StructuredErrors counts clips that returned a structured error
	// (*ClipError, ErrInvalidInput, or a context error) — the acceptable
	// way for a clip to fail under faults or deadlines.
	StructuredErrors int
	// UnstructuredErrors counts clips that returned any other error.
	// Always a contract violation.
	UnstructuredErrors int
	// Crashes counts panics that escaped the pipeline into the harness.
	// Always a contract violation.
	Crashes int

	InvariantChecks   int
	InvariantFailures int

	// FaultsArmed counts the one-shot faults armed, one per faulted case;
	// FaultsFired those a clip reached, counted as they fire. An armed
	// fault whose site no clip of its case reaches never fires.
	FaultsArmed int
	FaultsFired int
	// FaultsSurfaced counts faulted cases in which at least one clip
	// surfaced a structured error; the remainder were absorbed silently
	// (rescued, or the armed site was never reached).
	FaultsSurfaced int

	Resilience ResilienceTotals
	Failures   []Failure
}

// Failed reports whether the run found any contract violation.
func (r *Report) Failed() bool {
	return r.InvariantFailures > 0 || r.Crashes > 0 || r.UnstructuredErrors > 0
}

// Summary renders the report as a compact multi-line string.
func (r *Report) Summary() string {
	verdict := "PASS"
	if r.Failed() {
		verdict = "FAIL"
	}
	scope := ""
	if r.Family != "" {
		scope = " family=" + r.Family
	}
	return fmt.Sprintf(
		"chaos %s: seed=%d cases=%d clips=%d%s\n"+
			"  invariants: %d checked, %d failed\n"+
			"  errors: %d structured, %d unstructured, %d crashes\n"+
			"  faults: %d armed, %d fired, %d surfaced as errors\n"+
			"  resilience: repaired=%d fallback-steps=%d recovered=%d stage-timeouts=%d retries=%d audit-failures=%d batch-rescued=%d",
		verdict, r.Seed, r.Cases, r.Clips, scope,
		r.InvariantChecks, r.InvariantFailures,
		r.StructuredErrors, r.UnstructuredErrors, r.Crashes,
		r.FaultsArmed, r.FaultsFired, r.FaultsSurfaced,
		r.Resilience.RepairedInputs, r.Resilience.FallbackSteps, r.Resilience.Recovered,
		r.Resilience.StageTimeouts, r.Resilience.Retries, r.Resilience.AuditFailures, r.Resilience.BatchRescued)
}

type engine struct {
	cfg  Config
	gens []generator
	rep  *Report
}

// Run executes one chaos run. Cases run sequentially (each clip is
// internally parallel), so a failing case is immediately reproducible by
// seed and index.
func Run(cfg Config) *Report {
	e := newEngine(cfg)
	if len(e.gens) == 0 {
		// A typo'd filter must not report a spotless run over zero cases.
		e.rep.InvariantFailures++
		e.record(0, "config", "unknown-family",
			fmt.Sprintf("family %q matches no generator (groups: %v)", cfg.Family, Families()))
		return e.rep
	}
	for i := 0; i < e.cfg.Cases; i++ {
		e.runCase(i)
	}
	return e.rep
}

// newEngine fills in cfg's defaults and selects its generator cycle.
func newEngine(cfg Config) *engine {
	if cfg.Cases <= 0 {
		cfg.Cases = 100
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 4
	}
	if cfg.RelTol <= 0 {
		cfg.RelTol = 1e-6
	}
	if cfg.MaxFailures <= 0 {
		cfg.MaxFailures = 20
	}
	return &engine{cfg: cfg, gens: generatorsFor(cfg.Family), rep: &Report{Seed: cfg.Seed, Cases: cfg.Cases, Family: cfg.Family}}
}

func (e *engine) runCase(i int) {
	w := workload{name: "generate"}
	var fired atomic.Bool
	defer func() {
		// Faults are scoped to their case: never let a leftover fault leak
		// into the next case (or the caller's process).
		guard.ClearFaults()
		if fired.Load() {
			e.rep.FaultsFired++
		}
		if r := recover(); r != nil {
			e.rep.Crashes++
			e.record(i, w.name, "panic-escaped", fmt.Sprint(r))
		}
	}()
	w = buildWorkloadFrom(e.cfg.Seed, i, e.gens)
	errsBefore := e.rep.StructuredErrors
	if e.cfg.Faults {
		e.armFault(i, w, &fired)
	}
	e.checkCase(i, w)
	if e.cfg.Faults && e.rep.StructuredErrors > errsBefore {
		e.rep.FaultsSurfaced++
	}
}

// clip runs one clip through the hardened pipeline under the configured
// budget, absorbing its resilience counters and classifying any error.
func (e *engine) clip(ci int, w workload, a, b polyclip.Polygon, op polyclip.Op, opt polyclip.Options) (out polyclip.Polygon, err error) {
	err = e.run(ci, w, func(ctx context.Context) (err error) {
		var st *polyclip.Stats
		out, st, err = polyclip.ClipCtx(ctx, a, b, op, opt)
		e.absorb(st)
		return err
	})
	return out, err
}

// batchArea runs the batch overlay of the one-feature layers {A} and {B}
// under rule and returns the summed area of its outputs; ok is false on an
// error, which run classifies as it classifies a clip's.
func (e *engine) batchArea(ci int, w workload, rule polyclip.FillRule) (area float64, ok bool) {
	err := e.run(ci, w, func(ctx context.Context) error {
		outs, st, err := polyclip.OverlayBatchLayersCtx(ctx, polyclip.Layer{w.a}, polyclip.Layer{w.b},
			polyclip.Intersection, polyclip.BatchOptions{Threads: e.cfg.Threads, Rule: rule})
		if st != nil {
			e.rep.Resilience.BatchRescued += st.Rescued
		}
		for _, o := range outs {
			area += polyclip.Area(o.Poly)
		}
		return err
	})
	return area, err == nil
}

// run runs one pipeline call under the configured budget: a panic escaping
// it counts as a crash, an overrun of the budget as an invariant failure,
// and a returned error as structured or not.
func (e *engine) run(ci int, w workload, call func(ctx context.Context) error) (err error) {
	e.rep.Clips++
	ctx := context.Background()
	if e.cfg.Budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.cfg.Budget)
		defer cancel()
	}
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			e.rep.Crashes++
			e.record(ci, w.name, "panic-escaped", fmt.Sprint(r))
			err = fmt.Errorf("chaos: panic escaped the pipeline: %v", r)
			return
		}
		// A budgeted clip must return promptly even when a worker hangs:
		// the watchdog abandons the stage instead of joining it. Grace
		// covers scheduler jitter on loaded machines.
		if e.cfg.Budget > 0 {
			if el := time.Since(start); el > 2*e.cfg.Budget+250*time.Millisecond {
				e.rep.InvariantFailures++
				e.record(ci, w.name, "budget-overrun",
					fmt.Sprintf("clip took %v with budget %v", el, e.cfg.Budget))
			}
		}
	}()
	if err = call(ctx); err != nil {
		if structuredErr(err) {
			e.rep.StructuredErrors++
		} else {
			e.rep.UnstructuredErrors++
			e.record(ci, w.name, "unstructured-error", err.Error())
		}
	}
	return err
}

// absorb folds one clip's resilience record into the run totals.
func (e *engine) absorb(st *polyclip.Stats) {
	if st == nil {
		return
	}
	r := &e.rep.Resilience
	if st.Resilience.Repaired {
		r.RepairedInputs++
	}
	if n := len(st.Resilience.Attempts) - 1; n > 0 {
		r.FallbackSteps += n
	}
	r.Recovered += st.Resilience.Recovered
	r.StageTimeouts += st.Resilience.StageTimeouts
	r.Retries += st.Resilience.Retries
	r.AuditFailures += st.Resilience.InvariantFailures
}

// structuredErr reports whether err is one of the pipeline's sanctioned
// failure shapes.
func structuredErr(err error) bool {
	var ce *polyclip.ClipError
	return errors.As(err, &ce) ||
		errors.Is(err, polyclip.ErrInvalidInput) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled)
}

// fail records an invariant violation found by an area comparison.
func (e *engine) fail(ci int, w workload, name string, got, want float64) {
	e.rep.InvariantFailures++
	e.record(ci, w.name, name, fmt.Sprintf("got %.17g, want %.17g", got, want))
}

func (e *engine) record(ci int, workload, invariant, detail string) {
	if e.cfg.Log != nil {
		e.cfg.Log("case %d [%s] %s: %s", ci, workload, invariant, detail)
	}
	if len(e.rep.Failures) < e.cfg.MaxFailures {
		e.rep.Failures = append(e.rep.Failures, Failure{
			Case: ci, Workload: workload, Invariant: invariant, Detail: detail,
		})
	}
}

// faultKind selects how an armed site misbehaves.
type faultKind uint8

const (
	kindPanic   faultKind = iota // worker panics at the site
	kindHang                     // worker sleeps past the stage deadline
	kindCorrupt                  // result polygon replaced with garbage
)

// faultPlan is one injected fault: a guard site and how it misbehaves.
type faultPlan struct {
	site string
	kind faultKind
}

// faultPlans is the deterministic cycle of injected faults: every guard
// site in the pipeline, panics everywhere, plus a result corruption (to
// exercise the audit) and two hangs (to exercise the watchdog).
var faultPlans = []faultPlan{
	{"par.worker", kindPanic},
	{"par.sort", kindPanic},
	{"segtree.build", kindPanic},
	{"isect.pairs", kindPanic},
	{"ringstitch.stitch", kindPanic},
	{"core.slab-clip", kindPanic},
	{"batch.pair-clip", kindPanic},
	{"overlay.clip", kindPanic},
	{"polyclip.result", kindCorrupt},
	{"par.worker", kindHang},
	// Only the slab pipeline reaches this site, so the hang lands inside a
	// watchdogged stage and exercises the abandon-and-retry path rather
	// than a plain join.
	{"core.slab-clip", kindHang},
}

// cutSites are the guard sites a tiles case reaches, in its reference clip
// and its pyramid cuts; par.sort, segtree.build, core.slab-clip and
// batch.pair-clip lie off those paths.
var cutSites = map[string]bool{
	"par.worker": true, "isect.pairs": true, "ringstitch.stitch": true,
	"overlay.clip": true, "polyclip.result": true,
}

// plan returns case i's fault. The plan advances one extra step each time
// the generator cycle wraps, so a plan does not meet the same family on
// every pass when the two cycles have a common length. A tiles case takes
// the next plan in the cycle whose site it reaches.
func (e *engine) plan(i int, w workload) faultPlan {
	k := i + i/len(e.gens)
	for w.tiles() && !cutSites[faultPlans[k%len(faultPlans)].site] {
		k++
	}
	return faultPlans[k%len(faultPlans)]
}

// armFault registers case i's fault. Every fault is one-shot: the first
// clip that reaches the site takes the hit, later clips (including the
// pipeline's own retries) run clean — which is exactly the transient-fault
// model the retry ladder is built for. fired is set when the fault fires,
// on whatever worker goroutine reaches the site.
func (e *engine) armFault(i int, w workload, fired *atomic.Bool) {
	plan := e.plan(i, w)
	if plan.kind == kindHang && e.cfg.Budget <= 0 {
		// A hang with no deadline would block the join forever by design;
		// fall back to a panic at the same site.
		plan.kind = kindPanic
	}
	e.rep.FaultsArmed++
	once := func(fn func()) func() {
		return func() {
			if fired.CompareAndSwap(false, true) {
				fn()
			}
		}
	}
	switch plan.kind {
	case kindPanic:
		guard.InjectFault(plan.site, once(func() {
			panic(fmt.Sprintf("chaos: injected panic at %s (case %d)", plan.site, i))
		}))
	case kindHang:
		// Longer than any stage's share of the budget, but under the 2x
		// return bound in case the sleeping worker sits on a path that
		// joins instead of abandoning.
		d := 3 * e.cfg.Budget / 2
		if d > 3*time.Second {
			d = 3 * time.Second
		}
		guard.InjectFault(plan.site, once(func() { time.Sleep(d) }))
	case kindCorrupt:
		// Replace the result with a square so oversized that every
		// op-specific audit bound must reject it.
		ext := dyadicExtent(w.a, w.b)
		guard.InjectFault(plan.site, func(p polyclip.Polygon) polyclip.Polygon {
			if !fired.CompareAndSwap(false, true) {
				return p
			}
			o, s := 1000*ext, 100*ext
			return polyclip.Polygon{{
				{X: o, Y: o}, {X: o + s, Y: o}, {X: o + s, Y: o + s}, {X: o, Y: o + s},
			}}
		})
	}
}

// Package guard is the resilience layer of the clipping pipeline: input
// validation and repair, result auditing, structured capture of worker
// panics, and a fault-injection hook used by tests to simulate worker
// crashes and pathological geometry.
//
// Degenerate inputs are the common case in real GIS workloads (Foster &
// Overfelt; the paper's §III-C degeneracy handling), so every exported
// function of package polyclip that clips routes its operands through
// Validate and Repair before any engine sees them. ClipCtx's fallback
// chain, which ClipAllCtx and OverlayLayersMergedCtx run too, audits engine
// output before returning it; the batch overlay rescues a panicking pair
// with a second engine instead. The fault hooks let tests drive the rarely-exercised failure paths —
// a panic in one slab worker, a corrupted engine result — without
// depending on finding real inputs that trigger them.
package guard

import (
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"

	"polyclip/internal/engine"
	"polyclip/internal/geom"
)

// MaxCoord is the largest coordinate magnitude accepted by Validate.
// Beyond it, products of two coordinates (orientation and intersection
// predicates evaluate cross products) risk overflowing float64 to ±Inf,
// silently corrupting every downstream combinatorial decision.
const MaxCoord = 1e150

// ErrInvalidInput tags validation failures; test with errors.Is.
var ErrInvalidInput = errors.New("invalid input geometry")

// Validate rejects polygons no engine can be trusted with: non-finite
// (NaN/±Inf) coordinates and overflow-risk magnitudes. It returns nil for
// geometrically degenerate but representable inputs (those are Repair's
// job).
func Validate(p geom.Polygon) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidInput, err)
	}
	for ri, r := range p {
		for vi, pt := range r {
			if m := math.Max(math.Abs(pt.X), math.Abs(pt.Y)); m > MaxCoord {
				return fmt.Errorf("%w: ring %d vertex %d: coordinate magnitude %g exceeds %g (float64 overflow risk)",
					ErrInvalidInput, ri, vi, m, MaxCoord)
			}
		}
	}
	return nil
}

// RepairReport summarizes what Repair changed.
type RepairReport struct {
	DedupedVertices int // duplicate consecutive vertices removed (incl. redundant closing vertex)
	Spikes          int // zero-area spike vertices (a, b, a patterns) removed
	DroppedRings    int // rings below 3 vertices after cleaning
}

// Changed reports whether Repair modified the polygon at all.
func (r RepairReport) Changed() bool {
	return r.DedupedVertices+r.Spikes+r.DroppedRings > 0
}

// Repair returns a cleaned copy of the polygon: duplicate consecutive
// vertices (including a repeated closing vertex) are removed, exact
// zero-area spikes are collapsed, and rings left with fewer than three
// vertices are dropped. When nothing needs repair the input is returned
// unchanged (no allocation), so clean fast-path inputs pay only a scan.
func Repair(p geom.Polygon) (geom.Polygon, RepairReport) {
	var rep RepairReport
	dirty := false
	for _, r := range p {
		if !ringClean(r) {
			dirty = true
			break
		}
	}
	if !dirty {
		return p, rep
	}
	out := make(geom.Polygon, 0, len(p))
	for _, r := range p {
		if ringClean(r) {
			out = append(out, r)
			continue
		}
		cr := cleanRing(r, &rep)
		if len(cr) >= 3 {
			out = append(out, cr)
		} else {
			rep.DroppedRings++
		}
	}
	return out, rep
}

// ringClean reports whether cleanRing would leave r untouched.
func ringClean(r geom.Ring) bool {
	n := len(r)
	if n < 3 {
		return false
	}
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		k := (i + 2) % n
		if r[i] == r[j] { // consecutive duplicate (or closing duplicate at the seam)
			return false
		}
		if r[i] == r[k] { // zero-area spike at j
			return false
		}
	}
	return true
}

// cleanRing removes consecutive duplicates and exact spikes with a stack
// pass, then resolves duplicates/spikes across the implicit closing edge.
func cleanRing(r geom.Ring, rep *RepairReport) geom.Ring {
	st := make(geom.Ring, 0, len(r))
	for _, pt := range r {
		st = append(st, pt)
		for {
			n := len(st)
			if n >= 2 && st[n-1] == st[n-2] {
				st = st[:n-1]
				rep.DedupedVertices++
				continue
			}
			if n >= 3 && st[n-1] == st[n-3] {
				// ..., a, b, a: b is a spike vertex; drop b and one a (the
				// surviving a keeps the chain connected).
				st = st[:n-2]
				rep.Spikes++
				continue
			}
			break
		}
	}
	// Wrap-around: the closing edge st[len-1] -> st[0] is implicit.
	for {
		n := len(st)
		if n < 3 {
			break
		}
		if st[0] == st[n-1] { // redundant closing vertex
			st = st[:n-1]
			rep.DedupedVertices++
			continue
		}
		if st[0] == st[n-2] { // spike at the last vertex
			st = st[:n-1]
			rep.Spikes++
			continue
		}
		if st[1] == st[n-1] { // spike at the first vertex
			st = st[1:]
			rep.Spikes++
			continue
		}
		break
	}
	return st
}

// OpKind is the audited operation, kept as a name for engine.Op.
type OpKind = engine.Op

// MeasureBound returns a cheap sound upper bound on the even-odd measure
// of a polygon: the sum of its rings' bounding-box areas. Unlike the
// shoelace ring-sum — which under-states self-intersecting rings (a
// bowtie's lobes cancel to zero) — this bound holds for arbitrary input,
// which is what the audit needs: a reference that a *correct* result can
// never exceed.
func MeasureBound(p geom.Polygon) float64 {
	var s float64
	for _, r := range p {
		b := r.BBox()
		s += b.Width() * b.Height()
	}
	return s
}

// Audit is the cheap sanity check of the differential-fallback chain: the
// result must have well-formed finite rings and an even-odd area within the
// op-specific upper bound of the input measure bounds (see MeasureBound).
// Only upper bounds are checked — lower bounds are unreliable for
// self-intersecting inputs — so a failed audit means the result is
// certainly damaged, while a passing one is merely plausible.
func Audit(result geom.Polygon, areaSubject, areaClip float64, op engine.Op) error {
	for ri, r := range result {
		if len(r) < 3 {
			return fmt.Errorf("audit: ring %d has %d vertices", ri, len(r))
		}
		if err := r.Validate(); err != nil {
			return fmt.Errorf("audit: ring %d: %v", ri, err)
		}
	}
	areaR := result.Area()
	var bound float64
	switch op {
	case engine.Intersection:
		bound = math.Min(areaSubject, areaClip)
	case engine.Difference:
		bound = areaSubject
	default: // Union, Xor
		bound = areaSubject + areaClip
	}
	// Purely relative tolerance: an absolute floor would make the bound
	// vacuous once input measures drop below it, letting a grossly
	// corrupted result pass unnoticed at small coordinate scales.
	tol := 1e-6 * (areaSubject + areaClip)
	if areaR > bound+tol {
		return fmt.Errorf("audit: result area %g exceeds %v bound %g (subject %g, clip %g)",
			areaR, op, bound, areaSubject, areaClip)
	}
	return nil
}

// DiffTol is the relative tolerance of the differential oracle: two
// structurally different engines must agree on the even-odd measure within
// DiffTol of the input scale for a result to be confirmed.
const DiffTol = 1e-6

// AuditDifferential is the differential oracle of the fallback chain: it
// accepts a result when its even-odd area matches the area computed by a
// structurally different engine within DiffTol, relative to the given scale
// (or to the areas themselves when they dominate it). Unlike Audit's
// heuristic upper bound — which cannot decide whether an in-bound result is
// right — agreement between independently implemented engines is direct
// evidence, so this is the default oracle when Audit is inconclusive.
func AuditDifferential(result geom.Polygon, refArea, scale float64) error {
	got := result.Area()
	s := math.Max(math.Abs(scale), math.Max(math.Abs(got), math.Abs(refArea)))
	if math.Abs(got-refArea) <= DiffTol*s {
		return nil
	}
	return fmt.Errorf("differential audit: result area %g disagrees with reference engine area %g (scale %g)",
		got, refArea, scale)
}

// NoPair is the Pair value of a ClipError that is not pair-attributable.
var NoPair = [2]int{-1, -1}

// ClipError is the structured error produced when a clipping worker panics:
// the pipeline stage, the offending slab or feature pair (when
// attributable), the recovered panic value, and the worker's stack.
type ClipError struct {
	Stage   string // pipeline stage, e.g. "slab-clip", "pair-clip", "clip"
	Slab    int    // offending slab index, -1 when not slab-attributable
	Pair    [2]int // offending feature pair (a-index, b-index), {-1,-1} when n/a
	Value   any    // the recovered panic value
	Stack   []byte // stack of the panicking goroutine
	Err     error  // wrapped error, when the panic value was one
	Timeout bool   // the stage was abandoned by its watchdog deadline, not a panic
}

// Error formats the failure with its attribution.
func (e *ClipError) Error() string {
	var b strings.Builder
	if e.Timeout {
		fmt.Fprintf(&b, "polyclip: timeout in %s", e.Stage)
	} else {
		fmt.Fprintf(&b, "polyclip: panic in %s", e.Stage)
	}
	if e.Slab >= 0 {
		fmt.Fprintf(&b, " (slab %d)", e.Slab)
	}
	if e.Pair[0] >= 0 || e.Pair[1] >= 0 {
		fmt.Fprintf(&b, " (pair %d,%d)", e.Pair[0], e.Pair[1])
	}
	fmt.Fprintf(&b, ": %v", e.Value)
	return b.String()
}

// Unwrap exposes a wrapped error panic value to errors.Is/As.
func (e *ClipError) Unwrap() error { return e.Err }

// FromPanic builds a ClipError from a recovered panic value, capturing the
// current goroutine's stack. It must be called from the deferred recover of
// the goroutine that panicked, so the stack is the panicking one. A value
// that is already a *ClipError passes through unchanged (keeping the
// original, deepest attribution).
func FromPanic(stage string, slab int, pair [2]int, v any) *ClipError {
	if ce, ok := v.(*ClipError); ok {
		return ce
	}
	ce := &ClipError{Stage: stage, Slab: slab, Pair: pair, Value: v, Stack: debug.Stack()}
	if err, ok := v.(error); ok {
		ce.Err = err
	}
	return ce
}

// ---------------------------------------------------------------------------
// Fault injection. Sites are cheap when no fault is registered (one atomic
// load), so production code paths can call Hit unconditionally.

var (
	faults  sync.Map // site name -> fault func
	nFaults atomic.Int32
)

// InjectFault registers fn at the named site. fn is either a func() (for
// Hit sites — it may panic to simulate a worker crash) or a
// func(geom.Polygon) geom.Polygon (for HitPoly sites — it may corrupt a
// result to exercise the audit/fallback path). A nil fn clears the site.
func InjectFault(site string, fn any) {
	if fn == nil {
		ClearFault(site)
		return
	}
	if _, loaded := faults.Swap(site, fn); !loaded {
		nFaults.Add(1)
	}
}

// ClearFault removes the fault at the named site.
func ClearFault(site string) {
	if _, ok := faults.LoadAndDelete(site); ok {
		nFaults.Add(-1)
	}
}

// ClearFaults removes every registered fault (test cleanup).
func ClearFaults() {
	faults.Range(func(k, _ any) bool {
		ClearFault(k.(string))
		return true
	})
}

// Hit invokes the func() fault registered at site, if any.
func Hit(site string) {
	if nFaults.Load() == 0 {
		return
	}
	if v, ok := faults.Load(site); ok {
		if f, ok := v.(func()); ok {
			f()
		}
	}
}

// HitPoly passes p through the transforming fault registered at site, if
// any; otherwise p is returned unchanged.
func HitPoly(site string, p geom.Polygon) geom.Polygon {
	if nFaults.Load() == 0 {
		return p
	}
	if v, ok := faults.Load(site); ok {
		if f, ok := v.(func(geom.Polygon) geom.Polygon); ok {
			return f(p)
		}
	}
	return p
}

// TB is the subset of testing.TB that WithFault needs. Declaring it here
// keeps the testing package out of this production package's import graph.
type TB interface {
	Helper()
	Cleanup(func())
}

// WithFault registers fn at the named site for the duration of the test:
// the fault is injected immediately and every registered fault is cleared
// through t.Cleanup when the test (or subtest) finishes, so a failing test
// can never leak a fault into later tests. This is the required idiom for
// fault injection in tests — raw InjectFault calls without a paired cleanup
// poison the shared fault table.
func WithFault(t TB, site string, fn any) {
	t.Helper()
	InjectFault(site, fn)
	t.Cleanup(ClearFaults)
}

// Once wraps fn so that only the first call fires (later calls no-op) —
// the usual shape for simulating a transient worker crash.
func Once(fn func()) func() {
	var done atomic.Bool
	return func() {
		if done.CompareAndSwap(false, true) {
			fn()
		}
	}
}

// Package engine defines the execution-strategy seam of the clipping
// library: the Engine interface every clipping strategy implements, the
// Capabilities descriptor the resilience chain and slab decomposition use to
// select engines, and the registry that makes engines first-class values.
//
// It is also the canonical home of the vocabulary shared by every layer —
// the boolean operation Op, the FillRule, and the engine-facing Stats — so
// the implementation packages (overlay, vatti, core) alias these types
// instead of re-declaring them.
//
// The layer stack, top to bottom:
//
//	public API (polyclip.Clip/ClipWith/ClipCtx)
//	  -> resilience chain (declarative ordered registry entries)
//	    -> engine registry (this package)
//	      -> engines (overlay, vatti, slabs, scanbeam)
//	        -> scanbeam substrate (internal/scanbeam)
//	          -> par / geom kernels
package engine

import (
	"context"
	"errors"

	"polyclip/internal/geom"
)

// Op is a boolean clipping operation.
type Op uint8

// Supported clipping operations.
const (
	Intersection Op = iota // subject ∩ clip
	Union                  // subject ∪ clip
	Difference             // subject − clip
	Xor                    // symmetric difference
)

// String returns the operation name.
func (op Op) String() string {
	switch op {
	case Intersection:
		return "intersection"
	case Union:
		return "union"
	case Difference:
		return "difference"
	case Xor:
		return "xor"
	default:
		return "unknown"
	}
}

// Eval applies the operation to the two insideness flags.
func (op Op) Eval(inSubject, inClip bool) bool {
	switch op {
	case Intersection:
		return inSubject && inClip
	case Union:
		return inSubject || inClip
	case Difference:
		return inSubject && !inClip
	case Xor:
		return inSubject != inClip
	default:
		return false
	}
}

// Ops lists every operation, for capability matrices and fuzz drivers.
func Ops() []Op { return []Op{Intersection, Union, Difference, Xor} }

// FillRule decides which winding numbers count as interior.
type FillRule uint8

// Supported fill rules. The winding convention is shared by every engine:
// crossing a downward-directed edge left to right raises the winding number
// by one, so a counter-clockwise ring winds its interior +1 and a clockwise
// ring winds it -1.
const (
	// EvenOdd (default): a point is inside when its crossing parity is odd
	// — the rule of GPC and of the paper's self-intersection handling.
	EvenOdd FillRule = iota
	// NonZero: a point is inside when its winding number is nonzero — the
	// rule of most vector graphics models.
	NonZero
	// Positive: a point is inside when its winding number is strictly
	// positive — counter-clockwise rings enclose, clockwise rings do not
	// (the OGC/SVG "positive" rule).
	Positive
	// Negative: a point is inside when its winding number is strictly
	// negative — the mirror of Positive, selecting clockwise-wound regions.
	Negative
)

// Inside applies the rule to a winding number.
func (r FillRule) Inside(wind int16) bool {
	switch r {
	case NonZero:
		return wind != 0
	case Positive:
		return wind > 0
	case Negative:
		return wind < 0
	default:
		return wind&1 != 0
	}
}

// String returns the rule name.
func (r FillRule) String() string {
	switch r {
	case EvenOdd:
		return "evenodd"
	case NonZero:
		return "nonzero"
	case Positive:
		return "positive"
	case Negative:
		return "negative"
	default:
		return "unknown"
	}
}

// ParseRule resolves a rule name as emitted by String (the wire spelling of
// the HTTP API and the CLI tools); ok is false for unknown names.
func ParseRule(name string) (FillRule, bool) {
	for _, r := range Rules() {
		if name == r.String() {
			return r, true
		}
	}
	return EvenOdd, false
}

// Rules lists every fill rule, for capability matrices and fuzz drivers.
func Rules() []FillRule { return []FillRule{EvenOdd, NonZero, Positive, Negative} }

// AllRules is the RuleSet containing every fill rule.
func AllRules() RuleSet { return RuleMask(Rules()...) }

// RuleSet is a bitmask of supported fill rules.
type RuleSet uint8

// RuleMask builds a RuleSet from rules.
func RuleMask(rules ...FillRule) RuleSet {
	var s RuleSet
	for _, r := range rules {
		s |= 1 << r
	}
	return s
}

// Has reports whether the set contains the rule.
func (s RuleSet) Has(r FillRule) bool { return s&(1<<r) != 0 }

// Capabilities describes what an engine can do. The resilience chain filters
// its attempt list by these flags, the slab decomposition uses them to pick
// per-slab engines, and the conformance suite skips exactly what an engine
// declares unsupported.
type Capabilities struct {
	// Rules is the set of fill rules the engine implements.
	Rules RuleSet
	// Cancellable reports that Clip polls ctx inside its loops and stops
	// early; engines without it only check ctx at entry.
	Cancellable bool
	// Parallel reports that Clip exploits Options.Threads > 1.
	Parallel bool
	// Trapezoids reports that the engine can emit the raw trapezoid
	// decomposition (it additionally implements Trapezoider).
	Trapezoids bool
	// SlabHostable reports the engine is safe to run as the sequential
	// clipper inside one slab of the slab decomposition (single-threaded,
	// non-recursive, honors Options.SnapEps so seam geometry quantizes
	// identically across slabs, and honors Options.PreResolved).
	SlabHostable bool
}

// Options configures one engine run. Engines ignore fields outside their
// capabilities (a sequential engine ignores Threads; engines without slab
// decomposition ignore Slabs).
type Options struct {
	// Threads bounds the parallelism; <= 0 means all available CPUs.
	Threads int
	// Slabs is the slab count for slab-decomposition engines; 0 means one
	// per thread.
	Slabs int
	// Rule is the fill rule; engines must reject rules outside their
	// Capabilities with ErrUnsupported.
	Rule FillRule
	// SnapEps is the vertex grid shared by every worker of one run; <= 0
	// means derived from the input magnitude (geom.AutoSnapEps).
	SnapEps float64
	// NoFallback disables an engine's internal rescue paths (stage retries,
	// per-pair engine swaps), surfacing the first failure directly.
	NoFallback bool
	// PreResolved promises that a and b have already been through the joint
	// arrangement resolution for Rule (arrange.ResolvePairRule) — the slab
	// decomposition sets it when it hands its resolved, snapped pair to the
	// slab host whole. Every SlabHostable engine honors it by skipping its
	// own resolution pass, so each clip resolves its pair once.
	PreResolved bool
}

// Result is one engine run's output.
type Result struct {
	// Polygon is the clipped region (CCW outers, CW holes).
	Polygon geom.Polygon
	// Stats carries phase timings and resilience counters when the engine
	// collects them; nil otherwise.
	Stats *Stats
}

// Engine is one clipping execution strategy. Implementations are stateless
// values registered once at init; a single Engine serves concurrent Clip
// calls.
type Engine interface {
	// Name is the registry key, e.g. "overlay", "vatti", "slabs", "scanbeam".
	Name() string
	// Capabilities describes what the engine supports.
	Capabilities() Capabilities
	// Clip computes `a op b`. It must return ErrUnsupported (possibly
	// wrapped) when opt.Rule is outside the declared capabilities, and
	// ctx.Err() when the run was cancelled.
	Clip(ctx context.Context, a, b geom.Polygon, op Op, opt Options) (Result, error)
}

// Trapezoider is implemented by engines whose Capabilities declare
// Trapezoids: the raw scanbeam-sweep output before ring assembly.
type Trapezoider interface {
	Trapezoids(a, b geom.Polygon, op Op) []Trapezoid
}

// ErrUnsupported tags a rule/algorithm request no registered engine can
// serve. The public API surfaces it (wrapped in a *guard.ClipError) instead
// of silently swapping strategies. Test with errors.Is.
var ErrUnsupported = errors.New("unsupported rule/algorithm combination")

// CheckRule returns ErrUnsupported (annotated with the engine name) when the
// engine's capabilities do not include the rule — the shared guard every
// Clip implementation runs first.
func CheckRule(e Engine, r FillRule) error {
	if !e.Capabilities().Rules.Has(r) {
		return &UnsupportedError{Engine: e.Name(), Rule: r}
	}
	return nil
}

// UnsupportedError reports which engine rejected which fill rule; it wraps
// ErrUnsupported for errors.Is.
type UnsupportedError struct {
	Engine string
	Rule   FillRule
}

// Error formats the rejection.
func (e *UnsupportedError) Error() string {
	return "engine " + e.Engine + ": fill rule " + e.Rule.String() + ": " + ErrUnsupported.Error()
}

// Unwrap exposes ErrUnsupported to errors.Is.
func (e *UnsupportedError) Unwrap() error { return ErrUnsupported }

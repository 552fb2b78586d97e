// Package engine defines the execution-strategy seam of the clipping
// library: the Engine interface every clipping strategy implements and the
// registry that makes engines first-class values. Every registered engine
// serves every fill rule and operation, so callers name the engine they
// want: the resilience chain names its engines, the slab decomposition hosts
// overlay (or a configured engine) per slab, and the differential audit
// cross-checks against Reference.
//
// It is also the home of the vocabulary every layer shares — the boolean
// operation Op, the FillRule, the run Options and the engine-facing Stats.
// Overlay, vatti, core, guard and gh take these types as they are; only the
// public package polyclip re-exports them, and guard keeps OpKind as another
// name for Op.
//
// The layer stack, top to bottom:
//
//	public API (polyclip.Clip/ClipWith/ClipCtx)
//	  -> guard validation and repair, then the fallback chain (one per
//	     Algorithm), whose results guard audits
//	    -> engine registry (this package)
//	      -> engines: overlay and vatti (sequential), slabs (Algorithm 2,
//	         a sequential engine hosted per slab) and scanbeam (Algorithm 1)
//	        -> arrange (the joint pair resolution every engine starts from)
//	          -> scanbeam substrate (internal/scanbeam)
//	            -> par / pool / geom kernels
package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"

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

// Ops lists every operation, for conformance matrices and fuzz targets.
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
// the HTTP API and the CLI tools), ignoring case; the empty name is EvenOdd,
// the default. ok is false for unknown names.
func ParseRule(name string) (FillRule, bool) {
	if name == "" {
		return EvenOdd, true
	}
	for _, r := range Rules() {
		if strings.EqualFold(name, r.String()) {
			return r, true
		}
	}
	return EvenOdd, false
}

// Rules lists every fill rule, for conformance matrices and fuzz targets.
func Rules() []FillRule { return []FillRule{EvenOdd, NonZero, Positive, Negative} }

// Options configures one engine run. Engines ignore fields they have no use
// for.
type Options struct {
	// Threads bounds the parallelism; <= 0 means all available CPUs. The
	// sequential vatti sweep ignores it.
	Threads int
	// Slabs is the slabs engine's slab count. 0 derives it from the input:
	// the arrangement pre-scan's events and crossings buy slabs up to twice
	// Threads, and one thread or a small input means one slab.
	Slabs int
	// Rule is the fill rule; engines reject a value outside the four rules
	// with ErrUnsupported (CheckRule).
	Rule FillRule
	// SnapEps is the vertex grid shared by every worker of one run; <= 0
	// means derived from the input magnitude (geom.AutoSnapEps). Only
	// overlay honors it: the slabs and scanbeam engines derive their own
	// grid, and vatti snaps its output on the grid of the output's extent.
	SnapEps float64
	// NoFallback disables an engine's internal rescue paths (stage retries,
	// per-pair engine swaps), surfacing the first failure directly.
	NoFallback bool
	// PreResolved promises that a and b have already been through the joint
	// arrangement resolution (arrange.ResolvePair, the same for every rule)
	// — the slab decomposition sets it when it hands its resolved, snapped
	// pair to the slab host whole. Overlay and vatti, the engines that run
	// inside slabs, honor it by skipping their own resolution pass, so each
	// clip resolves its pair once; slabs and scanbeam always resolve.
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
// calls, under every fill rule and operation.
type Engine interface {
	// Name is the registry key, e.g. "overlay", "vatti", "slabs", "scanbeam".
	Name() string
	// Clip computes `a op b`. It returns ErrUnsupported (wrapped) when
	// opt.Rule is not one of the four fill rules, and ctx.Err() when the run
	// was cancelled.
	Clip(ctx context.Context, a, b geom.Polygon, op Op, opt Options) (Result, error)
}

// ErrUnsupported tags a request outside the declared vocabulary — a fill
// rule or algorithm that is not one of the constants, or an engine name
// nothing registered. The public API surfaces it instead of serving the
// request with some default strategy. Test with errors.Is.
var ErrUnsupported = errors.New("unsupported")

// CheckRule returns an error wrapping ErrUnsupported when r is not one of the
// four fill rules — the shared guard every Clip implementation runs first.
func CheckRule(r FillRule) error {
	if r > Negative {
		return fmt.Errorf("fill rule %d: %w", r, ErrUnsupported)
	}
	return nil
}

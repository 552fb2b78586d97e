// Metamorphic invariant checking. Golden outputs are useless against
// generated adversarial inputs — nobody knows the right answer for a
// random self-intersecting star clipped against a bowtie. What we do know
// are relations that must hold between *related* clips: measure theory
// gives |A∩B| + |A\B| = |A| and inclusion–exclusion, boolean algebra gives
// commutativity and idempotence, affine equivariance gives translation and
// scale invariance, and engine diversity gives cross-checking against the
// sequential Vatti sweep. A violation of any of these is a real bug, with
// no oracle needed.
package chaos

import (
	"math"
	"strings"

	"polyclip"
)

// areaOf runs one clip and returns the even-odd area of the result. ok is
// false when the clip surfaced an error (already recorded by e.clip) — the
// caller must then skip invariants depending on this value.
func (e *engine) areaOf(ci int, w workload, a, b polyclip.Polygon, op polyclip.Op, opt polyclip.Options) (float64, bool) {
	out, err := e.clip(ci, w, a, b, op, opt)
	if err != nil {
		return 0, false
	}
	return polyclip.Area(out), true
}

// checkCase runs the full invariant suite for one workload. Every check is
// an area comparison under the run's relative tolerance; scale anchors the
// tolerance for comparisons whose operands may legitimately be ~0.
func (e *engine) checkCase(ci int, w workload) {
	// Tiles workloads carry a layer and a pyramid window, not an operand
	// pair: they get the tiling invariant suite instead.
	if strings.HasPrefix(w.name, "tiles-") {
		e.checkTiles(ci, w)
		return
	}
	opt := polyclip.Options{Threads: e.cfg.Threads}

	// Reference measures: |A| and |B| as even-odd regions. The shoelace sum
	// over raw rings is wrong for self-intersecting inputs (a bowtie's
	// lobes cancel), so the resolved region A∩A supplies the measure.
	refA, okA := e.areaOf(ci, w, w.a, w.a, polyclip.Intersection, opt)
	refB, okB := e.areaOf(ci, w, w.b, w.b, polyclip.Intersection, opt)
	if !okA || !okB {
		return
	}
	scale := refA + refB

	iAB, ok1 := e.areaOf(ci, w, w.a, w.b, polyclip.Intersection, opt)
	dAB, ok2 := e.areaOf(ci, w, w.a, w.b, polyclip.Difference, opt)
	uAB, ok3 := e.areaOf(ci, w, w.a, w.b, polyclip.Union, opt)
	if ok1 && ok2 {
		e.check(ci, w, "area-conservation", iAB+dAB, refA, scale)
	}
	if ok1 && ok3 {
		e.check(ci, w, "inclusion-exclusion", uAB, refA+refB-iAB, scale)
		if xAB, ok := e.areaOf(ci, w, w.a, w.b, polyclip.Xor, opt); ok {
			e.check(ci, w, "xor-identity", xAB, uAB-iAB, scale)
		}
	}

	// Commutativity of the symmetric operations.
	if iBA, ok := e.areaOf(ci, w, w.b, w.a, polyclip.Intersection, opt); ok && ok1 {
		e.check(ci, w, "commute-intersection", iBA, iAB, scale)
	}
	if uBA, ok := e.areaOf(ci, w, w.b, w.a, polyclip.Union, opt); ok && ok3 {
		e.check(ci, w, "commute-union", uBA, uAB, scale)
	}

	// Affine equivariance under exact float transforms: translating by a
	// power of two near the workload extent and scaling by 4 are exact on
	// the inputs, so the output measure must follow (the snap grid scales
	// with the data, so the arrangement is the same up to rounding).
	base, okBase := e.areaOf(ci, w, w.a, w.b, w.op, opt)
	if okBase {
		t := dyadicExtent(w.a, w.b)
		ta, tb := translatePoly(w.a, t, -t), translatePoly(w.b, t, -t)
		if tArea, ok := e.areaOf(ci, w, ta, tb, w.op, opt); ok {
			e.check(ci, w, "translation-invariance", tArea, base, scale)
		}
		sa, sb := scalePoly(w.a, 4), scalePoly(w.b, 4)
		if sArea, ok := e.areaOf(ci, w, sa, sb, w.op, opt); ok {
			e.check(ci, w, "scale-equivariance", sArea, 16*base, 16*scale)
		}
	}

	// Idempotence on the (clean, library-produced) intersection output.
	if ok1 && iAB > e.cfg.RelTol*scale {
		c, err := e.clip(ci, w, w.a, w.b, polyclip.Intersection, opt)
		if err == nil {
			if cc, ok := e.areaOf(ci, w, c, c, polyclip.Intersection, opt); ok {
				e.check(ci, w, "idempotence-intersection", cc, iAB, scale)
			}
			if cu, ok := e.areaOf(ci, w, c, c, polyclip.Union, opt); ok {
				e.check(ci, w, "idempotence-union", cu, iAB, scale)
			}
			if cd, ok := e.areaOf(ci, w, c, c, polyclip.Difference, opt); ok {
				e.check(ci, w, "self-difference-empty", cd, 0, scale)
			}
		}
	}

	// Cross-engine agreement: the parallel pipeline against the sequential
	// Vatti sweep (no fallback, so a disagreement cannot be papered over by
	// the rescue chain) and against the slab decomposition. All families are
	// in scope — the arrangement pre-resolution (internal/arrange) made the
	// Vatti sweep robust on self-intersecting and near-collinear inputs. The
	// adaptive slab count leaves these small pairs in one slab, so a pinned
	// three-slab run covers Algorithm 2's band clip and seam merge; it runs
	// through the chain, where a slab fault exercises the stage re-run.
	if okBase {
		seq := polyclip.Options{Algorithm: polyclip.AlgoSequential, Threads: 1, NoFallback: true}
		if vArea, ok := e.areaOf(ci, w, w.a, w.b, w.op, seq); ok {
			e.check(ci, w, "cross-engine-vatti", vArea, base, scale)
		}
		slabs := polyclip.Options{Algorithm: polyclip.AlgoSlabs, Threads: e.cfg.Threads}
		if sArea, ok := e.areaOf(ci, w, w.a, w.b, w.op, slabs); ok {
			e.check(ci, w, "cross-engine-slabs", sArea, base, scale)
		}
		slabs.Slabs = 3
		if sArea, ok := e.areaOf(ci, w, w.a, w.b, w.op, slabs); ok {
			e.check(ci, w, "cross-engine-slabs-cut", sArea, base, scale)
		}
		scanbeam := polyclip.Options{Algorithm: polyclip.AlgoScanbeam, Threads: e.cfg.Threads}
		if sArea, ok := e.areaOf(ci, w, w.a, w.b, w.op, scanbeam); ok {
			e.check(ci, w, "cross-engine-scanbeam", sArea, base, scale)
		}
	}

	// Per-rule cross-engine agreement. Every engine now hosts every fill
	// rule (the scanbeam substrate sweeps signed winding counts, the slab
	// decomposition normalizes winding operands), so for each winding rule
	// the overlay baseline, the sequential Vatti sweep, the slab engine,
	// and the parallel scanbeam pipeline must land on the same measure —
	// on the degenerate families included, where rule disagreements are
	// exactly where doubled boundaries and dropped slivers hide.
	for _, rule := range []polyclip.FillRule{polyclip.NonZero, polyclip.Positive, polyclip.Negative} {
		ruleBase, ok := e.areaOf(ci, w, w.a, w.b, w.op, polyclip.Options{Threads: e.cfg.Threads, Rule: rule})
		if !ok {
			continue
		}
		alts := []struct {
			name string
			opt  polyclip.Options
		}{
			{"vatti", polyclip.Options{Algorithm: polyclip.AlgoSequential, Threads: 1, Rule: rule, NoFallback: true}},
			{"slabs", polyclip.Options{Algorithm: polyclip.AlgoSlabs, Threads: e.cfg.Threads, Rule: rule}},
			{"slabs-cut", polyclip.Options{Algorithm: polyclip.AlgoSlabs, Threads: e.cfg.Threads, Rule: rule, Slabs: 3}},
			{"scanbeam", polyclip.Options{Algorithm: polyclip.AlgoScanbeam, Threads: e.cfg.Threads, Rule: rule}},
		}
		for _, alt := range alts {
			if aArea, ok := e.areaOf(ci, w, w.a, w.b, w.op, alt.opt); ok {
				e.check(ci, w, "cross-engine-"+alt.name+"-"+rule.String(), aArea, ruleBase, scale)
			}
		}
	}
}

// check records one invariant comparison: |got-want| within RelTol of the
// largest magnitude in play. NaN anywhere fails (comparisons with NaN are
// false), which is exactly what we want from a poisoned result.
func (e *engine) check(ci int, w workload, name string, got, want, scale float64) {
	e.rep.InvariantChecks++
	s := math.Max(math.Abs(scale), math.Max(math.Abs(got), math.Abs(want)))
	if math.Abs(got-want) <= e.cfg.RelTol*s {
		return
	}
	e.fail(ci, w, name, got, want)
}

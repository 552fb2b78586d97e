// Package batch is the million-feature overlay pipeline: the paper's §IV
// Algorithm 2 for two sets of polygons, at the layer level. It composes
// pieces the repo already has into one output-sensitive batch path:
//
//	stream features (WKT / GeoJSON)           internal/geojson, internal/wkt
//	  -> validate and repair every feature    internal/guard
//	    -> bulk-load MBRs, streaming MBR join internal/rtree (JoinVisit)
//	      -> digest-pair groups of the call   geom.Hash of each operand
//	        -> event-balanced slabs           core.SlabBoundaries over MBR y-extents
//	          -> parallel per-slab clips      internal/par (internal/pool fork)
//	            -> engine registry per pair   internal/engine
//
// The MBR join is the paper's Algorithm 2 candidate filter applied at the
// layer level: per-slab work is proportional to actual MBR overlaps, not to
// |A|·|B|. Slabs get roughly equal numbers of MBR y-events, and each pair is
// clipped whole in the one slab holding the midpoint of its shared MBR's
// y-range, so features spanning slab boundaries are replicated rather than
// split and no merge phase is needed (§IV, last paragraph). Grouping the
// candidate pairs by operand digests adds operand-level output sensitivity:
// repeated operands (shared basemaps, duplicated features) clip once per
// distinct pair within a call, and nothing outlives the call.
//
// Output is canonically ordered by (A, B) feature index, which makes the
// result bit-identical regardless of thread count, slab partition, or
// scheduling — each candidate pair is clipped independently (no cross-pair
// seams), so ordering is the only scheduling-visible freedom.
package batch

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"polyclip/internal/acache"
	"polyclip/internal/core"
	"polyclip/internal/engine"
	"polyclip/internal/geom"
	"polyclip/internal/guard"
	"polyclip/internal/par"
	"polyclip/internal/rtree"
)

// Options configures one batch overlay run.
type Options struct {
	// Rule is the fill rule for every per-pair clip.
	Rule engine.FillRule
	// Engine names the registry engine that clips each pair, single-threaded.
	// Default "vatti" — the sequential reference, which the public API
	// always uses; tests substitute fakes, and the paper's figures the
	// overlay engine.
	Engine string
	// Threads bounds worker parallelism; <= 0 means all available CPUs.
	Threads int
	// Slabs is the number of event-balanced horizontal slabs the pairs are
	// handed to; <= 0 means one slab at one thread and 4 per thread
	// otherwise (the slab loop hands each of its p chunks four consecutive
	// slabs). The paper's figures set it to time p slabs on one thread.
	Slabs int
	// NoFallback disables the per-pair engine rescue, surfacing the first
	// pair failure directly.
	NoFallback bool

	// slabOrder overrides the slab processing order (test hook for the
	// determinism pin: a shuffled order must not change the output).
	slabOrder []int
}

// Output is one non-empty per-pair clip result: feature A[i] op B[j].
type Output struct {
	A, B int32
	Poly geom.Polygon
}

// Stats reports one run's shape and cost. Duration fields are nanoseconds
// on the wire, matching the engine Stats convention.
type Stats struct {
	FeaturesA      int `json:"featuresA"`
	FeaturesB      int `json:"featuresB"`
	Repaired       int `json:"repaired"` // features guard.Repair changed
	CandidatePairs int `json:"candidatePairs"`
	Slabs          int `json:"slabs"`
	Outputs        int `json:"outputs"`
	Rescued        int `json:"rescued"`
	// Hash covers validating, repairing and digesting every feature; Index
	// the MBR join and the slab partition; Clip the per-slab clips and the
	// output assembly.
	Hash    time.Duration   `json:"hashNs"`
	Index   time.Duration   `json:"indexNs"`
	Clip    time.Duration   `json:"clipNs"`
	PerSlab []time.Duration `json:"perSlabNs,omitempty"` // clip time of each slab (Fig. 11 load balance)
	// Cache counts the call's digest-pair groups: Hits is the pairs served
	// by an earlier identical pair, Misses and Entries are the distinct
	// pairs clipped. Bytes is 0: nothing is retained after the call.
	Cache acache.Stats `json:"cache"`
}

// candidate is one MBR-join pair, feature A[a] × B[b], and the index of its
// digest-pair group.
type candidate struct{ a, b, group int32 }

// Overlay clips every candidate feature pair of the two layers and returns
// the non-empty results in canonical (A, B) order. Every feature is first
// validated — a non-finite or overflowing coordinate is an error wrapping
// guard.ErrInvalidInput that names the layer and the feature — and repaired
// (duplicate vertices, zero-area spikes, degenerate rings; counted in
// Stats.Repaired). An out-of-range rule or an unknown engine name is an
// error wrapping engine.ErrUnsupported. A panic while clipping one pair is
// recovered and the pair retried once on engine.Reference (unless
// NoFallback); only a double failure surfaces, as a *guard.ClipError naming
// the pair. A panic anywhere else — hashing, the join, the slab fan-out's
// workers — surfaces as a *guard.ClipError naming the stage.
func Overlay(ctx context.Context, a, b []geom.Polygon, op engine.Op, opt Options) (out []Output, st *Stats, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	name := opt.Engine
	if name == "" {
		name = "vatti"
	}
	if err := engine.CheckRule(opt.Rule); err != nil {
		return nil, nil, err
	}
	eng, ok := engine.Get(name)
	if !ok {
		return nil, nil, fmt.Errorf("engine %q: %w", name, engine.ErrUnsupported)
	}
	threads := opt.Threads
	if threads <= 0 {
		threads = par.DefaultParallelism()
	}

	st = &Stats{FeaturesA: len(a), FeaturesB: len(b)}
	stage := "batch-hash"
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, guard.FromPanic(stage, -1, guard.NoPair, r)
		}
	}()

	// Validated, repaired operands, then canonical digests, once per
	// feature. Repeated operands inside or across the layers collapse onto
	// the same digest pair here.
	t0 := time.Now()
	a, na, err := repairLayer("layer a", a)
	if err != nil {
		return nil, st, err
	}
	b, nb, err := repairLayer("layer b", b)
	if err != nil {
		return nil, st, err
	}
	st.Repaired = na + nb
	da := hashAll(ctx, a, threads)
	db := hashAll(ctx, b, threads)
	st.Hash = time.Since(t0)

	// Event-balanced slabs over the features' MBR y-extents: every slab
	// gets roughly equal numbers of MBR events. One slab needs no cut, so
	// it pays no event sort.
	stage = "batch-index"
	t1 := time.Now()
	boxesA := make([]geom.BBox, len(a))
	boxesB := make([]geom.BBox, len(b))
	for i, f := range a {
		boxesA[i] = f.BBox()
	}
	for j, f := range b {
		boxesB[j] = f.BBox()
	}
	ns := opt.Slabs
	if ns <= 0 {
		ns = 1
		if threads > 1 {
			ns = 4 * threads
		}
	}
	var cuts []float64 // interior slab boundaries, ascending
	if ns > 1 {
		ys := make([]float64, 0, 2*(len(a)+len(b)))
		for _, bx := range boxesA {
			ys = append(ys, bx.MinY, bx.MaxY)
		}
		for _, bx := range boxesB {
			ys = append(ys, bx.MinY, bx.MaxY)
		}
		if ys = core.SortedDistinct(ys, threads); len(ys) > 0 {
			bounds := core.SlabBoundaries(ys, ns)
			cuts = bounds[1 : len(bounds)-1]
		}
	}
	slabs := make([][]int32, len(cuts)+1) // group indices per slab
	st.Slabs = len(slabs)

	// Bulk-load the B MBRs, then stream the spatial join into digest-pair
	// groups. Equal digests mean equal operands and every engine is
	// deterministic, so only a group's first pair is clipped: it lands in
	// the slab holding its shared MBR's y-midpoint, and the rest of the
	// group takes its result after the clip phase.
	var cands []candidate // every candidate pair, in join order
	var lead [][2]int32   // lead[g] is the first pair of group g
	if len(a) > 0 && len(b) > 0 {
		groups := make(map[[2]geom.Digest]int32)
		tr := rtree.Build(len(boxesB), func(j int32) geom.BBox { return boxesB[j] })
		tr.JoinVisit(len(a),
			func(i int32) geom.BBox { return boxesA[i] },
			func(j int32) geom.BBox { return boxesB[j] },
			func(i, j int32) {
				key := [2]geom.Digest{da[i], db[j]}
				gi, ok := groups[key]
				if !ok {
					gi = int32(len(lead))
					groups[key] = gi
					lead = append(lead, [2]int32{i, j})
					ba, bb := boxesA[i], boxesB[j]
					mid := (math.Max(ba.MinY, bb.MinY) + math.Min(ba.MaxY, bb.MaxY)) / 2
					s := sort.SearchFloat64s(cuts, mid)
					slabs[s] = append(slabs[s], gi)
				}
				cands = append(cands, candidate{i, j, gi})
			})
	}
	st.CandidatePairs = len(cands)
	st.Index = time.Since(t1)

	// Fan the slabs out over p forked chunks. Each group's first
	// pair clips single-threaded into the group's own slot; outputs are
	// canonically sorted afterwards, so scheduling leaves no trace.
	stage = "batch-clip"
	t2 := time.Now()
	polys := make([]geom.Polygon, len(lead))
	rescued := make([]bool, len(lead))
	perSlab := make([]time.Duration, len(slabs))
	var firstErr atomic.Pointer[guard.ClipError]
	werr := par.ForEachCtx(ctx, len(slabs), threads, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			s := k
			if opt.slabOrder != nil {
				s = opt.slabOrder[k]
			}
			ts := time.Now()
			for _, gi := range slabs[s] {
				if canceled(ctx) || firstErr.Load() != nil {
					break
				}
				pr := lead[gi]
				poly, wasRescued, ce := pairClip(ctx, eng, opt, a[pr[0]], b[pr[1]], op, pr)
				if ce != nil {
					firstErr.CompareAndSwap(nil, ce)
					break
				}
				polys[gi], rescued[gi] = poly, wasRescued
			}
			perSlab[s] = time.Since(ts)
		}
	})
	if werr != nil {
		return nil, st, werr // workers may still be running: leave their slots alone
	}
	st.PerSlab = perSlab
	n := 0 // non-empty outputs
	for _, c := range cands {
		if rescued[c.group] {
			st.Rescued++
		}
		if len(polys[c.group]) > 0 {
			n++
		}
	}
	if ce := firstErr.Load(); ce != nil {
		return nil, st, ce
	}
	if err := ctx.Err(); err != nil {
		return nil, st, err
	}

	// Every candidate pair takes its group's result. Canonical order: (A, B)
	// ascending, a total order since the join visits each pair once.
	out = make([]Output, 0, n)
	for _, c := range cands {
		if poly := polys[c.group]; len(poly) > 0 {
			out = append(out, Output{A: c.a, B: c.b, Poly: poly})
		}
	}
	sort.Slice(out, func(x, y int) bool {
		if out[x].A != out[y].A {
			return out[x].A < out[y].A
		}
		return out[x].B < out[y].B
	})
	st.Outputs = len(out)
	st.Clip = time.Since(t2)
	st.Cache = acache.Stats{
		Hits:    uint64(len(cands) - len(lead)),
		Misses:  uint64(len(lead)),
		Entries: len(lead),
	}
	return out, st, nil
}

// repairLayer validates and repairs every feature of a layer, returning the
// repaired copy and the number of features Repair changed.
func repairLayer(name string, l []geom.Polygon) ([]geom.Polygon, int, error) {
	changed := 0
	out := make([]geom.Polygon, len(l))
	for i, f := range l {
		if err := guard.Validate(f); err != nil {
			return nil, 0, fmt.Errorf("%s feature %d: %w", name, i, err)
		}
		var rep guard.RepairReport
		out[i], rep = guard.Repair(f)
		if rep.Changed() {
			changed++
		}
	}
	return out, changed, nil
}

// pairClip clips one candidate pair with panic isolation: a panicking engine
// is rescued once on engine.Reference.
func pairClip(ctx context.Context, eng engine.Engine, opt Options,
	fa, fb geom.Polygon, op engine.Op, pr [2]int32) (out geom.Polygon, wasRescued bool, ce *guard.ClipError) {
	run := func(e engine.Engine) (p geom.Polygon, ce *guard.ClipError) {
		defer func() {
			if r := recover(); r != nil {
				ce = guard.FromPanic("batch-clip", -1, [2]int{int(pr[0]), int(pr[1])}, r)
			}
		}()
		guard.Hit("batch.pair-clip")
		res, err := e.Clip(ctx, fa, fb, op, engine.Options{Threads: 1, Rule: opt.Rule})
		if err != nil {
			panic(err) // recovered above; carried as ClipError.Err
		}
		return res.Polygon, nil
	}
	out, ce = run(eng)
	if ce == nil {
		return out, false, nil
	}
	if opt.NoFallback {
		return nil, false, ce
	}
	alt, ok := engine.Reference(eng.Name(), opt.Rule)
	if !ok {
		return nil, false, ce
	}
	out, ce2 := run(alt)
	if ce2 != nil {
		return nil, false, ce // surface the original failure
	}
	return out, true, nil
}

// hashAll digests every feature, in parallel for large layers.
func hashAll(ctx context.Context, fs []geom.Polygon, threads int) []geom.Digest {
	out := make([]geom.Digest, len(fs))
	if len(fs) < 4096 || threads <= 1 {
		for i, f := range fs {
			out[i] = geom.Hash(f)
		}
		return out
	}
	par.ForEachCtx(ctx, len(fs), threads, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = geom.Hash(fs[i])
		}
	})
	return out
}

func canceled(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

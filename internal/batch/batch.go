// Package batch is the million-feature overlay pipeline — the layer-level
// realization of the ROADMAP's "scale set-vs-set overlay to millions of
// polygons" item. It composes pieces the repo already has into one
// output-sensitive batch path:
//
//	stream features (WKT / GeoJSON)           internal/geojson, internal/wkt
//	  -> bulk-load MBRs, streaming MBR join   internal/rtree (JoinVisit)
//	    -> digest-pair groups of the call     geom.Hash of each operand
//	      -> spatial buckets of first pairs   (grid over the joint extent)
//	        -> parallel per-bucket clips      internal/par work-stealing pool
//	          -> engine registry per pair     internal/engine
//
// The MBR join is the paper's Algorithm 2 candidate filter applied at the
// layer level: per-bucket work is proportional to actual MBR overlaps, not
// to |A|·|B|. Grouping the candidate pairs by operand digests adds
// operand-level output sensitivity: repeated operands (shared basemaps,
// duplicated features) clip once per distinct pair within a call, and
// nothing outlives the call.
//
// Output is canonically ordered by (A, B) feature index, which makes the
// result bit-identical regardless of thread count, bucket partition, or
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
	// Default "vatti" — the sequential reference.
	Engine string
	// Threads bounds worker parallelism; <= 0 means all available CPUs.
	Threads int
	// Buckets is the spatial bucket count candidate pairs are grouped
	// into; <= 0 derives 4 buckets per thread (enough slack for the
	// work-stealing pool to balance skewed clusters).
	Buckets int
	// NoFallback disables the per-pair engine rescue, surfacing the first
	// pair failure directly.
	NoFallback bool

	// bucketOrder overrides the bucket processing order (test hook for the
	// determinism pin: a shuffled order must not change the output).
	bucketOrder []int
}

// Output is one non-empty per-pair clip result: feature A[i] op B[j].
type Output struct {
	A, B int32
	Poly geom.Polygon
}

// Stats reports one run's shape and cost. Duration fields are nanoseconds
// on the wire, matching the engine Stats convention.
type Stats struct {
	FeaturesA      int           `json:"featuresA"`
	FeaturesB      int           `json:"featuresB"`
	CandidatePairs int           `json:"candidatePairs"`
	Buckets        int           `json:"buckets"` // non-empty buckets
	Outputs        int           `json:"outputs"`
	Rescued        int           `json:"rescued"`
	Hash           time.Duration `json:"hashNs"`
	Index          time.Duration `json:"indexNs"`
	Clip           time.Duration `json:"clipNs"`
	// Cache counts the call's digest-pair groups: Hits is the pairs served
	// by an earlier identical pair, Misses and Entries are the distinct
	// pairs clipped. Bytes is 0: nothing is retained after the call.
	Cache acache.Stats `json:"cache"`
}

// candidate is one MBR-join pair, feature A[a] × B[b], and the index of its
// digest-pair group.
type candidate struct{ a, b, group int32 }

// Overlay clips every candidate feature pair of the two layers and returns
// the non-empty results in canonical (A, B) order. An out-of-range rule or
// an unknown engine name is an error wrapping engine.ErrUnsupported. A panic
// while clipping one pair is recovered and the pair retried once on
// engine.Reference (unless NoFallback); only a double failure surfaces, as a
// *guard.ClipError naming the pair.
func Overlay(ctx context.Context, a, b []geom.Polygon, op engine.Op, opt Options) ([]Output, *Stats, error) {
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

	st := &Stats{FeaturesA: len(a), FeaturesB: len(b)}

	// Canonical digests, once per feature. Repeated operands inside or
	// across the layers collapse onto the same digest pair here.
	t0 := time.Now()
	da := hashAll(ctx, a, threads)
	db := hashAll(ctx, b, threads)
	st.Hash = time.Since(t0)

	// Bulk-load the B MBRs, then stream the spatial join into digest-pair
	// groups. Equal digests mean equal operands and every engine is
	// deterministic, so only a group's first pair is clipped: it lands in
	// the grid cell of its shared-MBR center, and the rest of the group
	// takes its result after the clip phase.
	t1 := time.Now()
	boxesA := make([]geom.BBox, len(a))
	boxesB := make([]geom.BBox, len(b))
	ext := geom.EmptyBBox()
	for i, f := range a {
		boxesA[i] = f.BBox()
		ext = ext.Union(boxesA[i])
	}
	for j, f := range b {
		boxesB[j] = f.BBox()
		ext = ext.Union(boxesB[j])
	}
	nb := opt.Buckets
	if nb <= 0 {
		nb = 4 * threads
	}
	g := int(math.Ceil(math.Sqrt(float64(nb))))
	if g < 1 {
		g = 1
	}
	buckets := make([][]int32, g*g) // group indices
	w, h := ext.Width(), ext.Height()
	cellOf := func(ba, bb geom.BBox) int {
		cx := (math.Max(ba.MinX, bb.MinX) + math.Min(ba.MaxX, bb.MaxX)) / 2
		cy := (math.Max(ba.MinY, bb.MinY) + math.Min(ba.MaxY, bb.MaxY)) / 2
		gx, gy := 0, 0
		if w > 0 {
			gx = int((cx - ext.MinX) / w * float64(g))
		}
		if h > 0 {
			gy = int((cy - ext.MinY) / h * float64(g))
		}
		gx = clamp(gx, g-1)
		gy = clamp(gy, g-1)
		return gy*g + gx
	}
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
					c := cellOf(boxesA[i], boxesB[j])
					buckets[c] = append(buckets[c], gi)
				}
				cands = append(cands, candidate{i, j, gi})
			})
	}
	st.CandidatePairs = len(cands)
	active := make([]int, 0, len(buckets))
	for c, prs := range buckets {
		if len(prs) > 0 {
			active = append(active, c)
		}
	}
	st.Buckets = len(active)
	st.Index = time.Since(t1)

	order := opt.bucketOrder
	if order == nil {
		order = active
	}

	// Fan the buckets out over the work-stealing pool. Each group's first
	// pair clips single-threaded into the group's own slot; outputs are
	// canonically sorted afterwards, so scheduling leaves no trace.
	t2 := time.Now()
	polys := make([]geom.Polygon, len(lead))
	rescued := make([]bool, len(lead))
	var firstErr atomic.Pointer[guard.ClipError]
	werr := par.ForEachCtx(ctx, len(order), threads, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			for _, gi := range buckets[order[k]] {
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
		}
	})
	if werr != nil {
		return nil, st, werr // workers may still be running: leave their slots alone
	}
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
	out := make([]Output, 0, n)
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

// pairClip clips one candidate pair with panic isolation, mirroring core's
// pairClipSafe: a panicking engine is rescued once on engine.Reference.
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

func clamp(v, hi int) int {
	if v < 0 {
		return 0
	}
	if v > hi {
		return hi
	}
	return v
}

func canceled(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

package main

import (
	"bytes"
	"math"
	"time"

	"polyclip"
	"polyclip/internal/arrange"
	"polyclip/internal/batch"
	"polyclip/internal/data"
	"polyclip/internal/engine"
	"polyclip/internal/geojson"
	"polyclip/internal/geom"
	"polyclip/internal/rtree"
)

// corpus is one overlay operation's input: two feature layers, as
// newline-delimited GeoJSON and as the polygons it encodes.
type corpus struct {
	a, b   []geom.Polygon
	ja, jb []byte
}

// newCorpus generates operation i's layers; no two operations share one.
func newCorpus(seed int64, i, n int, repeat float64) (corpus, error) {
	c := corpus{
		a: data.Features(data.FeatureOptions{N: n, RepeatFrac: repeat, Seed: seed*100000 + 2*int64(i)}),
		b: data.Features(data.FeatureOptions{N: n, RepeatFrac: repeat, Seed: seed*100000 + 2*int64(i) + 1}),
	}
	var err error
	if c.ja, err = ndjson(c.a); err != nil {
		return c, err
	}
	c.jb, err = ndjson(c.b)
	return c, err
}

func ndjson(fs []geom.Polygon) ([]byte, error) {
	var buf bytes.Buffer
	for _, f := range fs {
		j, err := geojson.Marshal(f)
		if err != nil {
			return nil, err
		}
		buf.Write(j)
		buf.WriteByte('\n')
	}
	return buf.Bytes(), nil
}

// overlayFeatures is the number of features in each layer of one overlay.
// Two layers of 10,000 features take most of a second on one core, so a run
// would hold a dozen overlays and its median and tail would rest on them;
// at a tenth of that size a run holds about a hundred.
const overlayFeatures = 1000

// runOverlay returns a batch-overlay workload: OverlayBatchCtx with its
// default options on two newline-delimited GeoJSON layers, a fresh pair of
// layers per operation. The process-wide arrangement cache the default
// options use stays live across operations, as in a long-lived process.
// repeat is the share of features that copy an earlier feature of their
// layer.
func runOverlay(repeat, perSecond float64) func(*runner) error {
	return func(r *runner) error {
		n := overlayFeatures
		if r.cfg.small {
			n = 200
		}
		first, err := newCorpus(r.cfg.seed, 0, n, repeat)
		if err != nil {
			return err
		}
		// Set-up is reading the layers: what a caller pays before any overlay.
		err = r.timeSetup(r.setupReps(25), func() error {
			if _, err := batch.ReadFeatures(bytes.NewReader(first.ja)); err != nil {
				return err
			}
			_, err := batch.ReadFeatures(bytes.NewReader(first.jb))
			return err
		})
		if err != nil {
			return err
		}
		var cur corpus
		var outs []polyclip.BatchOutput
		var ot overlayTrace
		l := loop{ops: r.rounds(perSecond, 1), fresh: true,
			prep: func(i int) error {
				var err error
				cur, err = newCorpus(r.cfg.seed, i, n, repeat)
				return err
			},
			do: func(i int) (float64, error) {
				var err error
				outs, err = r.overlay(i, cur, &ot)
				return float64(len(cur.a) + len(cur.b)), err
			},
			post: func(i int) { r.checkOverlay(i, cur, outs) },
		}
		if err := r.run(l); err != nil {
			return err
		}
		if r.tr != nil {
			r.overlayLayers(&ot)
		}
		return nil
	}
}

// overlaySample is how many outputs of each overlay are recomputed.
const overlaySample = 20

// checkOverlay recomputes an even sample of overlaySample outputs with the
// sequential algorithm.
func (r *runner) checkOverlay(i int, c corpus, outs []polyclip.BatchOutput) {
	r.check(len(outs) > 0, "overlay %d: no outputs", i)
	stride := len(outs)/overlaySample + 1
	for k := 0; k < len(outs); k += stride {
		o := outs[k]
		a, b := c.a[o.A], c.b[o.B]
		ref, _, err := polyclip.ClipCtx(r.ctx, a, b, polyclip.Intersection,
			polyclip.Options{Algorithm: polyclip.AlgoSequential, Threads: 1})
		r.check(err == nil && math.Abs(ref.Area()-o.Poly.Area()) <= areaTol(a, b),
			"overlay %d pair (%d,%d): area %g, sequential %g (%v)", i, o.A, o.B, o.Poly.Area(), ref.Area(), err)
	}
}

// overlayTrace accumulates a traced overlay run's counters.
type overlayTrace struct {
	ops                          int
	candidates, outputs, rescued float64
	hits, misses                 uint64
	pairClips                    int
	pairTime                     float64 // seconds
	bytes                        int64   // cache payload after the last operation
	entries                      int
}

// pairSample is how many candidate pairs a traced run clips one by one
// with the batch overlay's engine.
const pairSample = 2000

// overlay runs one overlay operation. Traced, the stage times the batch
// overlay reports are child spans of the entry span; beside it the GeoJSON
// decode and the spatial join are replayed on the same layers, and once per
// run a fixed sample of candidate pairs is clipped the way the batch overlay
// clips them, uncached.
func (r *runner) overlay(i int, c corpus, ot *overlayTrace) ([]polyclip.BatchOutput, error) {
	var outs []polyclip.BatchOutput
	var st *polyclip.BatchStats
	var err error
	run := func() {
		outs, st, err = polyclip.OverlayBatchCtx(r.ctx, bytes.NewReader(c.ja), bytes.NewReader(c.jb),
			polyclip.Intersection, polyclip.BatchOptions{})
	}
	if !r.tracing {
		run()
		return outs, err
	}
	tr := r.tr
	e := tr.entry(i, "batch.overlay", func(int) { run() })
	if err != nil {
		return nil, err
	}
	tr.addSeq(e, []string{"batch.hash", "batch.index", "batch.clip"}, []time.Duration{st.Hash, st.Index, st.Clip})
	var derr error
	tr.layer(i, "geojson.decode", true, func() {
		if _, derr = batch.ReadFeatures(bytes.NewReader(c.ja)); derr == nil {
			_, derr = batch.ReadFeatures(bytes.NewReader(c.jb))
		}
	})
	if derr != nil {
		r.fail("overlay %d: decode replay: %v", i, derr)
	}
	ot.ops++
	ot.candidates += float64(st.CandidatePairs)
	ot.outputs += float64(st.Outputs)
	ot.rescued += float64(st.Rescued)
	ot.hits += st.Cache.Hits
	ot.misses += st.Cache.Misses
	ot.bytes, ot.entries = st.Cache.Bytes, st.Cache.Entries

	var pairs [][2]int32
	tr.layer(i, "rtree.join", false, func() {
		boxA := make([]geom.BBox, len(c.a))
		boxB := make([]geom.BBox, len(c.b))
		for k, f := range c.a {
			boxA[k] = f.BBox()
		}
		for k, f := range c.b {
			boxB[k] = f.BBox()
		}
		t := rtree.Build(len(boxB), func(j int32) geom.BBox { return boxB[j] })
		t.JoinVisit(len(boxA), func(k int32) geom.BBox { return boxA[k] },
			func(j int32) geom.BBox { return boxB[j] },
			func(a, b int32) { pairs = append(pairs, [2]int32{a, b}) })
	})
	if ot.pairClips == 0 && len(pairs) > 0 {
		vatti := engine.MustGet("vatti")
		stride := len(pairs)/pairSample + 1
		var perr error
		s := tr.layer(i, "engine.vatti.pair_clip", false, func() {
			for k := 0; k < len(pairs); k += stride {
				a, b := c.a[pairs[k][0]], c.b[pairs[k][1]]
				ra, rb := arrange.ResolvePair(a, b)
				if err := rawClip(vatti, ra, rb, engine.Intersection,
					engine.Options{Threads: 1, PreResolved: true}); err != nil {
					perr = err
				}
				ot.pairClips++
			}
		})
		if perr != nil {
			r.fail("overlay %d: pair clip replay: %v", i, perr)
		}
		ot.pairTime = s.dur().Seconds()
	}
	return outs, nil
}

// overlayLayers turns a traced overlay run into per-layer metrics.
func (r *runner) overlayLayers(ot *overlayTrace) {
	L := r.tr.layers()
	m := r.layer
	n := float64(ot.ops)
	m["trace.coverage"] = r.tr.coverage()
	m["batch.overlay_ms"] = entryMeanMs(r.tr)
	m["geojson.decode_ms"] = L["geojson.decode"].ms()
	m["rtree.join_ms"] = L["rtree.join"].ms()
	m["batch.hash_ms"] = L["batch.hash"].ms()
	m["batch.index_ms"] = L["batch.index"].ms()
	m["batch.clip_ms"] = L["batch.clip"].ms()
	m["batch.candidate_pairs"] = ratio(ot.candidates, n)
	m["batch.output_ratio"] = ratio(ot.outputs, ot.candidates)
	m["batch.rescued"] = ot.rescued
	m["engine.vatti.pair_clip_us"] = ratio(ot.pairTime*1e6, float64(ot.pairClips))
	m["acache.hit_ratio"] = ratio(float64(ot.hits), float64(ot.hits+ot.misses))
	m["acache.bytes_mib"] = float64(ot.bytes) / (1 << 20)
	m["acache.entries"] = float64(ot.entries)
}

package polyclip

import (
	"context"
	"io"

	"polyclip/internal/batch"
)

// BatchOptions configures the batch overlay (OverlayBatchCtx): the
// million-feature streaming pipeline with spatial-join bucketing and
// parallel per-bucket clips, each distinct operand pair clipped once.
type BatchOptions struct {
	// Rule is the fill rule for every per-pair clip (default EvenOdd).
	Rule FillRule
	// Engine names the registry engine clipping each pair; "" means the
	// sequential reference ("vatti").
	Engine string
	// Threads bounds worker parallelism; <= 0 means all available CPUs.
	Threads int
	// Buckets is the spatial bucket count; <= 0 derives 4 per thread.
	Buckets int
	// NoFallback disables the per-pair engine rescue, surfacing the first
	// pair failure directly.
	NoFallback bool
}

// BatchOutput is one non-empty per-pair result of a batch overlay: feature
// A[i] op B[j]. Outputs arrive sorted by (A, B) — a canonical order that
// makes results bit-identical regardless of thread count or scheduling.
type BatchOutput = batch.Output

// BatchStats reports a batch overlay run's shape and cost. Its Cache field
// counts the run's candidate pairs by operand digest pair: Hits is the pairs
// served by an earlier identical pair, Misses and Entries the distinct pairs
// clipped; Bytes is 0, since nothing outlives the call.
type BatchStats = batch.Stats

// OverlayBatchCtx streams two feature layers from r A and B — each WKT (one
// geometry per line) or GeoJSON (FeatureCollection or newline-delimited) —
// and clips every candidate feature pair: the scalable batch form of
// OverlayLayers. Candidate pairs come from a streaming R-tree MBR join,
// grouped into spatial buckets and fanned out over the work-stealing pool;
// a repeated operand pair is clipped once and its result shared.
func OverlayBatchCtx(ctx context.Context, a, b io.Reader, op Op, opt BatchOptions) ([]BatchOutput, *BatchStats, error) {
	fa, err := batch.ReadFeatures(a)
	if err != nil {
		return nil, nil, err
	}
	fb, err := batch.ReadFeatures(b)
	if err != nil {
		return nil, nil, err
	}
	return OverlayBatchLayersCtx(ctx, Layer(fa), Layer(fb), op, opt)
}

// OverlayBatchLayersCtx is OverlayBatchCtx over already-parsed layers.
func OverlayBatchLayersCtx(ctx context.Context, a, b Layer, op Op, opt BatchOptions) ([]BatchOutput, *BatchStats, error) {
	return batch.Overlay(ctx, a, b, op, batch.Options{
		Rule:       opt.Rule,
		Engine:     opt.Engine,
		Threads:    opt.Threads,
		Buckets:    opt.Buckets,
		NoFallback: opt.NoFallback,
	})
}

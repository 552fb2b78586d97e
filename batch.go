package polyclip

import (
	"context"
	"fmt"
	"io"

	"polyclip/internal/batch"
)

// BatchOptions configures the batch overlay (OverlayBatchCtx): the paper's
// Algorithm 2 for two sets of polygons, streaming million-feature layers
// through an MBR join into event-balanced slabs of per-pair clips, each
// distinct operand pair clipped once by the sequential reference engine.
type BatchOptions struct {
	// Rule is the fill rule for every per-pair clip (default EvenOdd).
	Rule FillRule
	// Threads bounds worker parallelism; <= 0 means all available CPUs.
	Threads int
	// NoFallback disables the per-pair engine rescue, surfacing the first
	// pair failure directly.
	NoFallback bool
}

// BatchOutput is one non-empty per-pair result of a batch overlay: feature
// A[i] op B[j]. Outputs arrive sorted by (A, B) — a canonical order that
// makes results bit-identical regardless of thread count or scheduling.
type BatchOutput = batch.Output

// BatchStats reports a batch overlay run's shape and cost. Repaired counts
// the features validation had to repair. Its Cache field counts the run's
// candidate pairs by operand digest pair: Hits is the pairs served by an
// earlier identical pair, Misses and Entries the distinct pairs clipped;
// Bytes is 0, since nothing outlives the call.
type BatchStats = batch.Stats

// OverlayBatchCtx streams two feature layers from r A and B — each WKT (one
// geometry per line) or GeoJSON (FeatureCollection or newline-delimited) —
// and clips every feature pair whose MBRs overlap (see
// OverlayBatchLayersCtx).
func OverlayBatchCtx(ctx context.Context, a, b io.Reader, op Op, opt BatchOptions) ([]BatchOutput, *BatchStats, error) {
	fa, err := batch.ReadFeatures(a)
	if err != nil {
		return nil, nil, fmt.Errorf("layer a: %w", err)
	}
	fb, err := batch.ReadFeatures(b)
	if err != nil {
		return nil, nil, fmt.Errorf("layer b: %w", err)
	}
	return OverlayBatchLayersCtx(ctx, Layer(fa), Layer(fb), op, opt)
}

// OverlayBatchLayersCtx clips every feature pair of two layers whose MBRs
// overlap, in parallel — the paper's pthread Algorithm 2 for two sets of
// polygons — and returns the non-empty per-pair results. Every feature is
// validated (a non-finite or overflowing coordinate returns an error
// wrapping ErrInvalidInput that names the layer and the feature) and
// repaired first. Candidate pairs come from a streaming R-tree MBR join and
// are handed to event-balanced horizontal slabs fanned out over internal/par's
// per-call fork; a repeated operand pair is clipped once and its result
// shared. The clip loop honors ctx; a panicking pair is rescued once by a
// structurally different engine (counted in BatchStats.Rescued) before a
// *ClipError naming the pair surfaces, and any other worker panic surfaces
// as a *ClipError naming its stage.
func OverlayBatchLayersCtx(ctx context.Context, a, b Layer, op Op, opt BatchOptions) ([]BatchOutput, *BatchStats, error) {
	return batch.Overlay(ctx, a, b, op, batch.Options{
		Rule:       opt.Rule,
		Threads:    opt.Threads,
		NoFallback: opt.NoFallback,
	})
}

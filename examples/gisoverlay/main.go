// GIS overlay: synthesize a feature layer shaped like one of the paper's
// Table III datasets (urban areas) and a second layer that overlaps it
// feature by feature, overlay them in parallel with the multi-threaded slab
// algorithm, and report the result statistics and where the time went —
// the paper's §V-B workload in miniature.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"polyclip"
	"polyclip/internal/data"
)

func main() {
	const scale = 0.01 // 1% of the paper's dataset sizes
	a := polyclip.Layer(data.Layer(data.TableIII[0], scale, 1))
	// Every feature of A displaced by up to half its size: each one meets
	// its own copy and whatever neighbours it drifts into.
	b := polyclip.Layer(data.OverlapLayer(a, 2))

	fmt.Printf("layer A: %d features, %d edges\n", len(a), a.NumVertices())
	fmt.Printf("layer B: %d features, %d edges\n", len(b), b.NumVertices())

	t0 := time.Now()
	results, st, err := polyclip.OverlayBatchLayersCtx(context.Background(), a, b,
		polyclip.Intersection, polyclip.BatchOptions{Threads: 8})
	if err != nil {
		log.Fatal(err)
	}
	wall := time.Since(t0)

	var area float64
	for _, r := range results {
		area += polyclip.Area(r.Poly)
	}
	fmt.Printf("\nintersect(A,B): %d result polygons from %d candidate pairs, total area %.4f\n",
		len(results), st.CandidatePairs, area)
	fmt.Printf("wall %v | slabs=%d hash=%v index=%v clip=%v\n",
		wall, st.Slabs, st.Hash, st.Index, st.Clip)
	fmt.Printf("per-slab clip times (load balance, cf. paper Fig. 11):\n")
	for i, d := range st.PerSlab {
		fmt.Printf("  slab %2d: %v\n", i, d)
	}

	// Whole-layer union through the splitting variant.
	merged, _ := polyclip.OverlayLayersMerged(a, b, polyclip.Union, polyclip.Options{Threads: 8})
	fmt.Printf("\nunion(A,B): %d rings, area %.4f\n", len(merged), polyclip.Area(merged))
}

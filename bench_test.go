// Benchmarks regenerating the measurements behind every table and figure of
// the paper's evaluation (§V), plus the ablations called out in DESIGN.md.
// Run with:
//
//	go test -bench=. -benchmem
//
// The full-scale experiment harness (parameter sweeps, formatted tables) is
// cmd/bench; these benchmarks exercise one representative configuration per
// experiment so the whole suite stays runnable in CI.
package polyclip

import (
	"fmt"
	"testing"

	"polyclip/internal/core"
	"polyclip/internal/data"
	"polyclip/internal/engine"
	"polyclip/internal/isect"
	"polyclip/internal/overlay"
	"polyclip/internal/par"
	"polyclip/internal/pram"
	"polyclip/internal/vatti"
)

// --- Table I: inversion counting/reporting by extended mergesort ---------

func BenchmarkTableIInversionCount(b *testing.B) {
	xs := make([]int, 1<<16)
	for i := range xs {
		xs[i] = (i * 48271) % len(xs)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		par.CountInversions(xs)
	}
}

func BenchmarkTableIInversionReport(b *testing.B) {
	xs := make([]int, 1<<10)
	for i := range xs {
		xs[i] = (i * 48271) % 97
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		par.ReportInversions(xs)
	}
}

// --- Table II: scanbeam decomposition (trapezoid sweep) ------------------

func BenchmarkTableIIScanbeamTable(b *testing.B) {
	subject, clip := data.SyntheticPair(1, 2000, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vatti.Trapezoids(subject, clip, vatti.Intersection)
	}
}

// --- Table III: dataset synthesis ----------------------------------------

func BenchmarkTableIIIDatasetSynthesis(b *testing.B) {
	d := data.TableIII[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data.Layer(d, 0.01, int64(i))
	}
}

// --- Figure 7: sequential clipping time vs polygon size ------------------

func BenchmarkFig7SequentialClip(b *testing.B) {
	for _, n := range []int{1000, 4000, 16000} {
		subject, clip := data.SyntheticPair(2, n, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				overlay.Clip(subject, clip, overlay.Intersection, overlay.Options{Parallelism: 1})
			}
		})
	}
}

func BenchmarkFig7VattiEngine(b *testing.B) {
	for _, n := range []int{1000, 4000} {
		subject, clip := data.SyntheticPair(2, n, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				vatti.Clip(subject, clip, vatti.Intersection)
			}
		})
	}
}

// --- Figure 8: Algorithm 2 speedup vs threads (synthetic pair) -----------

func BenchmarkFig8SlabClipPair(b *testing.B) {
	subject, clip := data.SyntheticPair(3, 8000, 8000)
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.ClipPair(subject, clip, core.Intersection, core.Options{Threads: p})
			}
		})
	}
}

// --- Figure 9: phase breakdown -------------------------------------------

func BenchmarkFig9Partition(b *testing.B) {
	subject, clip := data.SyntheticPair(4, 8000, 8000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st := core.ClipPair(subject, clip, core.Intersection, core.Options{Threads: 8})
		_ = st.Partition
	}
}

func BenchmarkFig9MergeStitch(b *testing.B) {
	subject, clip := data.SyntheticPair(4, 8000, 8000)
	for _, merge := range []core.MergeMode{core.MergeStitch, core.MergeConcat} {
		b.Run(fmt.Sprintf("merge=%d", merge), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.ClipPair(subject, clip, core.Union, core.Options{Threads: 8, Merge: merge})
			}
		})
	}
}

// --- Figure 10: layer overlay scaling (Table III datasets) ---------------

func BenchmarkFig10LayerOverlay(b *testing.B) {
	la := core.Layer(data.Layer(data.TableIII[0], 0.002, 1))
	lb := core.Layer(data.Layer(data.TableIII[1], 0.002, 2))
	for _, p := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("threads=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.ClipLayers(la, lb, core.Intersection, core.Options{Threads: p})
			}
		})
	}
}

// --- Figure 11: load imbalance accounting --------------------------------

func BenchmarkFig11PerThreadTimes(b *testing.B) {
	la := core.Layer(data.Layer(data.TableIII[0], 0.002, 1))
	lb := core.Layer(data.Layer(data.TableIII[1], 0.002, 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st := core.ClipLayers(la, lb, core.Intersection, core.Options{Threads: 16})
		_ = st.CriticalPath()
	}
}

// --- Figure 12: end-to-end absolute comparison ---------------------------

func BenchmarkFig12EndToEnd(b *testing.B) {
	la := core.Layer(data.Layer(data.TableIII[2], 0.0005, 3))
	lb := core.Layer(data.Layer(data.TableIII[3], 0.0005, 4))
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.ClipLayers(la, lb, core.Intersection, core.Options{Threads: 1})
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.ClipLayers(la, lb, core.Intersection, core.Options{Threads: 0})
		}
	})
}

// --- §III theory: PRAM primitives ----------------------------------------

func BenchmarkPRAMScan(b *testing.B) {
	xs := make([]int, 1<<12)
	for i := range xs {
		xs[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pram.New().Scan(xs)
	}
}

func BenchmarkPRAMBitonicSort(b *testing.B) {
	xs := make([]int, 1<<10)
	for i := range xs {
		xs[i] = (i * 31) % 997
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pram.New().Sort(xs)
	}
}

// --- Ablations (DESIGN.md) ------------------------------------------------

// BenchmarkAblationFinders compares the intersection finders: the uniform
// grid filter versus the paper's scanbeam-inversion method.
func BenchmarkAblationFinders(b *testing.B) {
	subject, clip := data.SyntheticPair(5, 4000, 4000)
	segs := append(subject.Edges(), clip.Edges()...)
	b.Run("grid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			isect.GridPairs(segs, 0)
		}
	})
	b.Run("scanbeam-inversions", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			isect.ScanbeamPairs(segs, 0)
		}
	})
	b.Run("bentley-ottmann", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			isect.SweepPairs(segs)
		}
	})
}

// BenchmarkAblationMerge compares the three merge strategies of the slab
// algorithm.
func BenchmarkAblationMerge(b *testing.B) {
	subject, clip := data.SyntheticPair(6, 4000, 4000)
	modes := map[string]core.MergeMode{
		"stitch":     core.MergeStitch,
		"concat":     core.MergeConcat,
		"union-tree": core.MergeUnionTree,
	}
	for name, mode := range modes {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.ClipPair(subject, clip, core.Intersection, core.Options{Threads: 8, Merge: mode})
			}
		})
	}
}

// BenchmarkAblationPartition compares event-balanced slabs (the paper) with
// uniform-height slabs (the grid approach of the paper's [19]) on skewed
// data, reporting the load-balance critical path.
func BenchmarkAblationPartition(b *testing.B) {
	la := core.Layer(data.Layer(data.TableIII[1], 0.005, 7))
	lb := core.Layer(data.OverlapLayer(la, 8))
	modes := map[string]core.PartitionMode{
		"event-balanced": core.PartitionEvents,
		"uniform-height": core.PartitionUniform,
	}
	for name, mode := range modes {
		b.Run(name, func(b *testing.B) {
			var worst float64
			for i := 0; i < b.N; i++ {
				_, st := core.ClipLayers(la, lb, core.Intersection, core.Options{Threads: 8, Partition: mode})
				if cp := float64(st.CriticalPath()); cp > worst {
					worst = cp
				}
			}
			b.ReportMetric(worst/1e6, "critpath-ms")
		})
	}
}

// BenchmarkAblationEngines compares the two sequential engines inside the
// slab algorithm.
func BenchmarkAblationEngines(b *testing.B) {
	subject, clip := data.SyntheticPair(9, 2000, 2000)
	for _, name := range []string{"overlay", "vatti"} {
		eng := engine.MustGet(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.ClipPair(subject, clip, core.Intersection, core.Options{Threads: 4, Engine: eng})
			}
		})
	}
}

// BenchmarkAlgorithmOne measures the fully parallel scanbeam pipeline.
// The thread ladder matches BenchmarkFig8SlabClipPair, so the two read as
// one scaling curve per algorithm (make bench runs both at 1 and 2 CPUs).
func BenchmarkAlgorithmOne(b *testing.B) {
	subject, clip := data.SyntheticPair(10, 4000, 4000)
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.AlgorithmOne(subject, clip, core.Intersection, p)
			}
		})
	}
}

// BenchmarkPublicAPI measures the default public entry point.
func BenchmarkPublicAPI(b *testing.B) {
	subject, clip := data.SyntheticPair(11, 2000, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Clip(subject, clip, Intersection)
	}
}

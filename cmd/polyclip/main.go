// Command polyclip clips two WKT polygon files.
//
// Usage:
//
//	polyclip -op intersection -alg slabs -threads 8 subject.wkt clip.wkt
//
// Each input file holds one POLYGON or MULTIPOLYGON. The result is written
// to stdout as WKT; -stats prints phase timings to stderr. With -layers each
// input is a feature layer (WKT, one feature per line, or GeoJSON), every
// feature pair whose MBRs overlap is clipped through the batch overlay, and
// each non-empty result is written as one WKT line in (A, B) order.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"polyclip"
)

func main() {
	opName := flag.String("op", "intersection", "operation: intersection|union|difference|xor")
	alg := flag.String("alg", "overlay", "algorithm: overlay|slabs|scanbeam|sequential")
	threads := flag.Int("threads", 0, "parallelism (0 = all CPUs)")
	stats := flag.Bool("stats", false, "print phase timings to stderr")
	layers := flag.Bool("layers", false, "read each input as a feature layer (WKT, one feature per line, or GeoJSON) and overlay the two layers pair by pair")
	flag.Parse()

	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: polyclip [flags] subject.wkt clip.wkt")
		flag.PrintDefaults()
		os.Exit(2)
	}

	var op polyclip.Op
	switch *opName {
	case "intersection":
		op = polyclip.Intersection
	case "union":
		op = polyclip.Union
	case "difference":
		op = polyclip.Difference
	case "xor":
		op = polyclip.Xor
	default:
		fatalf("unknown operation %q", *opName)
	}

	var algorithm polyclip.Algorithm
	switch *alg {
	case "overlay":
		algorithm = polyclip.AlgoOverlay
	case "slabs":
		algorithm = polyclip.AlgoSlabs
	case "scanbeam":
		algorithm = polyclip.AlgoScanbeam
	case "sequential":
		algorithm = polyclip.AlgoSequential
	default:
		fatalf("unknown algorithm %q", *alg)
	}

	if *layers {
		la, lb := openFile(flag.Arg(0)), openFile(flag.Arg(1))
		defer la.Close()
		defer lb.Close()
		results, st, err := polyclip.OverlayBatchCtx(context.Background(), la, lb, op,
			polyclip.BatchOptions{Threads: *threads})
		if err != nil {
			fatalf("%v", err)
		}
		var area float64
		for _, r := range results {
			fmt.Println(polyclip.FormatWKT(r.Poly))
			area += polyclip.Area(r.Poly)
		}
		if *stats {
			fmt.Fprintf(os.Stderr, "features: %d x %d -> %d results, total area %g\n",
				st.FeaturesA, st.FeaturesB, len(results), area)
			fmt.Fprintf(os.Stderr, "candidates=%d repaired=%d slabs=%d hash=%v index=%v clip=%v\n",
				st.CandidatePairs, st.Repaired, st.Slabs, st.Hash, st.Index, st.Clip)
		}
		return
	}

	subject := loadWKT(flag.Arg(0))
	clip := loadWKT(flag.Arg(1))

	out, st := polyclip.ClipWith(subject, clip, op, polyclip.Options{
		Algorithm: algorithm,
		Threads:   *threads,
	})
	fmt.Println(polyclip.FormatWKT(out))
	if *stats {
		fmt.Fprintf(os.Stderr, "rings=%d area=%g\n", len(out), polyclip.Area(out))
		if st != nil {
			fmt.Fprintf(os.Stderr, "slabs=%d sort=%v partition=%v clip=%v merge=%v\n",
				st.Slabs, st.Sort, st.Partition, st.Clip, st.Merge)
		}
	}
}

// openFile opens one input layer for reading.
func openFile(path string) *os.File {
	f, err := os.Open(path)
	if err != nil {
		fatalf("%v", err)
	}
	return f
}

func loadWKT(path string) polyclip.Polygon {
	raw, err := os.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	p, err := polyclip.ParseWKT(string(raw))
	if err != nil {
		fatalf("%s: %v", path, err)
	}
	return p
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

// Command tilecut cuts a polygon layer into a z/x/y pyramid of vector
// tiles through the prepared-geometry pipeline.
//
// Usage:
//
//	tilecut -in layer.wkt -zooms 0:6 -o tiles.ndjson
//	datagen -tiles 256 | tilecut -zooms 2:5 -threads 8
//	tilecut -in layer.wkt -naive -stats   # per-tile full-clip baseline
//
// Input is WKT or GeoJSON (auto-detected); multiple input features are
// cut independently, each into the shared pyramid. Output is one JSON
// record per non-empty tile — {"feature","z","x","y","wkt"} — in
// deterministic (feature, z, x, y) order: bit-identical for any -threads.
// -stats prints the cut summary (fast-path hits, prunes, fills) to stderr.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"polyclip/internal/batch"
	"polyclip/internal/engine"
	"polyclip/internal/geom"
	"polyclip/internal/tile"
	"polyclip/internal/wkt"
)

func main() {
	in := flag.String("in", "-", "input layer file, WKT or GeoJSON (default stdin)")
	out := flag.String("o", "-", "output file (default stdout)")
	zooms := flag.String("zooms", "0:4", "zoom range min:max")
	extent := flag.String("extent", "", "pyramid extent minX,minY,maxX,maxY (default: padded square around the layer)")
	rule := flag.String("rule", "evenodd", "fill rule: evenodd, nonzero, positive, negative")
	threads := flag.Int("threads", 0, "worker threads (0 = all CPUs)")
	naive := flag.Bool("naive", false, "per-tile full clips instead of the prepared pipeline")
	stats := flag.Bool("stats", false, "print cut statistics to stderr")
	flag.Parse()

	features, err := readLayer(*in)
	if err != nil {
		fatalf("reading %s: %v", *in, err)
	}
	if len(features) == 0 {
		fatalf("no input features")
	}

	var minZ, maxZ int
	if _, err := fmt.Sscanf(*zooms, "%d:%d", &minZ, &maxZ); err != nil {
		fatalf("bad -zooms %q (want min:max): %v", *zooms, err)
	}
	spec := tile.Spec{MinZoom: minZ, MaxZoom: maxZ}
	if *extent == "" {
		var ext geom.BBox
		for _, f := range features {
			ext = ext.Union(f.BBox())
		}
		spec.Extent = tile.SquareExtent(ext)
	} else {
		var b geom.BBox
		if _, err := fmt.Sscanf(*extent, "%g,%g,%g,%g", &b.MinX, &b.MinY, &b.MaxX, &b.MaxY); err != nil {
			fatalf("bad -extent %q: %v", *extent, err)
		}
		spec.Extent = b
	}

	fillRule, ok := engine.ParseRule(*rule)
	if !ok {
		fatalf("unknown rule %q", *rule)
	}

	tiles, st, err := batch.CutTiles(context.Background(), features, batch.TileOptions{
		Spec:    spec,
		Rule:    fillRule,
		Threads: *threads,
		Naive:   *naive,
	})
	if err != nil {
		fatalf("cutting: %v", err)
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	enc := json.NewEncoder(bw)
	for _, t := range tiles {
		rec := struct {
			Feature int32  `json:"feature"`
			Z       int    `json:"z"`
			X       int32  `json:"x"`
			Y       int32  `json:"y"`
			WKT     string `json:"wkt"`
		}{t.Feature, t.Z, t.X, t.Y, wkt.Marshal(t.Poly)}
		if err := enc.Encode(rec); err != nil {
			fatalf("writing: %v", err)
		}
	}

	if *stats {
		sj, _ := json.Marshal(st)
		fmt.Fprintf(os.Stderr, "%s\n", sj)
	}
}

func readLayer(path string) ([]geom.Polygon, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return batch.ReadFeatures(r)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

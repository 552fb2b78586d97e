// Command clipd serves the clipping library over HTTP/JSON: WKT or GeoJSON
// operands in, GeoJSON out. It is a thin main around internal/serve, which
// owns admission control, degraded-mode routing, deadline budgets and
// per-request metrics (see DESIGN.md row for internal/serve). Each request
// runs its own clip as soon as it takes a work slot.
//
// Usage:
//
//	clipd -addr :8080
//	clipd -addr :8080 -queue 512 -max-concurrent 8 -timeout 2s
//
// Endpoints:
//
//	POST /clip         {"subject": <wkt-string|geojson>, "clip": ..., "op": "intersection|union|difference|xor",
//	                    "rule": "evenodd|nonzero|positive|negative", "algorithm": "overlay|slabs|scanbeam|sequential"}
//	POST /tile         {"layer": <wkt-string|geojson>, "minZoom": 0, "maxZoom": 6, "extent": [minX, minY, maxX, maxY],
//	                    "rule": ...} — the layer's non-empty tiles as GeoJSON
//	GET  /healthz      liveness + admission mode
//	GET  /statz        aggregate counters (JSON)
//	GET  /metrics.csv  per-request metrics window (CSV)
//
// Overloaded requests are shed with 503 + Retry-After; overflow below the
// shedding threshold is served single-threaded through the coarse/sequential
// tail of the fallback chain and marked "degraded" in the response.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"polyclip/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	queue := flag.Int("queue", 0, "max requests waiting for a work slot (0 = default 256)")
	maxConc := flag.Int("max-concurrent", 0, "max clips in flight (0 = default 2*GOMAXPROCS)")
	degraded := flag.Int("degraded-slots", 0, "slots for overflow traffic (0 = default 2)")
	hold := flag.Duration("degraded-hold", 0, "degraded-mode hysteresis (0 = default 1s)")
	timeout := flag.Duration("timeout", 0, "per-request deadline budget (0 = default 5s, negative disables)")
	threads := flag.Int("threads", 0, "per-clip parallelism (0 = library default)")
	maxBody := flag.Int64("max-body", 0, "request body cap in bytes (0 = default 1MiB)")
	chaos := flag.Duration("chaos", 0, "arm a cycling injected fault every interval (benchmark/chaos mode only; 0 = off)")
	flag.Parse()

	srv := serve.NewServer(serve.Config{
		QueueDepth:          *queue,
		MaxConcurrent:       *maxConc,
		DegradedConcurrency: *degraded,
		DegradedHold:        *hold,
		RequestTimeout:      *timeout,
		Threads:             *threads,
		MaxBodyBytes:        *maxBody,
	})
	if *chaos > 0 {
		fmt.Fprintf(os.Stderr, "clipd: CHAOS MODE — injecting a fault every %v\n", *chaos)
		stop := serve.FaultCycle(*chaos)
		defer stop()
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	// Graceful drain on SIGINT/SIGTERM: stop admitting (everything new is a
	// 503), let in-flight clips finish, then stop the listener.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "clipd: draining")
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
	}()

	fmt.Fprintf(os.Stderr, "clipd: listening on %s\n", *addr)
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintf(os.Stderr, "clipd: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "clipd: stopped; final %s\n", srv.Statz())
}

FUZZTIME ?= 10s
FUZZ_TARGETS := FuzzParseWKT FuzzParseGeoJSON FuzzClipRoundTrip FuzzClipAllEngines
CHAOS_SEED ?= 1
CHAOS_CASES ?= 200
COVER_FLOOR ?= 80
COVER_PKGS := . ./internal/vatti/ ./internal/arrange/ ./internal/engine/ ./internal/scanbeam/ ./internal/ringstitch/ ./internal/shclip/ ./internal/serve/ ./internal/core/ ./internal/overlay/ ./internal/pool/ ./internal/par/ ./internal/batch/ ./internal/acache/ ./internal/geojson/ ./internal/isect/ ./internal/geom/ ./internal/bandclip/ ./internal/segtree/ ./internal/rtree/ ./internal/wkt/
# The tile-cutting fast paths carry a higher floor: a missed branch there is
# a silently wrong tile, not a slow one.
COVER_FLOOR_TILES ?= 85
COVER_PKGS_TILES := ./internal/prepared/ ./internal/tile/

PROFILE_EXP ?= table2
PROFILE_DIR ?= /tmp/polyclip-prof

.PHONY: check fmt build vet test benchmark-module cover race differential conformance bench-smoke fuzz chaos tilecut-smoke layers-smoke profile clipd bench

check: fmt vet build test benchmark-module cover race differential conformance bench-smoke fuzz chaos tilecut-smoke layers-smoke

# Formatting gate: gofmt must list no file (benchmark/ included).
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

# The benchmark is a module of its own (benchmark/go.mod), so the root's
# go vet and go test never compile it, yet it imports internal packages.
benchmark-module:
	go -C benchmark vet ./...
	go -C benchmark test ./...

# Per-package statement-coverage floor for the public API (the root package:
# ClipCtx, the fallback chain, ClipAllCtx), the engine packages whose
# correctness the differential oracles lean on, and the kernels every engine
# runs on (intersection finding, geometry, band clipping, the segment and
# R-trees, WKT).
cover:
	@for pkg in $(COVER_PKGS); do \
		pct=$$(go test -cover $$pkg | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "could not parse coverage for $$pkg"; exit 1; fi; \
		if ! awk -v p="$$pct" -v f="$(COVER_FLOOR)" 'BEGIN{exit !(p >= f)}'; then \
			echo "coverage for $$pkg is $$pct%, below the $(COVER_FLOOR)% floor"; exit 1; \
		fi; \
		echo "$$pkg: $$pct%"; \
	done
	@for pkg in $(COVER_PKGS_TILES); do \
		pct=$$(go test -cover $$pkg | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "could not parse coverage for $$pkg"; exit 1; fi; \
		if ! awk -v p="$$pct" -v f="$(COVER_FLOOR_TILES)" 'BEGIN{exit !(p >= f)}'; then \
			echo "coverage for $$pkg is $$pct%, below the $(COVER_FLOOR_TILES)% floor"; exit 1; \
		fi; \
		echo "$$pkg: $$pct%"; \
	done

# The fork battery and the chunked candidate stream first, at GOMAXPROCS 1
# and oversubscribed, then every package under the race detector.
race:
	go test -race -cpu 1,2,4 ./internal/pool/ ./internal/par/ ./internal/isect/
	go test -race ./...

# The golden-file differential corpus must agree across all engines
# with the race detector watching the parallel ones.
differential:
	go test -race -run TestDifferentialCorpus .

# Engine conformance: every registered engine against the golden corpus,
# the rule x op matrix, the pre-resolved seam, cancellation.
conformance:
	go test -race -run TestConformance ./internal/engine/

# Every benchmark of the root package, of the overlay engine, of the
# ring-stitching and trapezoid-assembly stages, of the prepared tile clip, of
# the GeoJSON reader, of the batch overlay's pair clip, of arrangement
# resolution, of the candidate stream, of the side-labelling sweep and of the
# pyramid cut runs once with allocation counters on: a benchmark that panics
# or no longer compiles fails here, not in a perf run.
bench-smoke:
	go test -run='^$$' -bench=. -benchtime=1x -benchmem . ./internal/overlay ./internal/ringstitch ./internal/vatti ./internal/prepared ./internal/geojson ./internal/batch ./internal/arrange ./internal/isect ./internal/scanbeam ./internal/tile > /dev/null

# Each native fuzz target gets a short smoke run; raise FUZZTIME for real
# fuzzing sessions (e.g. make fuzz FUZZTIME=10m). FuzzServeRequest lives in
# internal/serve and fuzzes the whole HTTP serving path; FuzzDecodeFeatures
# lives in internal/geojson and holds the GeoJSON reader to its
# encoding/json oracle. -fuzzminimizetime=1s caps the minimization of each
# new interesting input, whose executions the fuzzer reports as 0/sec until
# it ends (60 s by default), so a short smoke keeps fuzzing; long sessions
# should drop it to keep the default minimization.
fuzz:
	@for t in $(FUZZ_TARGETS); do \
		echo "fuzz $$t ($(FUZZTIME))"; \
		go test -run='^$$' -fuzz="^$$t$$" -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s . || exit 1; \
	done
	@echo "fuzz FuzzServeRequest ($(FUZZTIME))"
	go test -run='^$$' -fuzz='^FuzzServeRequest$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/serve/
	@echo "fuzz FuzzDecodeFeatures ($(FUZZTIME))"
	go test -run='^$$' -fuzz='^FuzzDecodeFeatures$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/geojson/

# CPU and heap profiles of one bench experiment (default table2, the
# scanbeam hot path). Inspect with `go tool pprof $(PROFILE_DIR)/cpu.prof`.
profile:
	@mkdir -p $(PROFILE_DIR)
	go run ./cmd/bench -exp $(PROFILE_EXP) \
		-cpuprofile $(PROFILE_DIR)/cpu.prof -memprofile $(PROFILE_DIR)/mem.prof
	@echo "profiles in $(PROFILE_DIR): cpu.prof mem.prof"

# Deterministic chaos sweeps: a clean invariant run, a faulted run (every
# case takes one injected panic/hang/corruption), and a budgeted faulted run
# that exercises the stage watchdog, plus a degenerate-taxonomy sweep
# (seed 7: exact coincidences — shared edges, collinear overlaps,
# T-vertices, coincident rings — under every fill rule) and a tiling sweep
# (seed 5: pyramid partition invariants across all rules). Same seed, same
# cases, same verdict.
chaos:
	go run ./cmd/chaos -seed $(CHAOS_SEED) -cases $(CHAOS_CASES)
	go run ./cmd/chaos -seed $(CHAOS_SEED) -cases $(CHAOS_CASES) -faults
	go run ./cmd/chaos -seed $(CHAOS_SEED) -cases 60 -faults -budget 500ms
	go run ./cmd/chaos -seed 7 -cases 320 -family degenerate
	go run ./cmd/chaos -seed 5 -cases 120 -family tiles

# Tile-cut smoke: a datagen tile layer cut by the prepared pipeline and by
# the naive per-tile clips must give the same (feature, z, x, y) keys in the
# same order.
tilecut-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	go run ./cmd/datagen -tiles 32 -seed 3 -o $$tmp/layer.wkt || exit 1; \
	go run ./cmd/tilecut -in $$tmp/layer.wkt -zooms 0:3 -o $$tmp/tiles.ndjson -stats 2> $$tmp/stats.json || exit 1; \
	go run ./cmd/tilecut -in $$tmp/layer.wkt -zooms 0:3 -naive -o $$tmp/naive.ndjson || exit 1; \
	n=$$(wc -l < $$tmp/tiles.ndjson); \
	if [ $$n -lt 1 ]; then echo "tilecut emitted no tiles"; exit 1; fi; \
	sed 's/,"wkt".*//' $$tmp/tiles.ndjson > $$tmp/tiles.keys; \
	sed 's/,"wkt".*//' $$tmp/naive.ndjson > $$tmp/naive.keys; \
	cmp -s $$tmp/tiles.keys $$tmp/naive.keys || { echo "tilecut prepared and naive tile keys differ"; exit 1; }; \
	echo "tilecut: $$n tiles, prepared and naive keys identical"

# Layer-overlay smoke: two datagen feature layers through polyclip -layers
# must give at least one result and the same bytes from WKT and from ndjson
# input, and the gisoverlay example must report a nonzero result count.
layers-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for s in 1 2; do \
		go run ./cmd/datagen -features 200 -seed $$s -o $$tmp/layer$$s.wkt || exit 1; \
		go run ./cmd/datagen -features 200 -seed $$s -format ndjson -o $$tmp/layer$$s.ndjson || exit 1; \
	done; \
	go run ./cmd/polyclip -layers $$tmp/layer1.wkt $$tmp/layer2.wkt > $$tmp/wkt.out || exit 1; \
	go run ./cmd/polyclip -layers $$tmp/layer1.ndjson $$tmp/layer2.ndjson > $$tmp/ndjson.out || exit 1; \
	n=$$(wc -l < $$tmp/wkt.out); \
	if [ $$n -lt 1 ]; then echo "polyclip -layers printed no result"; exit 1; fi; \
	cmp -s $$tmp/wkt.out $$tmp/ndjson.out || { echo "polyclip -layers output differs between WKT and ndjson input"; exit 1; }; \
	g=$$(go run ./examples/gisoverlay | sed -n 's/^intersect(A,B): \([0-9]*\) result polygons.*/\1/p'); \
	if [ -z "$$g" ] || [ $$g -lt 1 ]; then echo "examples/gisoverlay reported no result polygons"; exit 1; fi; \
	echo "layers: $$n results, WKT and ndjson identical; gisoverlay: $$g results"

# Short scaling smoke: one iteration of the two scaling benchmarks at 1 and
# 2 workers — enough to catch a fork regression (deadlock, lost task, gross
# slowdown) in CI without paying for a statistically meaningful run.
bench:
	go test -run='^$$' -bench='Fig8SlabClipPair|AlgorithmOne' -benchtime=1x -cpu 1,2 .

# Build the serving daemon.
clipd:
	go build -o bin/clipd ./cmd/clipd
	go build -o bin/clipload ./cmd/clipload
	@echo "built bin/clipd and bin/clipload"

#!/bin/sh
# Full verification sweep: gofmt, vet, build, tests under the race detector, a
# short native-fuzz smoke on every fuzz target, and fixed-seed chaos runs
# (clean + faulted). Mirrors `make check` for environments without make.
set -eu
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-10s}"
CHAOS_SEED="${CHAOS_SEED:-1}"
CHAOS_CASES="${CHAOS_CASES:-100}"

echo "== gofmt (no file may need formatting, benchmark/ included)"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt -l lists:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test"
go test ./...

echo "== benchmark module: vet + test (its own go.mod, so the root's go test never compiles it)"
go -C benchmark vet ./...
go -C benchmark test ./...

echo "== coverage floor (root API, vatti, arrange, engine, scanbeam, ringstitch, shclip, serve, core, overlay, pool, par, batch, acache, geojson, isect, geom, bandclip, segtree, rtree, wkt >= ${COVER_FLOOR:-80}%)"
COVER_FLOOR="${COVER_FLOOR:-80}"
for pkg in . ./internal/vatti/ ./internal/arrange/ ./internal/engine/ ./internal/scanbeam/ ./internal/ringstitch/ ./internal/shclip/ ./internal/serve/ ./internal/core/ ./internal/overlay/ ./internal/pool/ ./internal/par/ ./internal/batch/ ./internal/acache/ ./internal/geojson/ ./internal/isect/ ./internal/geom/ ./internal/bandclip/ ./internal/segtree/ ./internal/rtree/ ./internal/wkt/; do
	pct=$(go test -cover "$pkg" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
	if [ -z "$pct" ]; then
		echo "could not parse coverage for $pkg" >&2
		exit 1
	fi
	if ! awk -v p="$pct" -v f="$COVER_FLOOR" 'BEGIN{exit !(p >= f)}'; then
		echo "coverage for $pkg is ${pct}%, below the ${COVER_FLOOR}% floor" >&2
		exit 1
	fi
	echo "$pkg: ${pct}%"
done

echo "== coverage floor (prepared, tile >= ${COVER_FLOOR_TILES:-85}%: a missed fast-path branch is a silently wrong tile)"
COVER_FLOOR_TILES="${COVER_FLOOR_TILES:-85}"
for pkg in ./internal/prepared/ ./internal/tile/; do
	pct=$(go test -cover "$pkg" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
	if [ -z "$pct" ]; then
		echo "could not parse coverage for $pkg" >&2
		exit 1
	fi
	if ! awk -v p="$pct" -v f="$COVER_FLOOR_TILES" 'BEGIN{exit !(p >= f)}'; then
		echo "coverage for $pkg is ${pct}%, below the ${COVER_FLOOR_TILES}% floor" >&2
		exit 1
	fi
	echo "$pkg: ${pct}%"
done

echo "== go test -race -cpu 1,2,4 ./internal/pool ./internal/par (scheduler battery + fan-out edges first, at GOMAXPROCS 1 and oversubscribed: fast signal)"
go test -race -cpu 1,2,4 ./internal/pool/ ./internal/par/

echo "== adversarial predicates vs exact oracle under -race"
go test -race -run 'Adversarial|MatchesOrientOracle' ./internal/geom/

echo "== go test -race"
go test -race ./...

echo "== serve layer under -race (admission control, drain, fault sites)"
go test -race -count=1 ./internal/serve/

echo "== chaos through the server (5s, fixed seed: 0 crashes, every shed = 503 + Retry-After)"
SERVE_CHAOS_MS=5000 go test -race -count=1 -run TestServeChaosSmoke ./internal/serve/

echo "== differential corpus under -race"
go test -race -run TestDifferentialCorpus .

echo "== engine conformance suite under -race"
go test -race -run TestConformance ./internal/engine/

echo "== bench smoke (one iteration, alloc counters live; root, overlay engine, ring stitching, trapezoid assembly, prepared tile clip, GeoJSON reader, batch pair clip)"
go test -run='^$' -bench=. -benchtime=1x -benchmem . ./internal/overlay ./internal/ringstitch ./internal/vatti ./internal/prepared ./internal/geojson ./internal/batch > /dev/null

for t in FuzzParseWKT FuzzParseGeoJSON FuzzClipRoundTrip FuzzClipAllEngines; do
	echo "== fuzz $t ($FUZZTIME)"
	go test -run='^$' -fuzz="^$t\$" -fuzztime="$FUZZTIME" .
done

echo "== fuzz FuzzServeRequest ($FUZZTIME, whole HTTP serve path)"
go test -run='^$' -fuzz='^FuzzServeRequest$' -fuzztime="$FUZZTIME" ./internal/serve/

echo "== fuzz FuzzDecodeFeatures ($FUZZTIME, GeoJSON reader against the encoding/json oracle)"
go test -run='^$' -fuzz='^FuzzDecodeFeatures$' -fuzztime="$FUZZTIME" ./internal/geojson/

echo "== chaos (seed $CHAOS_SEED, $CHAOS_CASES cases, clean)"
go run ./cmd/chaos -seed "$CHAOS_SEED" -cases "$CHAOS_CASES"

echo "== chaos (seed $CHAOS_SEED, $CHAOS_CASES cases, faulted)"
go run ./cmd/chaos -seed "$CHAOS_SEED" -cases "$CHAOS_CASES" -faults

echo "== chaos (seed 7, 320 cases, degenerate taxonomy: exact coincidences, all rules)"
go run ./cmd/chaos -seed 7 -cases 320 -family degenerate

echo "== chaos (seed 5, 120 cases, tiles: pyramid partition invariants, all rules)"
go run ./cmd/chaos -seed 5 -cases 120 -family tiles

echo "== tilecut smoke (datagen layer through the prepared pipeline, WKT out)"
TILE_TMP=$(mktemp -d)
trap 'rm -rf "$TILE_TMP"' EXIT INT TERM
go run ./cmd/datagen -tiles 32 -seed 3 -o "$TILE_TMP/layer.wkt"
go run ./cmd/tilecut -in "$TILE_TMP/layer.wkt" -zooms 0:3 -o "$TILE_TMP/tiles.ndjson" -stats 2> "$TILE_TMP/stats.json"
TILE_COUNT=$(wc -l < "$TILE_TMP/tiles.ndjson")
if [ "$TILE_COUNT" -lt 1 ]; then
	echo "tilecut emitted no tiles" >&2
	exit 1
fi
go run ./cmd/tilecut -in "$TILE_TMP/layer.wkt" -zooms 0:3 -naive -o "$TILE_TMP/naive.ndjson"
NAIVE_COUNT=$(wc -l < "$TILE_TMP/naive.ndjson")
if [ "$TILE_COUNT" != "$NAIVE_COUNT" ]; then
	echo "tilecut prepared ($TILE_COUNT tiles) and naive ($NAIVE_COUNT tiles) disagree" >&2
	exit 1
fi
echo "tilecut: $TILE_COUNT tiles, prepared and naive agree"

echo "== layer-overlay smoke (datagen layers through polyclip -layers, WKT and ndjson byte-identical; gisoverlay overlays something)"
for s in 1 2; do
	go run ./cmd/datagen -features 200 -seed "$s" -o "$TILE_TMP/layer$s.wkt"
	go run ./cmd/datagen -features 200 -seed "$s" -format ndjson -o "$TILE_TMP/layer$s.ndjson"
done
go run ./cmd/polyclip -layers "$TILE_TMP/layer1.wkt" "$TILE_TMP/layer2.wkt" > "$TILE_TMP/overlay-wkt.out"
go run ./cmd/polyclip -layers "$TILE_TMP/layer1.ndjson" "$TILE_TMP/layer2.ndjson" > "$TILE_TMP/overlay-ndjson.out"
LAYER_RESULTS=$(wc -l < "$TILE_TMP/overlay-wkt.out")
if [ "$LAYER_RESULTS" -lt 1 ]; then
	echo "polyclip -layers printed no result" >&2
	exit 1
fi
if ! cmp -s "$TILE_TMP/overlay-wkt.out" "$TILE_TMP/overlay-ndjson.out"; then
	echo "polyclip -layers output differs between WKT and ndjson input" >&2
	exit 1
fi
GIS_RESULTS=$(go run ./examples/gisoverlay | sed -n 's/^intersect(A,B): \([0-9]*\) result polygons.*/\1/p')
if [ -z "$GIS_RESULTS" ] || [ "$GIS_RESULTS" -lt 1 ]; then
	echo "examples/gisoverlay reported no result polygons" >&2
	exit 1
fi
echo "layers: $LAYER_RESULTS results, WKT and ndjson identical; gisoverlay: $GIS_RESULTS results"

echo "all checks passed"

package harness

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"polyclip/internal/acache"
	"polyclip/internal/batch"
	"polyclip/internal/data"
	"polyclip/internal/engine"
)

// Overlay runs the million-feature batch-overlay benchmark that closes the
// ROADMAP's scale item: two synthetic feature layers of n features each
// (repeatFrac exact repeats) are overlaid twice through one arrangement
// cache — a cold run that populates it and a warm run that should be all
// hits. The cache contract (warm ≥ 2× cold on a repeated-operand corpus) is
// evaluated here and surfaced as the gate counters.
func Overlay(n int, repeatFrac float64, threads int, seed int64) Result {
	a := data.Features(data.FeatureOptions{N: n, Dist: "mixed", RepeatFrac: repeatFrac, Seed: seed})
	b := data.Features(data.FeatureOptions{N: n, Dist: "mixed", RepeatFrac: repeatFrac, Seed: seed + 1})

	cache := acache.New(256 << 20)
	opt := batch.Options{Threads: threads, Cache: cache}
	ctx := context.Background()

	t0 := time.Now()
	outsCold, stCold, err := batch.Overlay(ctx, a, b, engine.Intersection, opt)
	cold := time.Since(t0)
	if err != nil {
		return Result{Name: "overlay", Text: "overlay: " + err.Error()}
	}

	t1 := time.Now()
	outsWarm, stWarm, err := batch.Overlay(ctx, a, b, engine.Intersection, opt)
	warm := time.Since(t1)
	if err != nil {
		return Result{Name: "overlay", Text: "overlay warm: " + err.Error()}
	}
	_ = outsWarm

	features := 2 * n
	fpsCold := int(float64(features) / cold.Seconds())
	fpsWarm := int(float64(features) / warm.Seconds())
	hitPct := int(stWarm.Cache.HitRate()*100 + 0.5)
	coldHitPct := int(stCold.Cache.HitRate()*100 + 0.5)
	gate := 0
	if warm*2 <= cold {
		gate = 1
	}

	header := row("run", "time_ms", "features/s", "pairs", "outputs", "cache_hit_%")
	rows := [][]string{
		row("cold", ms(cold), strconv.Itoa(fpsCold), strconv.Itoa(stCold.CandidatePairs),
			strconv.Itoa(stCold.Outputs), strconv.Itoa(coldHitPct)),
		row("warm", ms(warm), strconv.Itoa(fpsWarm), strconv.Itoa(stWarm.CandidatePairs),
			strconv.Itoa(stWarm.Outputs), strconv.Itoa(hitPct)),
	}
	text := fmt.Sprintf("Batch overlay — %d+%d features, repeat %.2f, %d threads\n%s",
		n, n, repeatFrac, threads, formatRows(header, rows)) +
		fmt.Sprintf("cache: %d entries, %d KiB; peak RSS %d MiB; warm speedup %.2fx (gate >=2x: %v)\n",
			stCold.Cache.Entries, stCold.Cache.Bytes>>10, peakRSSMiB(),
			float64(cold)/float64(warm), gate == 1)

	return Result{
		Name: "overlay",
		Text: text,
		Rows: rows,
		Counters: map[string]int{
			"features":           features,
			"coldMs":             int(cold.Milliseconds()),
			"warmMs":             int(warm.Milliseconds()),
			"featuresPerSecCold": fpsCold,
			"featuresPerSecWarm": fpsWarm,
			"candidatePairs":     stCold.CandidatePairs,
			"outputs":            len(outsCold),
			"cacheHitRatePct":    hitPct,
			"coldHitRatePct":     coldHitPct,
			"cacheEntries":       stCold.Cache.Entries,
			"cacheBytes":         int(stCold.Cache.Bytes),
			"peakRSSMiB":         peakRSSMiB(),
			"warmGatePass":       gate,
		},
	}
}

// peakRSSMiB reads the process's high-water resident set (VmHWM) from
// /proc/self/status; 0 on platforms without procfs.
func peakRSSMiB() int {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.Atoi(fields[1])
		if err != nil {
			return 0
		}
		return kb >> 10
	}
	return 0
}

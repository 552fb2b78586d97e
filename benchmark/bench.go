package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"
)

// metricDef names one metric, its unit and which direction is better.
// BENCHMARK.json lists the same definitions; a test keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"work_per_s", "1/s", "higher"},
	{"peak_rss_mib", "MiB", "lower"},
}

// perLayer are the metrics a traced run reports, on every workload; a layer
// the workload does not reach reads 0.
var perLayer = []metricDef{
	{"trace.coverage", "ratio", "higher"},
	{"trace.overhead_ratio", "ratio", "lower"},
	{"polyclip.clip_ms", "ms", "lower"},
	{"guard.validate_repair_us", "us", "lower"},
	{"guard.audit_us", "us", "lower"},
	{"arrange.resolve_ms", "ms", "lower"},
	{"arrange.crossings", "count", "lower"},
	{"geom.snap_us", "us", "lower"},
	{"engine.sort_ms", "ms", "lower"},
	{"engine.partition_ms", "ms", "lower"},
	{"engine.sweep_ms", "ms", "lower"},
	{"engine.merge_ms", "ms", "lower"},
	{"engine.slabs", "count", "higher"},
	{"engine.modelled_parallel_ms", "ms", "lower"},
	{"engine.slabs.clip_ms", "ms", "lower"},
	{"engine.scanbeam.clip_ms", "ms", "lower"},
	{"engine.overlay.clip_ms", "ms", "lower"},
	{"engine.vatti.clip_ms", "ms", "lower"},
	{"engine.vatti.pair_clip_us", "us", "lower"},
	{"polyclip.attempts_per_op", "count", "lower"},
	{"polyclip.rescue_ratio", "ratio", "lower"},
	{"polyclip.differential_ratio", "ratio", "lower"},
	{"pool.tasks_per_op", "count", "lower"},
	{"pool.steal_ratio", "ratio", "lower"},
	{"prepared.canonicalize_s", "s", "lower"},
	{"prepared.index_s", "s", "lower"},
	{"prepared.classify_us", "us", "lower"},
	{"prepared.cliprect_p50_us", "us", "lower"},
	{"prepared.cliprect_p99_us", "us", "lower"},
	{"prepared.fast_path_ratio", "ratio", "higher"},
	{"prepared.band_clips", "count", "lower"},
	{"prepared.convex_clips", "count", "higher"},
	{"prepared.rescues", "count", "lower"},
	{"tile.cut_ms", "ms", "lower"},
	{"tile.nodes", "count", "lower"},
	{"tile.leaves", "count", "lower"},
	{"tile.pruned", "count", "higher"},
	{"tile.filled", "count", "higher"},
	{"batch.overlay_ms", "ms", "lower"},
	{"geojson.decode_ms", "ms", "lower"},
	{"rtree.join_ms", "ms", "lower"},
	{"batch.hash_ms", "ms", "lower"},
	{"batch.index_ms", "ms", "lower"},
	{"batch.clip_ms", "ms", "lower"},
	{"batch.candidate_pairs", "count", "lower"},
	{"batch.output_ratio", "ratio", "higher"},
	{"batch.rescued", "count", "lower"},
	{"acache.hit_ratio", "ratio", "higher"},
	{"acache.bytes_mib", "MiB", "lower"},
	{"acache.entries", "count", "lower"},
}

// config is what one workload run is told.
type config struct {
	root    string  // repository root: the directory holding module polyclip
	seed    int64   // every input derives from it
	seconds float64 // nominal length of the timed part
	trace   bool    // per-layer run instead of end-to-end
	spans   string  // file the traced run writes its spans to ("" for none)
	small   bool    // smoke-test input sizes
	nproc   int     // CPU count engine.modelled_parallel_ms models
}

// threads is the parallelism every operation is asked for. Each workload
// runs on one core: its child process is confined to one CPU, so its Go
// runtime has GOMAXPROCS=1. On a shared host with a few cores, two workers
// measure how the host schedules them as much as the program. Parallel
// speed-up is the scaling harness's subject (scripts/bench_scaling.sh), not
// this benchmark's.
const threads = 1

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run, as a child process reports it.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]metric  `json:"metrics"`
	Info      map[string]float64 `json:"info,omitempty"`
	Failures  []string           `json:"failures,omitempty"`
}

// sample is one timed operation or set-up: its wall-clock time, the CPU
// time the process used during it, and the speed probe's time just before
// and just after it, all in seconds. A probe time of 0 is one not measured.
type sample struct{ wall, cpu, before, after float64 }

// time is the sample's reported time: its CPU time corrected for the speed
// the host ran at around it (see speed.go).
func (s *sample) time() float64 {
	p := s.before
	if s.after > 0 {
		p = (s.before + s.after) / 2
	}
	if p <= 0 {
		return s.cpu
	}
	return s.cpu * math.Pow(probeRefSeconds/p, speedExponent)
}

// runner accumulates one workload run's measurements.
type runner struct {
	cfg config
	ctx context.Context

	setup []*sample // one per set-up repetition
	ops   []*sample // each timed operation
	work  float64   // work of the timed operations
	rss   float64   // peak resident set of the timed part, MiB

	probe   *probe
	probes  []float64 // seconds of each probe measurement
	pending *sample   // the last sample, still waiting for its after-probe

	attempted, failed int
	failures          []string

	tr      *tracer            // non-nil in a traced run
	tracing bool               // the current pass records spans
	layer   map[string]float64 // per-layer metrics of a traced run
	info    map[string]float64
}

func newRunner(ctx context.Context, cfg config) *runner {
	r := &runner{cfg: cfg, ctx: ctx, probe: newProbe(), layer: map[string]float64{}, info: map[string]float64{}}
	if cfg.trace {
		r.tr = newTracer()
	}
	return r
}

// fail records one failed operation or check.
func (r *runner) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one output check and records it as failed unless ok.
func (r *runner) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// timeOp runs the speed probe, then fn, and returns fn's sample. The next
// probe, before the next operation or at the end of a timed part, gives
// the sample its after-probe.
func (r *runner) timeOp(fn func() error) (*sample, error) {
	p := r.measureProbe()
	c0 := cpuTime(processCPUClock)
	t0 := time.Now()
	err := fn()
	s := &sample{wall: time.Since(t0).Seconds(), cpu: (cpuTime(processCPUClock) - c0).Seconds(), before: p}
	r.pending = s
	return s, err
}

// measureProbe measures the speed probe once and hands the time to the
// sample waiting for its after-probe.
func (r *runner) measureProbe() float64 {
	p := r.probe.measure()
	r.probes = append(r.probes, p)
	if r.pending != nil {
		r.pending.after = p
		r.pending = nil
	}
	return p
}

// speed is how fast the host ran during the run: the probe's reference time
// over its median measured time.
func (r *runner) speed() float64 {
	if len(r.probes) == 0 {
		return 1
	}
	return probeRefSeconds / median(r.probes)
}

// setupReps is how many times a workload repeats its set-up; the median is
// reported.
func (r *runner) setupReps(n int) int {
	if r.cfg.small {
		return 1
	}
	return n
}

// timeSetup runs fn reps times and records each sample.
func (r *runner) timeSetup(reps int, fn func() error) error {
	for k := 0; k < reps; k++ {
		s, err := r.timeOp(fn)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.setup = append(r.setup, s)
	}
	r.measureProbe()
	return nil
}

// rounds is a workload's timed operation count: a whole number of rounds
// over its inputs, at least three, near a nominal rate times the run's
// seconds. The count, not a clock, ends the timed part, so every commit
// does the same work for the same -seconds.
func (r *runner) rounds(perSecond float64, inputs int) int {
	n := int(perSecond*r.cfg.seconds/float64(inputs) + 0.5)
	if n < 3 {
		n = 3
	}
	return n * inputs
}

// loop is a closed-loop workload: operation i runs only after i-1 returned.
type loop struct {
	// inputs is the number of distinct inputs; operation i runs input
	// i % inputs. Zero means every operation has an input of its own.
	inputs int
	ops    int  // timed operations
	fresh  bool // inputs must never repeat: operation state (a cache) persists
	// prep runs before operation i, untimed.
	prep func(i int) error
	// do runs operation i; its duration is the operation's latency. In a
	// traced pass it records its own spans.
	do func(i int) (work float64, err error)
	// post checks operation i's output, untimed.
	post func(i int)
}

// step runs operation i and returns its work and sample; ok is false
// when it failed.
func (r *runner) step(l loop, i int) (work float64, s *sample, ok bool) {
	if l.prep != nil {
		if err := l.prep(i); err != nil {
			r.attempted++
			r.fail("op %d prep: %v", i, err)
			return 0, nil, false
		}
	}
	s, err := r.timeOp(func() error {
		var err error
		work, err = l.do(i)
		return err
	})
	r.attempted++
	if err != nil {
		r.fail("op %d: %v", i, err)
		return 0, s, false
	}
	if l.post != nil {
		l.post(i)
	}
	return work, s, true
}

// run executes the loop: an untimed warm-up of a tenth of the operations,
// and at least one on each input, then the timed part. A traced run
// instead times an untraced and a traced pass of a quarter of the
// operations each, for the per-layer metrics and the tracing overhead.
func (r *runner) run(l loop) error {
	warm := max((l.ops+9)/10, l.inputs)
	for i := 0; i < warm; i++ {
		if err := r.ctx.Err(); err != nil {
			return err
		}
		r.step(l, i)
	}
	if !r.cfg.trace {
		_, _, err := r.timed(l, warm, l.ops, true)
		return err
	}
	n := l.ops / 4
	if n < 2 {
		n = 2
	}
	plainTime, plainWork, err := r.timed(l, warm, n, false)
	if err != nil {
		return err
	}
	from := warm
	if l.fresh {
		from += n
	}
	r.tracing = true
	var work float64
	for i := from; i < from+n; i++ {
		if err := r.ctx.Err(); err != nil {
			return err
		}
		w, _, _ := r.step(l, i)
		work += w
	}
	r.tracing = false
	if plainTime > 0 && work > 0 && plainWork > 0 {
		r.layer["trace.overhead_ratio"] = (r.tr.entrySeconds() / work) / (plainTime / plainWork)
	}
	return nil
}

// timed runs n operations from index from, recording their samples, work
// and the peak resident set when record is set; it returns their total
// wall-clock time and work.
//
// The peak resident set is the mean of each round's peak. Every round runs
// every input once, so an input that needs more memory raises every round's
// peak; what the mean smooths out is where the collector happened to run:
// clip-degenerate's whole-run peak read 17–28 MiB over runs of the same
// seeds, and its rounds' peaks 13–25 MiB within one run. With a fresh input
// per operation, the whole timed part is one round, and its peak is that of
// a process that has run every overlay.
func (r *runner) timed(l loop, from, n int, record bool) (secs, work float64, err error) {
	pid := os.Getpid()
	var peaks []float64
	if record {
		resetPeakRSS(pid)
	}
	for i := from; i < from+n; i++ {
		if err := r.ctx.Err(); err != nil {
			return 0, 0, err
		}
		w, s, ok := r.step(l, i)
		if ok {
			secs += s.wall
			work += w
			if record {
				r.ops = append(r.ops, s)
				r.work += w
			}
		}
		if record && l.inputs > 0 && (i-from+1)%l.inputs == 0 {
			peaks = append(peaks, peakRSSMiB(pid))
			resetPeakRSS(pid)
		}
	}
	r.measureProbe()
	if record {
		if len(peaks) == 0 {
			peaks = append(peaks, peakRSSMiB(pid))
		}
		r.rss = mean(peaks)
	}
	return secs, work, nil
}

// result assembles the run's metrics: the end-to-end set, or in a traced
// run the per-layer set.
func (r *runner) result(name string) result {
	res := result{Workload: name, Seed: r.cfg.seed, Traced: r.cfg.trace,
		Attempted: r.attempted, Failed: r.failed, Failures: r.failures,
		Metrics: map[string]metric{}, Info: r.info}
	if r.cfg.trace {
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{Value: r.layer[d.name], Unit: d.unit}
		}
	} else {
		// Every time is CPU time corrected for the host's speed around it.
		times := func(ss []*sample) []float64 {
			out := make([]float64, len(ss))
			for i, s := range ss {
				out[i] = s.time()
			}
			return out
		}
		var lat, wall []float64
		var secs, timed float64
		for _, s := range r.ops {
			lat = append(lat, 1000*s.time())
			wall = append(wall, 1000*s.wall)
			secs += s.time()
			timed += s.wall
		}
		tail := tailPercentile(len(lat))
		vals := map[string]float64{
			"setup_s":         median(times(r.setup)),
			"latency_p50_ms":  percentile(lat, 50),
			"latency_tail_ms": percentile(lat, tail),
			"work_per_s":      ratio(r.work, secs),
			"peak_rss_mib":    r.rss,
		}
		for _, d := range endToEnd {
			v := vals[d.name]
			if !(v > 0) {
				res.Failed++
				res.Failures = append(res.Failures, fmt.Sprintf("%s was not measured", d.name))
			}
			res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		}
		res.Info["tail_percentile"] = float64(tail)
		res.Info["operations"] = float64(len(lat))
		res.Info["wall_p50_ms"] = median(wall)
		res.Info["timed_s"] = timed
		res.Info["speed"] = r.speed()
		res.Info["probes"] = float64(len(r.probes))
	}
	if res.Attempted > 0 {
		res.Info["fail_ratio"] = float64(res.Failed) / float64(res.Attempted)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res
}

// resetPeakRSS sets a process's resident-set high-water mark back to its
// current resident set, so that the next reading is the peak since now.
// Where the kernel refuses, readings stay lifetime peaks.
func resetPeakRSS(pid int) {
	_ = os.WriteFile("/proc/"+strconv.Itoa(pid)+"/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads a process's resident-set high-water mark (VmHWM) from
// procfs; 0 when it cannot.
func peakRSSMiB(pid int) float64 {
	f, err := os.Open("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

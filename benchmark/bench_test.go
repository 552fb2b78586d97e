package main

import (
	"context"
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestRoundsAreWholeAndAtLeastThree(t *testing.T) {
	r := &runner{cfg: config{seconds: 10}}
	for _, tc := range []struct {
		perSecond float64
		inputs    int
		want      int
	}{
		{115, 96, 12 * 96}, // 1150 ops is nearest 12 rounds
		{10, 8, 13 * 8},    // 100 ops is 12.5 rounds, rounded half up
		{1, 96, 3 * 96},    // under three rounds
		{2, 1, 20},
	} {
		if got := r.rounds(tc.perSecond, tc.inputs); got != tc.want {
			t.Errorf("rounds(%g, %d) = %d, want %d", tc.perSecond, tc.inputs, got, tc.want)
		}
	}
}

// The latencies are percentiles of every timed operation's time, the tail
// the highest with ten operations beyond it, and work_per_s is the work
// over the sum of the times.
func TestResultOverEveryOperation(t *testing.T) {
	r := newRunner(context.Background(), config{})
	for ms := 1; ms <= 30; ms++ {
		r.ops = append(r.ops, &sample{wall: 2 * float64(ms) / 1000, cpu: float64(ms) / 1000})
	}
	r.work = 930
	r.setup = []*sample{{wall: 0.5, cpu: 0.25}, {wall: 0.5, cpu: 0.5}, {wall: 0.5, cpu: 0.75}}
	r.rss = 20
	r.attempted = 30
	res := r.result("test")
	if got := res.Metrics["latency_p50_ms"].Value; got != 15 {
		t.Errorf("latency_p50_ms = %g, want 15", got)
	}
	if got := res.Metrics["latency_tail_ms"].Value; got != 20 || res.Info["tail_percentile"] != 66 {
		t.Errorf("latency_tail_ms = %g (p%g), want p66 = 20, ten operations beyond it", got, res.Info["tail_percentile"])
	}
	if got := res.Metrics["work_per_s"].Value; !near(got, 2000) {
		t.Errorf("work_per_s = %g, want 930 units over 465 ms", got)
	}
	if got := res.Metrics["setup_s"].Value; got != 0.5 {
		t.Errorf("setup_s = %g, want the median set-up CPU time 0.5", got)
	}
	if !res.Correct || res.Info["operations"] != 30 || res.Info["wall_p50_ms"] != 31 {
		t.Errorf("result %+v", res)
	}
}

// A CPU time is multiplied by the probe's reference time over the mean of
// the probes around it, to the power speedExponent.
func TestTimesCorrectedForSpeedAroundEachSample(t *testing.T) {
	fast := math.Pow(2, speedExponent) // the probe ran twice as fast
	for _, tc := range []struct {
		s    sample
		want float64
	}{
		{sample{cpu: 2, before: probeRefSeconds, after: probeRefSeconds}, 2},
		{sample{cpu: 2, before: probeRefSeconds / 2, after: probeRefSeconds / 2}, 2 * fast},
		{sample{cpu: 2, before: probeRefSeconds / 4, after: 3 * probeRefSeconds / 4}, 2 * fast},
		{sample{cpu: 2, before: probeRefSeconds / 2}, 2 * fast}, // no probe after it
		{sample{cpu: 2}, 2}, // no probe at all
	} {
		if got := tc.s.time(); !near(got, tc.want) {
			t.Errorf("%+v: time %g, want %g", tc.s, got, tc.want)
		}
	}
}

// The runner hands each probe to the sample before it as its after-probe,
// and closes a timed part with one more probe.
func TestEachSampleGetsTheProbesAroundIt(t *testing.T) {
	r := newRunner(context.Background(), config{})
	var ss []*sample
	for i := 0; i < 3; i++ {
		s, err := r.timeOp(func() error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		ss = append(ss, s)
	}
	r.measureProbe()
	if len(r.probes) != 4 {
		t.Fatalf("%d probes, want 4", len(r.probes))
	}
	for i, s := range ss {
		if s.before != r.probes[i] || s.after != r.probes[i+1] {
			t.Errorf("sample %d: probes %g, %g; want %g, %g", i, s.before, s.after, r.probes[i], r.probes[i+1])
		}
	}
}

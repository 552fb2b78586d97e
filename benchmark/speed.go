package main

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
)

// Every time the benchmark reports is corrected for the speed of the host,
// measured around each timed operation by a fixed probe. On the shared
// two-vCPU virtual machines the benchmark was built on, a core runs in one
// of a few speed states that last from tens of milliseconds to minutes: the
// probe below took about 75 µs in the fastest and 130 µs in the slowest, so
// raw times of the same code read up to a third apart between runs. The
// workloads speed up less than the probe when the host does, and by
// different amounts. So an operation's CPU time is multiplied by the
// probe's reference time over its time around the operation (the mean of
// the probes just before and just after it), raised to speedExponent.
//
// The probe is the benchmark's own code, the same on every commit of the
// program: sorting, orientation tests, hashing and a dependent walk through
// a table the size of a core's L2 cache. It allocates nothing, so the
// program's garbage collector neither slows it nor is paced by it.

// probeRefSeconds is the probe pass's time at the reference speed: about
// its time in the slow, usual state of the machine the bounds were set on,
// where reported times equal the CPU times measured.
const probeRefSeconds = 130e-6

// speedExponent is how much of the probe's speed-up a correction removes.
// Over six or seven runs of each workload, each with a probe before every
// operation, the quartile spread of latency_p50_ms across seeds was
// smallest near 0.75 for four of the five workloads (3–5%, from 9–31%
// uncorrected; tiles' spread came from its inputs); a full correction
// over-corrected clip-degenerate and overlay-unique, which wait on memory
// more than the probe does. With it, over ten seeds in an hour when the
// host's median speed moved between 0.96 and 1.80 from run to run, every
// time metric's quartile spread was 2–6%. What the probe cannot see is
// contention for memory: overlay-unique, whose operations mostly wait on
// the collector marking a live heap of hundreds of MiB, spread up to 10%
// in another such hour at the same probe speed.
const speedExponent = 0.75

// probeWarm is how many untimed passes precede the timed ones. A core runs
// slower for about a millisecond after an operation: right after a
// 1,000-feature overlay, timed passes after one warm pass read 9% slower
// than the same passes 20 ms later, after twelve warm passes 0.1%.
const probeWarm = 12

// probe is the fixed work one pass does; its inputs are built once.
type probe struct {
	pts   []float64 // x, y pairs
	keys  []uint64
	table map[uint64]int32
	buf   []float64
	next  []int32 // one random cycle through the table's entries
	sink  float64
}

func newProbe() *probe {
	rng := rand.New(rand.NewSource(7))
	p := &probe{pts: make([]float64, 2*512), keys: make([]uint64, 256),
		table: make(map[uint64]int32, 256), buf: make([]float64, 512)}
	for i := range p.pts {
		p.pts[i] = rng.Float64()
	}
	for i := range p.keys {
		p.keys[i] = rng.Uint64()
		p.table[p.keys[i]] = int32(i)
	}
	// Sattolo's shuffle makes the permutation a single cycle.
	p.next = make([]int32, 1<<16)
	for i := range p.next {
		p.next[i] = int32(i)
	}
	for i := len(p.next) - 1; i > 0; i-- {
		j := rng.Intn(i)
		p.next[i], p.next[j] = p.next[j], p.next[i]
	}
	return p
}

// pass does one fixed unit of work.
func (p *probe) pass() {
	n := len(p.buf)
	for i := 0; i < n; i++ {
		p.buf[i] = p.pts[2*i]
	}
	slices.Sort(p.buf)
	var s float64
	for k := 0; k < 8; k++ {
		for i := k % 3; i+2 < n; i++ {
			ax, ay := p.pts[2*i], p.pts[2*i+1]
			bx, by := p.pts[2*i+2], p.pts[2*i+3]
			cx, cy := p.pts[2*i+4], p.pts[2*i+5]
			if o := (bx-ax)*(cy-ay) - (by-ay)*(cx-ax); o > 0 {
				s += o
			} else {
				s -= math.Sqrt(-o)
			}
		}
	}
	for k := 0; k < 16; k++ {
		for i, key := range p.keys {
			if v, ok := p.table[key^uint64(k&1)]; ok && int(v) == i {
				s++
			}
		}
	}
	j := int32(0)
	for i := 0; i < 4000; i++ {
		j = p.next[j]
	}
	p.sink = s + p.buf[n/2] + float64(j)
}

// measure returns the probe's time in seconds. It first yields, so that
// garbage-collection work the operation before it left pending runs before
// the probe rather than during it; then it runs probeWarm passes and times
// two more on this thread's CPU clock, keeping the faster.
func (p *probe) measure() float64 {
	runtime.Gosched()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for k := 0; k < probeWarm; k++ {
		p.pass()
	}
	best := math.Inf(1)
	for k := 0; k < 2; k++ {
		t0 := cpuTime(threadCPUClock)
		p.pass()
		best = math.Min(best, (cpuTime(threadCPUClock) - t0).Seconds())
	}
	return best
}

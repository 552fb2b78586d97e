package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed interval of a traced run. Spans of one operation share
// Op. The entry span wraps the call into the program's entry point; the
// other spans are the layers: children the program's own Stats report
// inside the entry span, or replays of a layer function on the same
// operands, recorded beside it. Cover marks the spans that together account
// for the entry point's work, without overlapping one another.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a top-level span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Entry  bool   `json:"entry,omitempty"`
	Cover  bool   `json:"cover,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps a run's spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	next  int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) record(s span, fn func(id int)) span {
	s.ID = t.next
	t.next++
	s.Start = t.now()
	if fn != nil {
		fn(s.ID)
	}
	s.End = t.now()
	t.spans = append(t.spans, s)
	return s
}

// entry runs fn as the span of a call into the program's entry point; fn
// receives the span's id to parent the spans recorded inside it.
func (t *tracer) entry(op int, name string, fn func(id int)) span {
	return t.record(span{Op: op, Parent: -1, Name: name, Entry: true}, fn)
}

// layer runs fn as the span of one layer function called by the benchmark.
func (t *tracer) layer(op int, name string, cover bool, fn func()) span {
	return t.record(span{Op: op, Parent: -1, Name: name, Cover: cover}, func(int) { fn() })
}

// put records a span whose times are already known.
func (t *tracer) put(s span) span {
	s.ID = t.next
	t.next++
	t.spans = append(t.spans, s)
	return s
}

// addSeq records Stats durations as consecutive covering children of parent
// that end where the parent ends: the program reports how long each stage
// took, not when it started.
func (t *tracer) addSeq(parent span, names []string, ds []time.Duration) {
	end := parent.End
	for i := len(names) - 1; i >= 0; i-- {
		if ds[i] <= 0 {
			continue
		}
		t.put(span{Op: parent.Op, Parent: parent.ID, Name: names[i], Start: end - int64(ds[i]), End: end, Cover: true})
		end -= int64(ds[i])
	}
}

// layerTime is one span name's mean self time and span count.
type layerTime struct {
	mean time.Duration
	n    int
}

func (l layerTime) ms() float64 { return float64(l.mean) / float64(time.Millisecond) }
func (l layerTime) us() float64 { return float64(l.mean) / float64(time.Microsecond) }

// layers returns, for every span name, the mean self time — a span's
// duration minus what its direct children cover — and the span count.
func (t *tracer) layers() map[string]layerTime {
	self := make(map[int]time.Duration, len(t.spans))
	for _, s := range t.spans {
		self[s.ID] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	sum := map[string]time.Duration{}
	out := map[string]layerTime{}
	for _, s := range t.spans {
		sum[s.Name] += self[s.ID]
		l := out[s.Name]
		l.n++
		out[s.Name] = l
	}
	for name, l := range out {
		l.mean = sum[name] / time.Duration(l.n)
		out[name] = l
	}
	return out
}

// entrySeconds is the total time spent inside entry spans.
func (t *tracer) entrySeconds() float64 {
	var d time.Duration
	for _, s := range t.spans {
		if s.Entry {
			d += s.dur()
		}
	}
	return d.Seconds()
}

// coverage is the share of the entry spans' time that the covering layer
// spans account for. Layers the program runs on several threads can account
// for more than the wall time, so it can exceed 1.
func (t *tracer) coverage() float64 {
	var cover time.Duration
	for _, s := range t.spans {
		if s.Cover {
			cover += s.dur()
		}
	}
	if e := t.entrySeconds(); e > 0 {
		return cover.Seconds() / e
	}
	return 0
}

// write appends the spans to path as JSON lines, one per span.
func (t *tracer) write(path, workload string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(struct {
			Workload string `json:"workload"`
			span
		}{workload, s}); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

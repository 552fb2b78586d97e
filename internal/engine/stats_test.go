package engine_test

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"polyclip/internal/engine"
)

// TestStatsJSONRoundTrip pins the Stats serialization contract the clipd
// service's responses depend on: lower-camel field names, durations as
// nanosecond integers, and a lossless round trip.
func TestStatsJSONRoundTrip(t *testing.T) {
	in := engine.Stats{
		Engine:    "overlay",
		Slabs:     4,
		Sort:      3 * time.Millisecond,
		Partition: 5 * time.Millisecond,
		Clip:      11 * time.Millisecond,
		Merge:     2 * time.Millisecond,
		PerThread: []time.Duration{time.Millisecond, 2 * time.Millisecond},
		Resilience: engine.Resilience{
			Repaired:          true,
			Attempts:          []string{"overlay:panic", "overlay-coarse:ok"},
			Recovered:         1,
			StageTimeouts:     2,
			Retries:           3,
			InvariantFailures: 4,
		},
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var out engine.Stats
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", in, out)
	}

	// The wire names are a stable contract: a rename breaks every consumer
	// of /statz and the committed benchmark artifacts.
	for _, key := range []string{
		`"engine"`, `"slabs"`, `"sortNs"`, `"partitionNs"`, `"clipNs"`,
		`"mergeNs"`, `"perThreadNs"`, `"resilience"`, `"repaired"`,
		`"attempts"`, `"recovered"`, `"stageTimeouts"`, `"retries"`,
		`"invariantFailures"`,
	} {
		if !strings.Contains(string(data), key) {
			t.Errorf("serialized Stats is missing key %s: %s", key, data)
		}
	}
}

// TestStatsJSONOmitsEmpty pins the omitempty behaviour: a zero Stats still
// serializes the counter fields (so CSV/JSON consumers see explicit zeros)
// but drops the optional engine name and slices.
func TestStatsJSONOmitsEmpty(t *testing.T) {
	data, err := json.Marshal(engine.Stats{})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	s := string(data)
	for _, absent := range []string{`"engine"`, `"perThreadNs"`, `"attempts"`} {
		if strings.Contains(s, absent) {
			t.Errorf("zero Stats should omit %s: %s", absent, s)
		}
	}
	for _, present := range []string{`"slabs":0`, `"recovered":0`, `"stageTimeouts":0`} {
		if !strings.Contains(s, present) {
			t.Errorf("zero Stats should keep %s explicit: %s", present, s)
		}
	}
}

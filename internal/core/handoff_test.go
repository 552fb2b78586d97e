package core

import (
	"context"
	"math"
	"sync"
	"testing"

	"polyclip/internal/engine"
	"polyclip/internal/geom"
)

// recordingHost is a slab host that records the PreResolved flag of every
// call it receives and clips through the vatti engine.
type recordingHost struct {
	mu    sync.Mutex
	flags []bool
}

func (*recordingHost) Name() string { return "core-test-recording-host" }

func (h *recordingHost) Clip(ctx context.Context, a, b geom.Polygon, op engine.Op, opt engine.Options) (engine.Result, error) {
	h.mu.Lock()
	h.flags = append(h.flags, opt.PreResolved)
	h.mu.Unlock()
	return engine.MustGet("vatti").Clip(ctx, a, b, op, opt)
}

// TestClipPairHostHandOff pins the one resolve per slabs clip: ClipPairCtx
// resolves and snaps the pair itself, so when the pair is not cut into slabs
// (one slab, or no events at all) the host gets it with PreResolved set and
// only sweeps; band-clipped slab pieces are new geometry, and their hosts
// must resolve them again.
func TestClipPairHostHandOff(t *testing.T) {
	a := geom.Polygon{geom.Star(geom.Point{X: 0, Y: 0}, 5, 2, 16, 0.3)}
	b := geom.Polygon{geom.Star(geom.Point{X: 1, Y: 0}, 5, 2, 14, 0.9)}
	cases := []struct {
		name          string
		a, b          geom.Polygon
		slabs         int
		preResolved   bool
		minHostCalls  int
		wantMultiSlab bool
	}{
		{name: "single-slab", a: a, b: b, slabs: 1, preResolved: true, minHostCalls: 1},
		{name: "no-event", slabs: 4, preResolved: true, minHostCalls: 1},
		{name: "band-clipped", a: a, b: b, slabs: 4, preResolved: false, minHostCalls: 2, wantMultiSlab: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := &recordingHost{}
			got, st, err := ClipPairCtx(context.Background(), c.a, c.b, Xor, Options{Threads: 4, Slabs: c.slabs, Engine: h})
			if err != nil {
				t.Fatal(err)
			}
			if c.wantMultiSlab && st.Slabs < 2 {
				t.Fatalf("partitioning produced %d slabs, want >= 2", st.Slabs)
			}
			if len(h.flags) < c.minHostCalls {
				t.Fatalf("host called %d times, want >= %d", len(h.flags), c.minHostCalls)
			}
			for i, f := range h.flags {
				if f != c.preResolved {
					t.Errorf("host call %d: PreResolved = %v, want %v", i, f, c.preResolved)
				}
			}
			if want := seqArea(c.a, c.b, Xor); math.Abs(got.Area()-want) > 1e-6*(1+want) {
				t.Errorf("area = %v, want %v", got.Area(), want)
			}
		})
	}
}

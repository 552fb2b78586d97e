package arrange

import (
	"fmt"
	"math"
	"testing"

	"polyclip/internal/data"
	"polyclip/internal/engine"
	"polyclip/internal/geom"
)

// reversedPolygon returns a copy of p with every ring's direction flipped.
func reversedPolygon(p geom.Polygon) geom.Polygon {
	out := make(geom.Polygon, len(p))
	for i, r := range p {
		out[i] = r.Clone()
		out[i].Reverse()
	}
	return out
}

// emptyUnder reports the predicate's verdict on one resolved operand: a
// union with nothing is empty exactly when the operand is.
func emptyUnder(p geom.Polygon, rule engine.FillRule) bool {
	r, _ := ResolvePair(p, nil)
	return EmptyResult(r, nil, engine.Union, rule)
}

func TestEmptyResultOperands(t *testing.T) {
	nz := math.Copysign(0, -1)
	cases := []struct {
		name               string
		p                  geom.Polygon
		positive, negative bool // the predicate's verdicts
	}{
		{"ccw square", geom.Polygon{rect(0, 0, 2, 2)}, false, true},
		{"cw square", reversedPolygon(geom.Polygon{rect(0, 0, 2, 2)}), true, false},
		{"empty operand", nil, true, true},
		// One loop of each turn: winding +1 in one lobe, -1 in the other.
		{"bowtie", geom.Polygon{bowtie(0, 0, 1)}, false, false},
		// Every loop of a {5/2} star traced counter-clockwise turns
		// counter-clockwise: its windings are 0, 1 and 2.
		{"pentagram", geom.Polygon{pentagram(0, 0, 10)}, false, true},
		{"cw pentagram", reversedPolygon(geom.Polygon{pentagram(0, 0, 10)}), true, false},
		// A same-direction inner ring winds 2, never below 0.
		{"doubled square", geom.Polygon{rect(0, 0, 4, 4), rect(1, 1, 3, 3)}, false, true},
		// A clockwise hole in a counter-clockwise shell winds 0 and 1, so
		// the region is empty under Negative; the predicate sees a
		// clockwise loop and may not say so.
		{"shell and hole", geom.Polygon{rect(0, 0, 4, 4), reversedPolygon(geom.Polygon{rect(1, 1, 3, 3)})[0]}, false, false},
		// Two counter-clockwise squares in one ring, meeting at (1,1).
		{"corner-touching lobes", geom.Polygon{{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 2, Y: 1}, {X: 2, Y: 2}, {X: 1, Y: 2}, {X: 1, Y: 1}, {X: 0, Y: 1}}}, false, true},
		// A large clockwise lobe and a small counter-clockwise one that
		// meet at the origin, written once as +0 and once as -0: the ring's
		// area is negative, yet the small lobe winds +1, so only the loop
		// split (which must see one vertex) can tell.
		{"signed-zero lobes", geom.Polygon{{{X: 0, Y: 0}, {X: -4, Y: -4}, {X: -4, Y: 4}, {X: nz, Y: nz}, {X: 1, Y: -1}, {X: 1, Y: 1}}}, false, false},
		// A closed spike (a vertex visited on the way out and back) bounds
		// nothing.
		{"spike", geom.Polygon{{{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 3, Y: 1}, {X: 2, Y: 0}, {X: 2, Y: 2}, {X: 0, Y: 2}}}, false, true},
	}
	for _, c := range cases {
		if got := emptyUnder(c.p, engine.Positive); got != c.positive {
			t.Errorf("%s: empty under positive = %v, want %v", c.name, got, c.positive)
		}
		if got := emptyUnder(c.p, engine.Negative); got != c.negative {
			t.Errorf("%s: empty under negative = %v, want %v", c.name, got, c.negative)
		}
		for _, rule := range []engine.FillRule{engine.EvenOdd, engine.NonZero} {
			if emptyUnder(c.p, rule) {
				t.Errorf("%s: empty under %v", c.name, rule)
			}
		}
	}
}

func TestEmptyResultOps(t *testing.T) {
	ccw := geom.Polygon{rect(0, 0, 2, 2)}
	cw := reversedPolygon(geom.Polygon{rect(1, 1, 3, 3)})
	// Under Negative the counter-clockwise operand is empty and the
	// clockwise one is not.
	want := map[engine.Op][2]bool{ // {ccw op cw, cw op ccw}
		engine.Intersection: {true, true},
		engine.Union:        {false, false},
		engine.Difference:   {true, false},
		engine.Xor:          {false, false},
	}
	a, b := ResolvePair(ccw, cw)
	for _, op := range engine.Ops() {
		if got := EmptyResult(a, b, op, engine.Negative); got != want[op][0] {
			t.Errorf("ccw %v cw: empty = %v, want %v", op, got, want[op][0])
		}
		if got := EmptyResult(b, a, op, engine.Negative); got != want[op][1] {
			t.Errorf("cw %v ccw: empty = %v, want %v", op, got, want[op][1])
		}
		if !EmptyResult(a, a, op, engine.Negative) {
			t.Errorf("ccw %v ccw: not empty under negative", op)
		}
		if EmptyResult(b, b, op, engine.Negative) {
			t.Errorf("cw %v cw: empty under negative", op)
		}
	}
}

// trafficPairs are the benchmark's clip-degenerate inputs whose operands
// all turn counter-clockwise: interleaved rings, {n/2} stars and
// checkerboards.
func trafficPairs() map[string][2]geom.Polygon {
	pairs := map[string][2]geom.Polygon{}
	for _, s := range []int64{1001, 1002} {
		a, b := data.InterleavedPair(s, 512)
		pairs[fmt.Sprintf("interleaved-%d", s)] = [2]geom.Polygon{a, b}
	}
	for _, n := range []int{101, 401} {
		a, b := data.SelfIntersectingPair(3, n)
		pairs[fmt.Sprintf("selfintersecting-%d", n)] = [2]geom.Polygon{a, b}
	}
	for _, f := range data.PinFamilies() {
		if f.Name == "checkerboard-shared" || f.Name == "checkerboard-shifted" {
			pr := f.Pairs()[0]
			pairs[f.Name] = [2]geom.Polygon{pr[0], pr[1]}
		}
	}
	return pairs
}

// TestEmptyResultFiresOnTraffic: the predicate must fire on the benchmark's
// counter-clockwise pairs under Negative, and on their reverses under
// Positive, for every op, both on the resolved pair (what vatti and
// Algorithm 1 test) and on the resolved, snapped pair (what overlay tests).
func TestEmptyResultFiresOnTraffic(t *testing.T) {
	for name, pr := range trafficPairs() {
		for _, rule := range []engine.FillRule{engine.Negative, engine.Positive} {
			a, b := pr[0], pr[1]
			if rule == engine.Positive {
				a, b = reversedPolygon(a), reversedPolygon(b)
			}
			ra, rb := ResolvePair(a, b)
			eps := geom.AutoSnapEps(a, b)
			sa, sb := geom.SnapPolygon(ra, eps), geom.SnapPolygon(rb, eps)
			for _, op := range engine.Ops() {
				if !EmptyResult(ra, rb, op, rule) {
					t.Errorf("%s %v %v: resolved pair not reported empty", name, rule, op)
				}
				if !EmptyResult(sa, sb, op, rule) {
					t.Errorf("%s %v %v: snapped pair not reported empty", name, rule, op)
				}
			}
		}
	}
}

// TestEmptyResultAllocs pins the predicate's allocations on the resolved
// SyntheticPair 4096: none when the shoelace pass settles the pair, and the
// vertex table and path (sized once for both operands) when the loops must
// be split.
func TestEmptyResultAllocs(t *testing.T) {
	a, b := ResolvePair(data.SyntheticPair(1, 4096, 4096))
	for _, c := range []struct {
		rule  engine.FillRule
		empty bool
		max   float64
	}{
		{engine.Positive, false, 0},
		{engine.Negative, true, 2},
	} {
		var got bool
		allocs := testing.AllocsPerRun(20, func() { got = EmptyResult(a, b, engine.Union, c.rule) })
		if got != c.empty {
			t.Errorf("%v: empty = %v, want %v", c.rule, got, c.empty)
		}
		if allocs > c.max {
			t.Errorf("%v: %v allocations, want at most %v", c.rule, allocs, c.max)
		}
	}
}

// TestLoopTurnsUndecided: a loop whose edges overlap at its lowest vertex,
// which resolution rules out but a weld can leave, has no decided turn
// there and may turn either way.
func TestLoopTurnsUndecided(t *testing.T) {
	var loop []pathVertex
	for _, p := range []geom.Point{{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 2, Y: 2}, {X: 1, Y: 2}, {X: 1, Y: 0}} {
		loop = append(loop, pathVertex{p: p})
	}
	for _, want := range []geom.Orientation{geom.CounterClockwise, geom.Clockwise} {
		if !loopTurns(loop, want) {
			t.Errorf("loop with a collinear lowest turn does not turn %v", want)
		}
	}
}

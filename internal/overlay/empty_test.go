package overlay

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"polyclip/internal/arrange"
	"polyclip/internal/data"
	"polyclip/internal/engine"
	"polyclip/internal/geom"
	"polyclip/internal/scanbeam"
	"polyclip/internal/wkt"
)

// checkEmptyAgainstLabels prepares the pair as Clip does (sanitize, resolve,
// snap), labels every sub-edge of its arrangement exactly (gatherEdges,
// subdivide, scanbeam.Classify), and fails when arrange.EmptyResult calls
// an operand, or a result under some op, empty although a side of some
// sub-edge is inside it under rule. Calling a region that is empty "not
// empty" is allowed. It returns how many of the four ops the predicate
// called empty.
func checkEmptyAgainstLabels(t *testing.T, name string, a, b geom.Polygon, rule engine.FillRule) int {
	t.Helper()
	a, b = sanitize(a), sanitize(b)
	eps := geom.AutoSnapEps(a, b)
	a, b = arrange.ResolvePair(a, b)
	a, b = geom.SnapPolygon(a, eps), geom.SnapPolygon(b, eps)

	edges, owners := gatherEdges(a, b)
	segs := subdivide(context.Background(), edges, owners, eps, 1)
	scanbeam.Classify(context.Background(), segs)
	// inside[o] / selected[op]: some side of some sub-edge lies inside
	// operand o, or inside the result of op, under rule.
	var inside [2]bool
	var selected [4]bool
	for _, s := range segs {
		for _, w := range [2][2]int16{s.Left, {s.Left[0] + s.Wind[0], s.Left[1] + s.Wind[1]}} {
			ia, ib := rule.Inside(w[0]), rule.Inside(w[1])
			inside[0] = inside[0] || ia
			inside[1] = inside[1] || ib
			for _, op := range engine.Ops() {
				selected[op] = selected[op] || op.Eval(ia, ib)
			}
		}
	}
	for o, p := range [2]geom.Polygon{a, b} {
		if inside[o] && arrange.EmptyResult(p, p, engine.Intersection, rule) {
			t.Errorf("%s %v: operand %d called empty, but a sub-edge side lies inside it", name, rule, o)
		}
	}
	fired := 0
	for _, op := range engine.Ops() {
		if !arrange.EmptyResult(a, b, op, rule) {
			continue
		}
		fired++
		if selected[op] {
			t.Errorf("%s %v %v: result called empty, but a sub-edge side lies inside it", name, rule, op)
		}
	}
	return fired
}

// reversedPolygon returns a copy of p with every ring's direction flipped.
func reversedPolygon(p geom.Polygon) geom.Polygon {
	out := make(geom.Polygon, len(p))
	for i, r := range p {
		out[i] = r.Clone()
		out[i].Reverse()
	}
	return out
}

// gridPolygon returns one to three rings of three to eight vertices drawn
// from a 5×5 integer grid times scale, so that vertices repeat within and
// across rings, in either orientation: some rings trace their vertices by
// angle about their mean (simple, or nearly), the rest in drawing order.
func gridPolygon(rng *rand.Rand, scale float64) geom.Polygon {
	var p geom.Polygon
	for range 1 + rng.Intn(3) {
		r := make(geom.Ring, 3+rng.Intn(6))
		for i := range r {
			r[i] = geom.Point{X: float64(rng.Intn(5)) * scale, Y: float64(rng.Intn(5)) * scale}
		}
		if rng.Intn(2) == 0 {
			sortByAngle(r)
		}
		if rng.Intn(2) == 0 {
			r.Reverse()
		}
		p = append(p, r)
	}
	return p
}

// sortByAngle orders r's vertices counter-clockwise about their mean.
func sortByAngle(r geom.Ring) {
	var c geom.Point
	for _, v := range r {
		c = c.Add(v)
	}
	c = geom.Point{X: c.X / float64(len(r)), Y: c.Y / float64(len(r))}
	less := func(u, v geom.Point) bool {
		hu, hv := u.Y < c.Y || u.Y == c.Y && u.X < c.X, v.Y < c.Y || v.Y == c.Y && v.X < c.X
		if hu != hv {
			return !hu
		}
		return u.Sub(c).Cross(v.Sub(c)) > 0
	}
	for i := 1; i < len(r); i++ {
		for j := i; j > 0 && less(r[j], r[j-1]); j-- {
			r[j], r[j-1] = r[j-1], r[j]
		}
	}
}

// corpusPairs reads the operand pairs of the committed clip fuzz corpora:
// each entry's first two string arguments, as WKT.
func corpusPairs(t *testing.T) map[string][2]geom.Polygon {
	out := map[string][2]geom.Polygon{}
	for _, target := range []string{"FuzzClipAllEngines", "FuzzClipRoundTrip"} {
		dir := filepath.Join("..", "..", "testdata", "fuzz", target)
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			raw, err := os.ReadFile(filepath.Join(dir, f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			var ops []geom.Polygon
			for _, line := range strings.Split(string(raw), "\n") {
				arg, ok := strings.CutPrefix(line, "string(")
				if !ok {
					continue
				}
				s, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
				if err != nil {
					t.Fatalf("%s/%s: %v", target, f.Name(), err)
				}
				if p, err := wkt.Unmarshal(s); err == nil {
					ops = append(ops, p)
				}
			}
			if len(ops) == 2 {
				out[target+"/"+f.Name()] = [2]geom.Polygon{ops[0], ops[1]}
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("no corpus pair parsed")
	}
	return out
}

// TestEmptyResultMatchesLabels holds arrange.EmptyResult to the exact side
// labels of the arrangement overlay sweeps, under Positive and Negative, on
// the pinned families (as given, reversed, and with one operand reversed),
// random multi-ring polygons at scales 1, 1e100 and 1e-100, a mixed-extent
// pair and the committed clip fuzz corpora.
func TestEmptyResultMatchesLabels(t *testing.T) {
	pairs := map[string][2]geom.Polygon{}
	for _, f := range data.PinFamilies() {
		if testing.Short() && !f.Short {
			continue
		}
		for i, pr := range f.Pairs() {
			a, b := pr[0], pr[1]
			ra, rb := reversedPolygon(a), reversedPolygon(b)
			for k, q := range [][2]geom.Polygon{{a, b}, {ra, rb}, {ra, b}, {a, rb}} {
				pairs[f.Name+"/"+strconv.Itoa(i)+"/"+strconv.Itoa(k)] = q
			}
		}
	}
	rng := rand.New(rand.NewSource(34))
	n := 400
	if testing.Short() {
		n = 100
	}
	for _, scale := range []float64{1, 1e100, 1e-100} {
		for i := range n {
			pairs["grid/"+strconv.FormatFloat(scale, 'g', -1, 64)+"/"+strconv.Itoa(i)] =
				[2]geom.Polygon{gridPolygon(rng, scale), gridPolygon(rng, scale)}
		}
	}
	cells := geom.Polygon{
		{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: 1}},
		{{X: 1, Y: 1}, {X: 2, Y: 1}, {X: 2, Y: 2}, {X: 1, Y: 2}},
		{{X: 2, Y: 0}, {X: 3, Y: 0}, {X: 3, Y: 1}, {X: 2, Y: 1}},
	}
	sliver := geom.Polygon{{{X: 0, Y: 0}, {X: 2e12, Y: 0}, {X: 0, Y: 1e-10}}}
	pairs["mixed-extent"] = [2]geom.Polygon{cells, sliver}
	pairs["mixed-extent/reversed"] = [2]geom.Polygon{reversedPolygon(cells), sliver}
	for name, pr := range corpusPairs(t) {
		pairs[name] = pr
	}

	fired := 0
	for name, pr := range pairs {
		for _, rule := range []engine.FillRule{engine.Positive, engine.Negative} {
			fired += checkEmptyAgainstLabels(t, name, pr[0], pr[1], rule)
		}
	}
	t.Logf("%d pairs, predicate fired on %d (pair, rule, op) cases", len(pairs), fired)
	if fired == 0 {
		t.Error("the predicate never fired")
	}
}

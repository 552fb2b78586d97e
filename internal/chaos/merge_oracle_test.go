package chaos

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"polyclip/internal/core"
	"polyclip/internal/data"
	eng "polyclip/internal/engine"
	"polyclip/internal/geom"
	"polyclip/internal/guard"
	"polyclip/internal/ringstitch"
	"polyclip/internal/vatti"
	"polyclip/internal/wkt"
)

// assemblePerBeam is the merge that joins no sides: every trapezoid's sides
// and caps go to the stitcher as they are, so each beam line leaves a
// virtual vertex on every side it cuts. It is the oracle vatti.Assemble is
// held to: the same rings, less those vertices.
func assemblePerBeam(tzs []eng.Trapezoid) geom.Polygon {
	if len(tzs) == 0 {
		return nil
	}
	// Corners of adjacent trapezoids that represent the same arrangement
	// vertex can differ by an ulp when computed through different edges
	// (e.g. the two edges of a crossing). Cluster near-identical corners
	// onto shared representatives so the edge graph balances exactly.
	tzs = snapPerBeam(tzs)
	// Caps: +1 for bottom caps (interior above), -1 for top caps (interior
	// below).
	caps := make([]ringstitch.Cap, 0, 2*len(tzs))
	sides := make([]ringstitch.Edge, 0, 2*len(tzs))
	for _, tz := range tzs {
		if tz.R1.X > tz.L1.X {
			caps = append(caps, ringstitch.Cap{Y: tz.L1.Y, X0: tz.L1.X, X1: tz.R1.X, Dir: +1})
		}
		if tz.R2.X > tz.L2.X {
			caps = append(caps, ringstitch.Cap{Y: tz.L2.Y, X0: tz.L2.X, X1: tz.R2.X, Dir: -1})
		}
		// Right side up, left side down (interior on the left).
		if tz.R1 != tz.R2 {
			sides = append(sides, ringstitch.Edge{From: tz.R1, To: tz.R2})
		}
		if tz.L1 != tz.L2 {
			sides = append(sides, ringstitch.Edge{From: tz.L2, To: tz.L1})
		}
	}
	// Cap lines in ascending y, each line's caps in trapezoid order: the
	// emission order decides where Stitch starts each output ring.
	slices.SortStableFunc(caps, func(a, b ringstitch.Cap) int { return cmp.Compare(a.Y, b.Y) })
	return ringstitch.Stitch(ringstitch.NetCaps(ringstitch.CancelOpposites(sides), caps))
}

// snapPerBeam welds trapezoid corners that represent the same arrangement
// vertex by quantizing every coordinate onto the geom.GridStep grid of the
// data extent (geom.SnapPoint).
func snapPerBeam(tzs []eng.Trapezoid) []eng.Trapezoid {
	box := geom.EmptyBBox()
	for _, tz := range tzs {
		box.Extend(tz.L1)
		box.Extend(tz.R1)
		box.Extend(tz.L2)
		box.Extend(tz.R2)
	}
	eps := geom.GridStep(box)
	if eps == 0 {
		return tzs
	}
	out := make([]eng.Trapezoid, len(tzs))
	for i, tz := range tzs {
		out[i] = eng.Trapezoid{
			L1: geom.SnapPoint(tz.L1, eps), R1: geom.SnapPoint(tz.R1, eps),
			L2: geom.SnapPoint(tz.L2, eps), R2: geom.SnapPoint(tz.R2, eps),
		}
	}
	return out
}

// oraclePair is one operand pair the merge oracle checks.
type oraclePair struct {
	name string
	a, b geom.Polygon
}

// oraclePairs gathers the pinned input families, the golden differential
// corpus and cases of every non-tile chaos family.
func oraclePairs(t *testing.T) []oraclePair {
	var pairs []oraclePair
	for _, f := range data.PinFamilies() {
		if testing.Short() && !f.Short {
			continue
		}
		for i, pr := range f.Pairs() {
			pairs = append(pairs, oraclePair{fmt.Sprintf("%s/%d", f.Name, i), pr[0], pr[1]})
		}
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "differential", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden corpus (err=%v)", err)
	}
	for _, fn := range files {
		raw, err := os.ReadFile(fn)
		if err != nil {
			t.Fatal(err)
		}
		var c struct{ Name, Subject, Clip string }
		if err := json.Unmarshal(raw, &c); err != nil {
			t.Fatalf("%s: %v", fn, err)
		}
		a, errA := wkt.Unmarshal(c.Subject)
		b, errB := wkt.Unmarshal(c.Clip)
		if errA != nil || errB != nil {
			t.Fatalf("%s: %v %v", fn, errA, errB)
		}
		pairs = append(pairs, oraclePair{"golden/" + c.Name, a, b})
	}
	gens := append(generatorsFor(FamilyAdversarial), generatorsFor(FamilyDegenerate)...)
	cases := 4 * len(gens)
	if testing.Short() {
		cases = len(gens)
	}
	for i := 0; i < cases; i++ {
		w := buildWorkloadFrom(1, i, gens)
		pairs = append(pairs, oraclePair{fmt.Sprintf("chaos/%s/%d", w.name, i), w.a, w.b})
	}
	return pairs
}

// TestMergeMatchesPerBeamOracle holds the vatti engine and Algorithm 1 to
// the per-beam merge of the same sweep, under every op and rule: every
// output ring is an oracle ring with only degree-2 virtual vertices removed,
// compared as cyclic sequences, and every output's area is within 1e-9 of
// the operands' summed measure of the oracle's.
func TestMergeMatchesPerBeamOracle(t *testing.T) {
	var rings, oracleVerts, verts int
	for _, pr := range oraclePairs(t) {
		scale := guard.MeasureBound(pr.a) + guard.MeasureBound(pr.b)
		for _, op := range eng.Ops() {
			for _, rule := range eng.Rules() {
				want := assemblePerBeam(vatti.Trapezoids(pr.a, pr.b, op, rule))
				alg1, _ := core.AlgorithmOneRuleCtx(context.Background(), pr.a, pr.b, op, rule, 2)
				for _, got := range []struct {
					engine string
					poly   geom.Polygon
				}{
					{"vatti", vatti.Clip(pr.a, pr.b, op, eng.Options{Rule: rule})},
					{"algorithm1", alg1},
				} {
					name := fmt.Sprintf("%s %s %v %v", pr.name, got.engine, op, rule)
					if msg := oracleMismatch(got.poly, want); msg != "" {
						t.Errorf("%s: %s", name, msg)
					}
					if d := math.Abs(got.poly.Area() - want.Area()); d > 1e-9*scale {
						t.Errorf("%s: area %g, oracle %g (scale %g)", name, got.poly.Area(), want.Area(), scale)
					}
					rings += len(got.poly)
					verts += got.poly.NumVertices()
					oracleVerts += want.NumVertices()
				}
			}
		}
	}
	t.Logf("%d rings: %d vertices, per-beam oracle %d", rings, verts, oracleVerts)
}

// oracleMismatch says how got fails to be want with only degree-2 virtual
// vertices removed, or returns "". Rings pair one to one; a removed vertex
// must occur once in the whole oracle output (no other ring or side meets
// it) and lie within two grid steps of the segment that replaces it.
func oracleMismatch(got, want geom.Polygon) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rings, oracle %d", len(got), len(want))
	}
	tol := 2 * geom.GridStep(want.BBox())
	count := make(map[geom.Point]int)
	for _, r := range want {
		for _, p := range r {
			count[p]++
		}
	}
	used := make([]bool, len(want))
	for gi, r := range got {
		found := false
		for wi, w := range want {
			if !used[wi] && isReducedRing(r, w, count, tol) {
				used[wi], found = true, true
				break
			}
		}
		if !found {
			return fmt.Sprintf("ring %d (%d vertices) is no oracle ring less virtual vertices", gi, len(r))
		}
	}
	return ""
}

// isReducedRing reports whether r is the cyclic sequence w with some
// removable vertices left out.
func isReducedRing(r, w geom.Ring, count map[geom.Point]int, tol float64) bool {
	if len(r) == 0 || len(r) > len(w) {
		return false
	}
	removable := func(skipped []geom.Point, a, b geom.Point) bool {
		for _, q := range skipped {
			if count[q] != 1 || (geom.Segment{A: a, B: b}).DistToPoint(q) > tol {
				return false
			}
		}
		return true
	}
	for s := range w {
		if w[s] != r[0] {
			continue
		}
		i, last := 0, r[0]
		var skipped []geom.Point
		ok := true
		for k := 0; k < len(w) && ok; k++ {
			p := w[(s+k)%len(w)]
			if i < len(r) && p == r[i] {
				ok = removable(skipped, last, p)
				skipped, last = skipped[:0], p
				i++
				continue
			}
			skipped = append(skipped, p)
		}
		if ok && i == len(r) && removable(skipped, last, r[0]) {
			return true
		}
	}
	return false
}

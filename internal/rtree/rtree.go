// Package rtree provides a static R-tree over bounding boxes, bulk-loaded
// with the Sort-Tile-Recursive (STR) packing algorithm. The layer-overlay
// path uses it to find candidate feature pairs (the MBR join of the paper's
// Algorithm 2 for polygon sets); it is also the standard GIS indexing
// substrate a downstream user of this library would expect.
package rtree

import (
	"math"
	"sort"

	"polyclip/internal/geom"
)

// maxFill is the node fan-out.
const maxFill = 16

// Tree is an immutable R-tree over int32 item ids.
type Tree struct {
	nodes []node
	root  int32
}

type node struct {
	box   geom.BBox
	child []int32 // node indices, or item ids at leaves
	leaf  bool
}

// Build bulk-loads a tree over n boxes produced by box(i) using STR
// packing: items are sorted into vertical tiles by center x, each tile
// sorted by center y and cut into runs of maxFill.
func Build(n int, box func(i int32) geom.BBox) *Tree {
	t := &Tree{}
	if n == 0 {
		t.root = -1
		return t
	}
	type entry struct {
		id int32
		b  geom.BBox
	}
	items := make([]entry, n)
	for i := range items {
		items[i] = entry{int32(i), box(int32(i))}
	}

	// Leaf level by STR.
	nLeaves := (n + maxFill - 1) / maxFill
	nSlices := int(math.Ceil(math.Sqrt(float64(nLeaves))))
	perSlice := nSlices * maxFill

	sort.Slice(items, func(a, b int) bool {
		ca := items[a].b.MinX + items[a].b.MaxX
		cb := items[b].b.MinX + items[b].b.MaxX
		return ca < cb
	})
	for s := 0; s < len(items); s += perSlice {
		e := s + perSlice
		if e > len(items) {
			e = len(items)
		}
		sl := items[s:e]
		sort.Slice(sl, func(a, b int) bool {
			ca := sl[a].b.MinY + sl[a].b.MaxY
			cb := sl[b].b.MinY + sl[b].b.MaxY
			return ca < cb
		})
	}

	level := make([]int32, 0, nLeaves)
	for s := 0; s < len(items); s += maxFill {
		e := s + maxFill
		if e > len(items) {
			e = len(items)
		}
		nd := node{leaf: true, box: geom.EmptyBBox()}
		for _, it := range items[s:e] {
			nd.child = append(nd.child, it.id)
			nd.box = nd.box.Union(it.b)
		}
		t.nodes = append(t.nodes, nd)
		level = append(level, int32(len(t.nodes)-1))
	}

	// Internal levels.
	for len(level) > 1 {
		next := make([]int32, 0, (len(level)+maxFill-1)/maxFill)
		for s := 0; s < len(level); s += maxFill {
			e := s + maxFill
			if e > len(level) {
				e = len(level)
			}
			nd := node{box: geom.EmptyBBox()}
			for _, ci := range level[s:e] {
				nd.child = append(nd.child, ci)
				nd.box = nd.box.Union(t.nodes[ci].box)
			}
			t.nodes = append(t.nodes, nd)
			next = append(next, int32(len(t.nodes)-1))
		}
		level = next
	}
	t.root = level[0]
	return t
}

// SearchRect appends to out the candidate ids for the window q — every item
// in a leaf whose node box intersects q — and returns the extended slice. It
// is the window query of the tile pipeline, and its only filter: no
// callback, so a caller that reuses out across queries allocates nothing
// per query once the slice has grown to its working size (pinned by
// TestSearchRectAllocs). Callers needing the exact per-item test filter the
// ids against their own boxes. Ids arrive in tree traversal order.
func (t *Tree) SearchRect(q geom.BBox, out []int32) []int32 {
	if t.root < 0 {
		return out
	}
	return t.searchRect(t.root, q, out)
}

func (t *Tree) searchRect(ni int32, q geom.BBox, out []int32) []int32 {
	nd := &t.nodes[ni]
	if !nd.box.Intersects(q) {
		return out
	}
	if nd.leaf {
		return append(out, nd.child...)
	}
	for _, ci := range nd.child {
		out = t.searchRect(ci, q, out)
	}
	return out
}

// JoinVisit is the streaming spatial join: visit is called for every pair
// (i, j) with boxA(i) intersecting the tree's item j (exact box boxB(j)),
// without ever materializing the pair list. The million-feature batch
// overlay groups pairs as they stream out, so the join's memory stays
// O(tree depth) regardless of how many candidates the layers produce.
// Visit order is i ascending, j in tree traversal order.
//
// The traversal is iterative over one reused stack (a recursive descent
// would be allocation-free too, but the per-query closure a recursive
// helper needs would not be), so a whole join costs one stack allocation.
func (t *Tree) JoinVisit(na int, boxA func(i int32) geom.BBox, boxB func(j int32) geom.BBox, visit func(i, j int32)) {
	if t.root < 0 || na <= 0 {
		return
	}
	stack := make([]int32, 0, 32)
	for i := int32(0); i < int32(na); i++ {
		qa := boxA(i)
		stack = append(stack[:0], t.root)
		for len(stack) > 0 {
			ni := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			nd := &t.nodes[ni]
			if !nd.box.Intersects(qa) {
				continue
			}
			if nd.leaf {
				for _, id := range nd.child {
					if boxB(id).Intersects(qa) {
						visit(i, id)
					}
				}
				continue
			}
			// Push in reverse so children pop in declaration order, the
			// order SearchRect visits them.
			for k := len(nd.child) - 1; k >= 0; k-- {
				stack = append(stack, nd.child[k])
			}
		}
	}
}

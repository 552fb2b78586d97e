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
	n     int
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
	t := &Tree{n: n}
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

// Len returns the number of indexed items.
func (t *Tree) Len() int { return t.n }

// Bounds returns the root bounding box (empty for an empty tree).
func (t *Tree) Bounds() geom.BBox {
	if t.root < 0 {
		return geom.EmptyBBox()
	}
	return t.nodes[t.root].box
}

// Search calls visit for every item whose box intersects q.
func (t *Tree) Search(q geom.BBox, visit func(id int32)) {
	if t.root < 0 {
		return
	}
	t.search(t.root, q, visit)
}

func (t *Tree) search(ni int32, q geom.BBox, visit func(id int32)) {
	nd := &t.nodes[ni]
	if !nd.box.Intersects(q) {
		return
	}
	if nd.leaf {
		for _, id := range nd.child {
			visit(id)
		}
		return
	}
	for _, ci := range nd.child {
		t.search(ci, q, visit)
	}
}

// SearchRect appends to out the candidate ids for the window q — every item
// in a leaf whose node box intersects q, exactly the ids Search would visit —
// and returns the extended slice. It is the window query of the tile
// pipeline: no callback, so a caller that reuses out across queries
// allocates nothing per query once the slice has grown to its working size
// (pinned by TestSearchRectAllocs); the traversal itself is the same
// recursive descent as Search, which is allocation-free. Callers needing the
// exact per-item test filter the ids against their own boxes, as
// SearchFiltered does. Ids arrive in tree traversal order.
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

// SearchFiltered calls visit only for items whose own box (from box(id))
// intersects q — Search plus the exact leaf-level test.
func (t *Tree) SearchFiltered(q geom.BBox, box func(id int32) geom.BBox, visit func(id int32)) {
	t.Search(q, func(id int32) {
		if box(id).Intersects(q) {
			visit(id)
		}
	})
}

// Join reports every pair (i, j) with boxesA(i) intersecting the tree's
// item j (whose exact box is boxesB(j)). Pair order is i-major with j in
// tree traversal order — identical to streaming the same join through
// JoinVisit, which Join is a materializing wrapper around.
func (t *Tree) Join(na int, boxA func(i int32) geom.BBox, boxB func(j int32) geom.BBox) [][2]int32 {
	var out [][2]int32
	t.JoinVisit(na, boxA, boxB, func(i, j int32) {
		out = append(out, [2]int32{i, j})
	})
	return out
}

// JoinVisit is the streaming spatial join: visit is called for every pair
// (i, j) with boxA(i) intersecting the tree's item j (exact box boxB(j)),
// without ever materializing the pair list. The million-feature batch
// overlay groups pairs as they stream out, so the join's memory stays
// O(tree depth) regardless of how many candidates the layers produce.
// Visit order matches Join: i ascending, j in tree traversal order.
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
			// Push in reverse so children pop in declaration order,
			// preserving the recursive traversal's visit order.
			for k := len(nd.child) - 1; k >= 0; k-- {
				stack = append(stack, nd.child[k])
			}
		}
	}
}

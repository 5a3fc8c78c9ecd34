// Package covertree implements the FastMKS baseline (Curtin, Ram & Gray):
// exact max-kernel search over a cover-tree-style metric hierarchy, with
// the linear kernel K(q,p) = qᵀp used in the paper's evaluation.
//
// Construction follows the cover-tree spirit — a hierarchy of
// representatives whose covering radii shrink geometrically with the
// paper's base 1.3 — built by greedy farthest-point (k-center) selection,
// which is deterministic and O(n·branching·depth). Search correctness
// does not depend on the cover invariants: every node stores the EXACT
// maximum distance from its representative to any descendant, so the
// FastMKS bound
//
//	max_{p ∈ desc(n)} qᵀp ≤ qᵀx_n + ‖q‖·maxDescDist(n)
//
// always dominates, and branch-and-bound returns exact top-k results.
package covertree

import (
	"context"
	"math"

	"fexipro/internal/search"
	"fexipro/internal/topk"
	"fexipro/internal/vec"
)

// Base is the cover-tree expansion constant used in the paper (1.3).
const Base = 1.3

// DefaultLeafSize bounds the number of points enumerated at a leaf.
const DefaultLeafSize = 20

// Tree is an immutable cover-tree max-kernel index. It is searched by
// Kernel (one tree per shard) under engine.Engine.
type Tree struct {
	items    *vec.Matrix
	root     *node
	leafSize int
}

type node struct {
	id          int     // representative item
	maxDescDist float64 // exact max distance from items[id] to any descendant
	children    []*node
	leafIDs     []int // non-nil for leaves: all covered items (incl. id)
	size        int   // number of items in the subtree
}

// New builds the index over items (referenced, not copied). leafSize ≤ 0
// selects DefaultLeafSize.
func New(items *vec.Matrix, leafSize int) *Tree {
	if leafSize <= 0 {
		leafSize = DefaultLeafSize
	}
	t := &Tree{items: items, leafSize: leafSize}
	if items.Rows == 0 {
		return t
	}
	ids := make([]int, items.Rows)
	for i := range ids {
		ids[i] = i
	}
	t.root = t.build(ids[0], ids)
	return t
}

// build creates the subtree rooted at representative rep covering ids
// (which includes rep). Children representatives are chosen by greedy
// farthest-point selection until every point lies within the child
// radius, which shrinks by the expansion base per level.
func (t *Tree) build(rep int, ids []int) *node {
	n := &node{id: rep, size: len(ids)}
	repRow := t.items.Row(rep)
	var maxD float64
	for _, id := range ids {
		if d := vec.Dist(repRow, t.items.Row(id)); d > maxD {
			maxD = d
		}
	}
	n.maxDescDist = maxD
	if len(ids) <= t.leafSize || maxD == 0 {
		n.leafIDs = ids
		return n
	}

	// Child radius: shrink the covering radius by the expansion base.
	childRadius := maxD / Base

	// Greedy k-center: representatives start with rep itself; repeatedly
	// promote the point farthest from all current representatives until
	// everything is covered within childRadius.
	reps := []int{rep}
	distToReps := make([]float64, len(ids)) // min distance to chosen reps
	for i, id := range ids {
		distToReps[i] = vec.Dist(repRow, t.items.Row(id))
	}
	for {
		far, farDist := -1, childRadius
		for i := range ids {
			if distToReps[i] > farDist {
				far, farDist = i, distToReps[i]
			}
		}
		if far < 0 {
			break
		}
		newRep := ids[far]
		reps = append(reps, newRep)
		newRow := t.items.Row(newRep)
		for i, id := range ids {
			if d := vec.Dist(newRow, t.items.Row(id)); d < distToReps[i] {
				distToReps[i] = d
			}
		}
	}

	// Assign each point to its nearest representative.
	groups := make(map[int][]int, len(reps))
	for _, id := range ids {
		row := t.items.Row(id)
		best, bestD := reps[0], math.Inf(1)
		for _, r := range reps {
			if d := vec.DistSquared(row, t.items.Row(r)); d < bestD {
				best, bestD = r, d
			}
		}
		groups[best] = append(groups[best], id)
	}
	if len(groups) <= 1 {
		// Could not split (pathological duplicates): finish as a leaf.
		n.leafIDs = ids
		return n
	}
	for _, r := range reps {
		g := groups[r]
		if len(g) == 0 {
			continue
		}
		n.children = append(n.children, t.build(r, g))
	}
	return n
}

// scanState carries one best-bound-first branch-and-bound descent's
// per-query inputs and outputs, decoupled from the Tree so per-shard
// trees can be scanned by the engine: the collector and stats are
// externally owned, shared is the engine's cross-shard monotone
// threshold (nil at one shard), and offset translates the tree's local
// row IDs back to global item IDs.
type scanState struct {
	t      *Tree
	ctx    context.Context
	q      []float64
	qNorm  float64
	c      *topk.Collector
	shared *search.SharedThreshold
	stats  *search.Stats
	offset int
}

func (s *scanState) descend(n *node) error {
	if done := s.ctx.Done(); done != nil && s.stats.NodesVisited&search.StrideMask == 0 {
		if err := search.Poll(s.ctx); err != nil {
			return err
		}
	}
	s.stats.NodesVisited++
	t := s.t
	if n.leafIDs != nil {
		for _, id := range n.leafIDs {
			s.stats.Scanned++
			s.stats.FullProducts++
			if s.c.Push(id+s.offset, vec.Dot(s.q, t.items.Row(id))) && s.c.Len() == s.c.K() {
				s.shared.Publish(s.c.Threshold())
			}
		}
		return nil
	}
	// Order children by decreasing bound; prune STRICTLY (bound < t), so
	// every pruned item's exact score is strictly below the final global
	// k-th score and the retained set is invariant across shard layouts
	// (DESIGN.md §11). The threshold floor is re-read before each child
	// so earlier siblings' pushes — or another shard's published
	// threshold — tighten later prunes.
	type scored struct {
		child *node
		bound float64
	}
	order := make([]scored, 0, len(n.children))
	for _, ch := range n.children {
		b := vec.Dot(s.q, t.items.Row(ch.id)) + s.qNorm*ch.maxDescDist
		order = append(order, scored{ch, b})
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && order[j].bound > order[j-1].bound; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	for _, sc := range order {
		if sc.bound < s.shared.Floor(s.c.Threshold()) {
			s.stats.PrunedByLength += sc.child.size
			continue
		}
		if err := s.descend(sc.child); err != nil {
			return err
		}
	}
	return nil
}

// Size returns the number of indexed items.
func (t *Tree) Size() int {
	if t.root == nil {
		return 0
	}
	return t.root.size
}

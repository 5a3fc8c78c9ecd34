// Package balltree implements the BallTree exact maximum-inner-product
// baseline of Ram & Gray (KDD 2012), as configured in the paper's
// evaluation (leaf capacity 20).
//
// Each node covers a subset of item vectors with a bounding ball
// (centroid c, radius R = max distance from c to a member). For a query
// q, every inner product inside the ball is bounded by
//
//	qᵀp ≤ qᵀc + ‖q‖·R
//
// (qᵀp = qᵀc + qᵀ(p−c) ≤ qᵀc + ‖q‖·‖p−c‖). Branch-and-bound descends
// into the child with the larger bound first and prunes subtrees whose
// bound cannot beat the current k-th best product.
package balltree

import (
	"context"
	"math"
	"math/rand"

	"fexipro/internal/search"
	"fexipro/internal/topk"
	"fexipro/internal/vec"
)

// DefaultLeafSize is the leaf capacity suggested by Ram & Gray and used
// in the paper's experiments.
const DefaultLeafSize = 20

// Tree is an immutable BallTree over an item matrix. It is searched by
// Kernel (one tree per shard) under engine.Engine.
type Tree struct {
	items    *vec.Matrix
	root     *node
	leafSize int
}

type node struct {
	centroid []float64
	radius   float64
	// leaf payload: item IDs
	ids []int
	// internal children
	left, right *node
}

// New builds a BallTree over items (rows are item vectors; the matrix is
// referenced, not copied, and must not be mutated afterwards). leafSize
// ≤ 0 selects DefaultLeafSize.
func New(items *vec.Matrix, leafSize int) *Tree {
	if leafSize <= 0 {
		leafSize = DefaultLeafSize
	}
	t := &Tree{items: items, leafSize: leafSize}
	ids := make([]int, items.Rows)
	for i := range ids {
		ids[i] = i
	}
	rng := rand.New(rand.NewSource(1))
	t.root = t.build(ids, rng)
	return t
}

// build recursively splits ids with the classical two-pivot heuristic:
// pick the point A farthest from a random point, then B farthest from A,
// and partition by closer-of-the-two.
func (t *Tree) build(ids []int, rng *rand.Rand) *node {
	if len(ids) == 0 {
		return nil
	}
	n := &node{centroid: t.centroidOf(ids)}
	n.radius = t.maxDist(n.centroid, ids)
	if len(ids) <= t.leafSize {
		n.ids = ids
		return n
	}

	// Two-pivot split.
	seed := t.items.Row(ids[rng.Intn(len(ids))])
	a := t.farthestFrom(seed, ids)
	b := t.farthestFrom(t.items.Row(a), ids)
	if a == b {
		// All points identical: keep as a (possibly oversized) leaf.
		n.ids = ids
		return n
	}
	rowA, rowB := t.items.Row(a), t.items.Row(b)
	var leftIDs, rightIDs []int
	for _, id := range ids {
		row := t.items.Row(id)
		if vec.DistSquared(row, rowA) <= vec.DistSquared(row, rowB) {
			leftIDs = append(leftIDs, id)
		} else {
			rightIDs = append(rightIDs, id)
		}
	}
	if len(leftIDs) == 0 || len(rightIDs) == 0 {
		n.ids = ids
		return n
	}
	n.left = t.build(leftIDs, rng)
	n.right = t.build(rightIDs, rng)
	return n
}

func (t *Tree) centroidOf(ids []int) []float64 {
	c := make([]float64, t.items.Cols)
	for _, id := range ids {
		vec.Add(c, t.items.Row(id))
	}
	vec.Scale(c, 1/float64(len(ids)))
	return c
}

func (t *Tree) maxDist(from []float64, ids []int) float64 {
	var m float64
	for _, id := range ids {
		if d := vec.DistSquared(from, t.items.Row(id)); d > m {
			m = d
		}
	}
	return math.Sqrt(m)
}

func (t *Tree) farthestFrom(from []float64, ids []int) int {
	best, bestDist := ids[0], -1.0
	for _, id := range ids {
		if d := vec.DistSquared(from, t.items.Row(id)); d > bestDist {
			best, bestDist = id, d
		}
	}
	return best
}

// scanState carries one depth-first branch-and-bound descent's per-query
// inputs and outputs, decoupled from the Tree so a per-shard slice of
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
	if n.ids != nil {
		for _, id := range n.ids {
			s.stats.Scanned++
			s.stats.FullProducts++
			if s.c.Push(id+s.offset, vec.Dot(s.q, t.items.Row(id))) && s.c.Len() == s.c.K() {
				s.shared.Publish(s.c.Threshold())
			}
		}
		return nil
	}
	lb := t.bound(n.left, s.q, s.qNorm)
	rb := t.bound(n.right, s.q, s.qNorm)
	first, second := n.left, n.right
	fb, sb := lb, rb
	if rb > lb {
		first, second = n.right, n.left
		fb, sb = rb, lb
	}
	// Descend iff bound ≥ threshold: the prune is STRICT (bound < t), so
	// every pruned item's exact score is strictly below the final k-th
	// score and the retained set is invariant across shard layouts
	// (DESIGN.md §11). The floor is re-read before each child so a
	// sibling's pushes (or another shard's published threshold) tighten
	// the second descent.
	if fb >= s.shared.Floor(s.c.Threshold()) {
		if err := s.descend(first); err != nil {
			return err
		}
	} else {
		s.stats.PrunedByLength += countItems(first)
	}
	if sb >= s.shared.Floor(s.c.Threshold()) {
		if err := s.descend(second); err != nil {
			return err
		}
	} else {
		s.stats.PrunedByLength += countItems(second)
	}
	return nil
}

func (t *Tree) bound(n *node, q []float64, qNorm float64) float64 {
	return vec.Dot(q, n.centroid) + qNorm*n.radius
}

func countItems(n *node) int {
	if n == nil {
		return 0
	}
	if n.ids != nil {
		return len(n.ids)
	}
	return countItems(n.left) + countItems(n.right)
}

// Depth returns the height of the tree (leaves have depth 1); used by
// tests and diagnostics.
func (t *Tree) Depth() int { return depth(t.root) }

func depth(n *node) int {
	if n == nil {
		return 0
	}
	if n.ids != nil {
		return 1
	}
	l, r := depth(n.left), depth(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

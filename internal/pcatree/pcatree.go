// Package pcatree implements the approximate baseline of Bachrach et al.
// (RecSys 2014), compared against in Appendix B of the paper.
//
// Top-k inner product retrieval is first reduced to Euclidean k-NN by the
// order-preserving transformation of Theorem 3: each item p becomes
//
//	p̃ = (√(b²−‖p‖²), p₁, …, p_d),  b = max‖p‖,
//
// and a query becomes q̃ = (0, q₁, …, q_d), after which all p̃ share norm
// b and argmin‖q̃−p̃‖ = argmax qᵀp. A PCA tree then recursively splits the
// transformed items at the median of their projection onto the local top
// principal component. Search is "defeatist" with optional spill: the
// query descends to its leaf (following SpillNodes extra children near
// the split boundary) and only the visited candidates are ranked by true
// inner product — fast but approximate, which is exactly what Figure 13
// quantifies via RMSE@k.
package pcatree

import (
	"context"
	"math"
	"sort"

	"fexipro/internal/search"
	"fexipro/internal/svd"
	"fexipro/internal/topk"
	"fexipro/internal/vec"
)

// Options configures the PCA tree.
type Options struct {
	// LeafSize is the maximum candidates per leaf (default 64).
	LeafSize int
	// SpillNodes explores both sides of a split when the query projects
	// within this fraction of the projection spread from the median
	// (default 0 — pure defeatist descent).
	SpillFraction float64
}

// Tree is an approximate inner-product index. It is searched by Kernel
// (every shard descends the one tree) under engine.Engine.
type Tree struct {
	items *vec.Matrix // original items, for exact re-ranking
	ext   *vec.Matrix // (d+1)-dimensional transformed items
	root  *pnode
	opts  Options
}

type pnode struct {
	// internal
	direction []float64
	threshold float64 // median projection
	spread    float64 // projection spread, for spill decisions
	left      *pnode  // projections ≤ threshold
	right     *pnode
	// leaf
	ids []int
}

// New builds the index over items (rows are item vectors; not copied for
// the exact re-ranking view, so the caller must not mutate them).
func New(items *vec.Matrix, opts Options) *Tree {
	if opts.LeafSize <= 0 {
		opts.LeafSize = 64
	}
	t := &Tree{items: items, opts: opts}
	n, d := items.Rows, items.Cols
	if n == 0 {
		return t
	}

	// Theorem 3 reduction to Euclidean space.
	var b2 float64
	for i := 0; i < n; i++ {
		if ns := vec.NormSquared(items.Row(i)); ns > b2 {
			b2 = ns
		}
	}
	t.ext = vec.NewMatrix(n, d+1)
	for i := 0; i < n; i++ {
		src := items.Row(i)
		dst := t.ext.Row(i)
		dst[0] = math.Sqrt(math.Max(0, b2-vec.NormSquared(src)))
		copy(dst[1:], src)
	}

	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	t.root = t.build(ids, 0)
	return t
}

const maxPCADepth = 40

func (t *Tree) build(ids []int, depth int) *pnode {
	if len(ids) <= t.opts.LeafSize || depth >= maxPCADepth {
		return &pnode{ids: ids}
	}
	dir := t.topComponent(ids)
	if dir == nil {
		return &pnode{ids: ids}
	}
	proj := make([]float64, len(ids))
	for i, id := range ids {
		proj[i] = vec.Dot(dir, t.ext.Row(id))
	}
	sorted := append([]float64(nil), proj...)
	sort.Float64s(sorted)
	median := sorted[len(sorted)/2]
	spread := sorted[len(sorted)-1] - sorted[0]
	var left, right []int
	for i, id := range ids {
		if proj[i] <= median {
			left = append(left, id)
		} else {
			right = append(right, id)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return &pnode{ids: ids}
	}
	return &pnode{
		direction: dir,
		threshold: median,
		spread:    spread,
		left:      t.build(left, depth+1),
		right:     t.build(right, depth+1),
	}
}

// topComponent returns the dominant principal direction of the centered
// transformed vectors in ids, via the thin-SVD machinery (power-method
// free and deterministic). Returns nil when the subset has no variance.
func (t *Tree) topComponent(ids []int) []float64 {
	d := t.ext.Cols
	mean := make([]float64, d)
	for _, id := range ids {
		vec.Add(mean, t.ext.Row(id))
	}
	vec.Scale(mean, 1/float64(len(ids)))
	centered := vec.NewMatrix(len(ids), d)
	for i, id := range ids {
		row := centered.Row(i)
		copy(row, t.ext.Row(id))
		vec.Sub(row, mean)
	}
	thin, err := svd.Decompose(centered, 0)
	if err != nil || thin.Sigma[0] == 0 {
		return nil
	}
	dir := make([]float64, d)
	for r := 0; r < d; r++ {
		dir[r] = thin.U.At(r, 0)
	}
	return dir
}

// scanState carries one defeatist descent's per-query inputs and
// outputs; only candidates in the visited leaves are considered, which
// is what makes the method approximate. Unlike the
// exact trees, PCATree shards share ONE global tree: the descent path
// is threshold-independent (it depends only on the transformed query
// and the spill option), so every shard walks the same nodes and offers
// only the visited candidates whose IDs fall in its [loID, hiID) range.
// The union of offered candidates is therefore identical for every
// shard count, which keeps even this approximate method bit-identical
// across shard layouts (DESIGN.md §11).
type scanState struct {
	t          *Tree
	ctx        context.Context
	ext, q     []float64
	c          *topk.Collector
	shared     *search.SharedThreshold
	stats      *search.Stats
	loID, hiID int
}

func (s *scanState) descend(n *pnode) error {
	if done := s.ctx.Done(); done != nil && s.stats.NodesVisited&search.StrideMask == 0 {
		if err := search.Poll(s.ctx); err != nil {
			return err
		}
	}
	s.stats.NodesVisited++
	if n.ids != nil {
		for _, id := range n.ids {
			if id < s.loID || id >= s.hiID {
				continue // another shard's candidate
			}
			s.stats.Scanned++
			s.stats.FullProducts++
			if s.c.Push(id, vec.Dot(s.q, s.t.items.Row(id))) && s.c.Len() == s.c.K() {
				s.shared.Publish(s.c.Threshold())
			}
		}
		return nil
	}
	proj := vec.Dot(n.direction, s.ext)
	primary, secondary := n.left, n.right
	if proj > n.threshold {
		primary, secondary = n.right, n.left
	}
	if err := s.descend(primary); err != nil {
		return err
	}
	if s.t.opts.SpillFraction > 0 && n.spread > 0 &&
		math.Abs(proj-n.threshold) <= s.t.opts.SpillFraction*n.spread {
		if err := s.descend(secondary); err != nil {
			return err
		}
	}
	return nil
}

// RMSEAtK computes the paper's RMSE@k quality metric for an approximate
// searcher (an engine over this package's Kernel) against exact results: the root-mean-square difference between the
// scores of the approximate and the optimal recommendation lists
// (Appendix B, Comparison with PCATree).
func RMSEAtK(approximate, exact search.Searcher, queries *vec.Matrix, k int) float64 {
	if queries.Rows == 0 || k == 0 {
		return 0
	}
	var se float64
	var count int
	for i := 0; i < queries.Rows; i++ {
		q := queries.Row(i)
		approx := approximate.Search(q, k)
		opt := exact.Search(q, k)
		for s := 0; s < len(opt); s++ {
			var a float64
			if s < len(approx) {
				a = approx[s].Score
			}
			dv := a - opt[s].Score
			se += dv * dv
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return math.Sqrt(se / float64(count))
}

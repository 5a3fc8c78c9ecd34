package balltree

import (
	"context"
	"fmt"

	"fexipro/internal/engine"
	"fexipro/internal/search"
	"fexipro/internal/topk"
	"fexipro/internal/vec"
)

// Kernel adapts BallTree to engine.Kernel by building one independent
// tree per shard over a contiguous row range of the item matrix (a
// zero-copy vec.Matrix.Slice view). Shard trees have different shapes
// than the single global tree, so their bounds and visit orders differ —
// but every leaf score is the plain exact inner product against the
// original row, and the descent prunes strictly (bound < t), so a
// pruned item's score is strictly below the final global k-th score.
// The merged result is therefore the canonical top-k of the full item
// set for every shard count (DESIGN.md §11).
type Kernel struct {
	trees  []*Tree
	starts []int // starts[s] = global row offset of shard s's tree
	dim    int
}

// btQuery is the per-query state shared read-only by every shard scan.
type btQuery struct {
	q     []float64
	qNorm float64
}

// NewKernel partitions items into (at most) shards contiguous row
// ranges and builds one BallTree per range. leafSize ≤ 0 selects
// DefaultLeafSize.
func NewKernel(items *vec.Matrix, leafSize, shards int) *Kernel {
	part := engine.NewPartition(items.Rows, shards)
	k := &Kernel{
		trees:  make([]*Tree, part.Shards()),
		starts: make([]int, part.Shards()),
		dim:    items.Cols,
	}
	for s := 0; s < part.Shards(); s++ {
		lo, hi := part.Range(s)
		k.trees[s] = New(items.Slice(lo, hi), leafSize)
		k.starts[s] = lo
	}
	return k
}

// Shards implements engine.Kernel.
func (k *Kernel) Shards() int { return len(k.trees) }

// Prepare implements engine.Kernel.
func (k *Kernel) Prepare(q []float64, _ any) any {
	if len(q) != k.dim {
		panic(fmt.Sprintf("balltree: query dim %d != item dim %d", len(q), k.dim))
	}
	return &btQuery{q: q, qNorm: vec.Norm(q)}
}

// Scan implements engine.Kernel: one shard tree's branch-and-bound
// descent, offsetting leaf IDs back to global row indices. The poll
// index (stats.NodesVisited) is shard-local by construction.
func (k *Kernel) Scan(ctx context.Context, pq any, shard int, c *topk.Collector, shared *search.SharedThreshold) (search.Stats, error) {
	tr := k.trees[shard]
	qs := pq.(*btQuery)
	var st search.Stats
	if tr.root == nil || c.K() <= 0 {
		return st, nil
	}
	s := &scanState{
		t:      tr,
		ctx:    ctx,
		q:      qs.q,
		qNorm:  qs.qNorm,
		c:      c,
		shared: shared,
		stats:  &st,
		offset: k.starts[shard],
	}
	err := s.descend(tr.root)
	return st, err
}

var _ engine.Kernel = (*Kernel)(nil)

package pcatree

import (
	"context"
	"fmt"

	"fexipro/internal/engine"
	"fexipro/internal/faults"
	"fexipro/internal/search"
	"fexipro/internal/topk"
)

// Kernel adapts PCATree to engine.Kernel. All shards share ONE global
// tree (the defeatist descent is threshold-independent, so per-shard
// trees would change which candidates are even considered); each shard
// repeats the cheap descent and offers only the visited candidates
// whose IDs fall in its contiguous [lo, hi) range. The union of offered
// candidates — and hence the merged approximate top-k — is identical
// for every shard count (DESIGN.md §11).
type Kernel struct {
	t    *Tree
	part engine.Partition
}

// pcQuery is the per-query state shared read-only by every shard scan.
type pcQuery struct {
	ext, q []float64
}

// NewKernel partitions t's item IDs into (at most) shards contiguous
// ranges over the shared tree.
func NewKernel(t *Tree, shards int) *Kernel {
	return &Kernel{t: t, part: engine.NewPartition(t.items.Rows, shards)}
}

// Shards implements engine.Kernel.
func (k *Kernel) Shards() int { return k.part.Shards() }

// Prepare implements engine.Kernel: the Theorem 3 query lift
// q̃ = (0, q₁, …, q_d), computed once.
func (k *Kernel) Prepare(q []float64, _ any) any {
	if k.t.items.Rows > 0 && len(q) != k.t.items.Cols {
		panic(fmt.Sprintf("pcatree: query dim %d != item dim %d", len(q), k.t.items.Cols))
	}
	ext := make([]float64, len(q)+1)
	copy(ext[1:], q)
	return &pcQuery{ext: ext, q: q}
}

// Scan implements engine.Kernel: a full defeatist descent of the shared
// tree, filtered to the shard's ID range. Node-visit counts are
// shard-local, so Poll/fault indices start at zero per shard.
func (k *Kernel) Scan(ctx context.Context, pq any, shard int, c *topk.Collector, shared *search.SharedThreshold, hook *faults.Hook) (search.Stats, error) {
	qs := pq.(*pcQuery)
	var st search.Stats
	if k.t.root == nil || c.K() <= 0 {
		return st, nil
	}
	lo, hi := k.part.Range(shard)
	s := &scanState{
		t:      k.t,
		ctx:    ctx,
		ext:    qs.ext,
		q:      qs.q,
		c:      c,
		shared: shared,
		hook:   hook,
		stats:  &st,
		loID:   lo,
		hiID:   hi,
	}
	err := s.descend(k.t.root)
	return st, err
}

var _ engine.Kernel = (*Kernel)(nil)

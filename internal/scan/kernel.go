package scan

import (
	"context"

	"fexipro/internal/engine"
	"fexipro/internal/search"
	"fexipro/internal/topk"
)

// NaiveKernel adapts the Naive full scan to engine.Kernel: it
// partitions the rows into contiguous ranges, one per shard.
type NaiveKernel struct {
	n    *Naive
	part engine.Partition
}

// NewNaiveKernel partitions n's rows into (at most) shards contiguous
// ranges.
func NewNaiveKernel(n *Naive, shards int) *NaiveKernel {
	return &NaiveKernel{n: n, part: engine.NewPartition(n.items.Rows, shards)}
}

// Shards implements engine.Kernel.
func (k *NaiveKernel) Shards() int { return k.part.Shards() }

// Prepare implements engine.Kernel. Naive needs no derived query state.
func (k *NaiveKernel) Prepare(q []float64, _ any) any {
	if len(q) != k.n.items.Cols {
		panic("scan: query dim != item dim")
	}
	return q
}

// Scan implements engine.Kernel. Naive never prunes, so the shared
// threshold is unused.
func (k *NaiveKernel) Scan(ctx context.Context, pq any, shard int, c *topk.Collector, shared *search.SharedThreshold) (search.Stats, error) {
	lo, hi := k.part.Range(shard)
	var st search.Stats
	err := k.n.scanRange(ctx, pq.([]float64), lo, hi, c, &st)
	return st, err
}

var _ engine.Kernel = (*NaiveKernel)(nil)

package lemp

import (
	"context"

	"fexipro/internal/engine"
	"fexipro/internal/faults"
	"fexipro/internal/search"
	"fexipro/internal/topk"
)

// Kernel adapts a LEMP index to engine.Kernel: the norm-ordered buckets
// are partitioned into contiguous bucket ranges, one per shard. The
// buckets themselves (normalization, per-bucket w tuning, coord bounds)
// are built once over the full matrix, so per-item arithmetic is
// bit-identical regardless of shard count, and a contiguous bucket
// range preserves the descending-norm structure the bucket-level stop
// relies on.
type Kernel struct {
	idx  *Index
	part engine.Partition
}

// NewKernel partitions idx's buckets into (at most) shards contiguous
// ranges.
func NewKernel(idx *Index, shards int) *Kernel {
	return &Kernel{idx: idx, part: engine.NewPartition(len(idx.buckets), shards)}
}

// Shards implements engine.Kernel.
func (k *Kernel) Shards() int { return k.part.Shards() }

// Prepare implements engine.Kernel.
func (k *Kernel) Prepare(q []float64, _ any) any { return k.idx.prepareQuery(q) }

// Scan implements engine.Kernel: one contiguous bucket range of the
// LEMP scan, with strict pruning against the max of the local and
// shared thresholds.
func (k *Kernel) Scan(ctx context.Context, pq any, shard int, c *topk.Collector, shared *search.SharedThreshold, hook *faults.Hook) (search.Stats, error) {
	bLo, bHi := k.part.Range(shard)
	var st search.Stats
	err := k.idx.scanBuckets(ctx, hook, pq.(*lempQuery), bLo, bHi, c, shared, &st)
	return st, err
}

var _ engine.Kernel = (*Kernel)(nil)

package scan

import (
	"context"

	"fexipro/internal/engine"
	"fexipro/internal/faults"
	"fexipro/internal/search"
	"fexipro/internal/topk"
)

// This file adapts the sequential-scan baselines to engine.Kernel: each
// kernel wraps one globally-built searcher and partitions its
// (norm-sorted, where applicable) rows into contiguous ranges. The
// index build — sort order, checking dimension, tail norms, tuning —
// happens once over the full matrix, so per-item arithmetic is
// bit-identical regardless of shard count.

// NaiveKernel shards the Naive full scan.
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
func (k *NaiveKernel) Scan(ctx context.Context, pq any, shard int, c *topk.Collector, shared *search.SharedThreshold, hook *faults.Hook) (search.Stats, error) {
	lo, hi := k.part.Range(shard)
	var st search.Stats
	err := k.n.scanRange(ctx, hook, pq.([]float64), lo, hi, c, &st)
	return st, err
}

// SSLKernel shards the SS-L normalized scan: each shard owns a
// contiguous sub-range of the norm-sorted rows, so its Cauchy–Schwarz
// early termination stays valid within the shard.
type SSLKernel struct {
	s    *SSL
	part engine.Partition
}

// NewSSLKernel partitions s's sorted rows into (at most) shards
// contiguous ranges.
func NewSSLKernel(s *SSL, shards int) *SSLKernel {
	return &SSLKernel{s: s, part: engine.NewPartition(s.unit.Rows, shards)}
}

// Shards implements engine.Kernel.
func (k *SSLKernel) Shards() int { return k.part.Shards() }

// Prepare implements engine.Kernel.
func (k *SSLKernel) Prepare(q []float64, _ any) any { return k.s.prepareQuery(q) }

// Scan implements engine.Kernel.
func (k *SSLKernel) Scan(ctx context.Context, pq any, shard int, c *topk.Collector, shared *search.SharedThreshold, hook *faults.Hook) (search.Stats, error) {
	lo, hi := k.part.Range(shard)
	var st search.Stats
	err := k.s.scanRange(ctx, hook, pq.(*sslQuery), lo, hi, c, shared, &st)
	return st, err
}

var (
	_ engine.Kernel = (*NaiveKernel)(nil)
	_ engine.Kernel = (*SSLKernel)(nil)
)

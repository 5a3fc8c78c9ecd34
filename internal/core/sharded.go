package core

import (
	"context"
	"fmt"

	"fexipro/internal/engine"
	"fexipro/internal/faults"
	"fexipro/internal/search"
	"fexipro/internal/topk"
)

// Sharded adapts one globally-built Index to the engine.Kernel
// interface: the norm-sorted rows are partitioned into contiguous
// ranges and each shard runs Index.scanRange over its own range.
//
// The transform state (SVD basis, integer scaling, reduction constants,
// sort order, checking dimension w) is built ONCE over the full item
// matrix and shared read-only by every shard, so the per-item score
// arithmetic is bit-for-bit the same regardless of shard count — the
// foundation of the S-invariance guarantee. Partitioning only the SCAN
// keeps each shard a contiguous sub-range of the sorted order, so the
// sorted-scan length break stays valid within a shard.
type Sharded struct {
	idx  *Index
	part engine.Partition
}

// NewSharded partitions idx's sorted rows into (at most) shards
// contiguous ranges. shards < 1 is treated as 1.
func NewSharded(idx *Index, shards int) *Sharded {
	return &Sharded{idx: idx, part: engine.NewPartition(idx.n, shards)}
}

// Shards implements engine.Kernel.
func (s *Sharded) Shards() int { return s.part.Shards() }

// Prepare implements engine.Kernel: it computes the per-query state
// (transformed query, norms, integer floors, reduction constants) once;
// the returned *queryState is read-only during scans and therefore safe
// to share across concurrently scanning shards. The scratch buffers are
// the calling engine's previous ones when it has any, as a Retriever
// keeps its own.
func (s *Sharded) Prepare(q []float64, reuse any) any {
	if len(q) != s.idx.d {
		panic(fmt.Sprintf("core: query dim %d != item dim %d", len(q), s.idx.d))
	}
	qs, _ := reuse.(*queryState)
	if qs == nil {
		qs = s.idx.newQueryState()
	}
	s.idx.prepareQuery(q, qs)
	return qs
}

// Scan implements engine.Kernel: one shard's slice of Algorithm 4's
// sorted scan, with strict pruning against the max of the local and
// shared thresholds.
func (s *Sharded) Scan(ctx context.Context, pq any, shard int, c *topk.Collector, shared *search.SharedThreshold, hook *faults.Hook) (search.Stats, error) {
	qs := pq.(*queryState)
	lo, hi := s.part.Range(shard)
	var st search.Stats
	err := s.idx.scanRange(ctx, hook, qs, lo, hi, c, shared, &st)
	return st, err
}

var _ engine.Kernel = (*Sharded)(nil)

package core

import (
	"context"
	"fmt"

	"fexipro/internal/search"
	"fexipro/internal/topk"
	"fexipro/internal/vec"
)

// LiveScan answers exact top-k over a DynamicIndex's live catalog by
// exhaustive inner products, with no index and no transform — the
// "don't index" arm of the query planner's scan-vs-index choice
// (DESIGN.md §16). It reads the catalog (items + tombstones) directly,
// so it always sees the current state, shares the owning server's
// serialization, and costs nothing at mutation time: no delta buffer,
// no rebuild, no preprocessing.
//
// LiveScan shares the DynamicIndex's fault hook (SetFaultHook on the
// index covers both), polls ctx every search.CheckStride items, and on
// cancellation returns the best-so-far partial top-k with an
// ErrDeadline-wrapping error — the same contract as every other
// searcher.
type LiveScan struct {
	di    *DynamicIndex
	stats search.Stats
}

// NewLiveScan returns an exhaustive-scan searcher over di's live
// catalog. It holds no state beyond per-query counters; all catalog
// reads go through di, so callers must serialize it with di's
// mutations exactly as they serialize di's own searches.
func NewLiveScan(di *DynamicIndex) *LiveScan { return &LiveScan{di: di} }

// Search returns the exact top-k over the live catalog.
func (l *LiveScan) Search(q []float64, k int) []topk.Result {
	res, _ := l.SearchContext(context.Background(), q, k)
	return res
}

// SearchContext implements search.Searcher.
func (l *LiveScan) SearchContext(ctx context.Context, q []float64, k int) ([]topk.Result, error) {
	di := l.di
	if len(q) != di.d {
		panic(fmt.Sprintf("core: query dim %d != %d", len(q), di.d))
	}
	l.stats = search.Stats{}
	if k <= 0 {
		return nil, nil
	}
	c := topk.New(k)
	done := ctx.Done()
	hook := di.hook
	for id := 0; id < di.items.Rows; id++ {
		if hook != nil || (done != nil && id&search.StrideMask == 0) {
			if err := search.Poll(ctx, hook, id); err != nil {
				return c.Results(), err
			}
		}
		if di.dead.has(id) {
			continue
		}
		l.stats.Scanned++
		l.stats.FullProducts++
		c.Push(id, vec.Dot(q, di.items.Row(id)))
	}
	return c.Results(), nil
}

// Stats reports the counters of the most recent query (not cumulative).
func (l *LiveScan) Stats() search.Stats { return l.stats }

var _ search.Searcher = (*LiveScan)(nil)

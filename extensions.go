package fexipro

import (
	"context"
	"fmt"
	"math"
	"os"

	"fexipro/internal/core"
	"fexipro/internal/engine"
	"fexipro/internal/topk"
)

// SaveIndex writes the preprocessed index to path, so a later process
// can LoadIndex instead of repeating the O(n·d²) preprocessing.
func (f *FEXIPRO) SaveIndex(path string) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f.idx.Save(file); err != nil {
		_ = file.Close() // the write error is the one worth reporting
		return err
	}
	return file.Close()
}

// LoadIndex reads an index written by SaveIndex. The loaded searcher
// answers queries identically (same results, same pruning decisions) to
// the one that was saved.
func LoadIndex(path string) (*FEXIPRO, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	idx, err := core.ReadIndex(file)
	if err != nil {
		return nil, err
	}
	return newFEXIPRO(idx, 1, 1), nil
}

// SearchAbove returns every item whose inner product with q is at least
// t, sorted by descending score — the above-t retrieval mode (the
// original LEMP task, listed as future work in the FEXIPRO paper). The
// threshold comparison is subject to float64 rounding of the products
// (~1e-12 relative); thresholds exactly equal to an item's score are
// inherently knife-edge. A NaN or +Inf threshold returns nothing, -Inf
// every item. It is the same engine run as Search — the pruning cascade
// against a threshold that starts at t and stays there — so it honours
// Options.Shards and Workers, and SearchAboveContext counts into a
// WithStats sink as SearchContext does.
func (f *FEXIPRO) SearchAbove(q []float64, t float64) []Result {
	res, _ := f.SearchAboveContext(context.Background(), q, t)
	return res
}

// SearchAboveContext behaves like SearchAbove but honours ctx: on
// cancellation it returns the (sorted) items found so far with an
// ErrDeadline-wrapping error; the set may be missing qualifying items.
func (f *FEXIPRO) SearchAboveContext(ctx context.Context, q []float64, t float64) ([]Result, error) {
	res, err := f.eng.SearchAboveContext(ctx, q, t)
	return convertResults(res), err
}

// SearchAbove returns every item with qᵀp ≥ t using LEMP's bucketized
// scan (its native problem formulation).
func (l *LEMP) SearchAbove(q []float64, t float64) []Result {
	return convertResults(l.idx.SearchAbove(q, t))
}

// SearchAboveContext behaves like SearchAbove but honours ctx: on
// cancellation it returns the (sorted) items found so far with an
// ErrDeadline-wrapping error; the set may be missing qualifying items.
func (l *LEMP) SearchAboveContext(ctx context.Context, q []float64, t float64) ([]Result, error) {
	res, err := l.idx.SearchAboveContext(ctx, q, t)
	return convertResults(res), err
}

// AboveJoin answers the batch above-t task: for every query row, all
// items with product ≥ t.
func (l *LEMP) AboveJoin(queries *Matrix, t float64) [][]Result {
	return convertLists(l.idx.AboveJoin(queries.m, t))
}

// Dynamic is an exact top-k index over a mutable item catalog: a
// preprocessed FEXIPRO index plus a small delta buffer and tombstones,
// rebuilt automatically as changes accumulate. IDs returned by Search
// are stable catalog IDs (initial row indices, then Add's return
// values), and never resurrect deleted items.
//
// With Options.Shards > 1 the catalog is split into that many
// independently indexed shards (stable mapping id mod Shards): a single
// Add or Delete only ever rebuilds the one shard owning the item,
// cutting the amortized rebuild cost ~Shards×, and queries fan out
// across the shards through the sharded execution engine. Per-shard
// preprocessing means scores match the monolithic index to float
// tolerance rather than bitwise; they remain exact inner products.
type Dynamic struct {
	di *core.DynamicIndex
}

// NewDynamic starts a dynamic index from an initial catalog (it may have
// zero rows, but must have a positive column count). opts selects the
// FEXIPRO variant used for the indexed tier plus the shard/worker
// configuration.
func NewDynamic(initial *Matrix, opts Options) (*Dynamic, error) {
	copts, err := opts.internal()
	if err != nil {
		return nil, err
	}
	di, err := core.NewDynamicIndexSharded(initial.m, copts, 0, opts.Shards, opts.Workers)
	if err != nil {
		return nil, err
	}
	return &Dynamic{di: di}, nil
}

// Shards reports the number of independent catalog shards.
func (d *Dynamic) Shards() int { return d.di.Shards() }

// Add inserts an item, returning its stable catalog ID.
func (d *Dynamic) Add(item []float64) (int, error) { return d.di.Add(item) }

// Delete retires an item by catalog ID.
func (d *Dynamic) Delete(id int) error { return d.di.Delete(id) }

// Len returns the number of live items.
func (d *Dynamic) Len() int { return d.di.Len() }

// Search implements Searcher over the live catalog.
func (d *Dynamic) Search(q []float64, k int) []Result {
	return convertResults(d.di.Search(q, k))
}

// SearchContext implements Searcher: on cancellation it returns the
// best-so-far partial top-k and an ErrDeadline-wrapping error.
func (d *Dynamic) SearchContext(ctx context.Context, q []float64, k int) ([]Result, error) {
	res, err := d.di.SearchContext(ctx, q, k)
	return convertResults(res), err
}

// SearchAbove returns every live item with qᵀp ≥ t, sorted by
// descending score.
func (d *Dynamic) SearchAbove(q []float64, t float64) []Result {
	return convertResults(d.di.SearchAbove(q, t))
}

// SearchAboveContext behaves like SearchAbove but honours ctx,
// returning the sorted partial result set with an ErrDeadline-wrapping
// error on cancellation.
func (d *Dynamic) SearchAboveContext(ctx context.Context, q []float64, t float64) ([]Result, error) {
	res, err := d.di.SearchAboveContext(ctx, q, t)
	return convertResults(res), err
}

var _ Searcher = (*Dynamic)(nil)

// Pair is one (user, item) entry of an all-pairs top-k result.
type Pair struct {
	User, Item int
	Score      float64
}

// TopPairs returns the k largest inner products across ALL (user, item)
// pairs, exactly — the top-k All-pairs Inner Product problem of Ballard,
// Kolda, Pinar & Seshadhri (ICDM 2015), which the paper leaves as future
// work (its §9). It drives one F-SIR index over items (New with the zero
// Options) with a GLOBAL threshold: users are taken in decreasing norm
// order, so the global k-th product rises fast and the Cauchy–Schwarz
// test ‖u‖·max‖p‖ ends the loop early, and each remaining user is an
// above-t query against the current k-th product, which reuses the whole
// single-query pruning cascade. k ≤ 0 returns nothing.
func TopPairs(users, items *Matrix, k int) ([]Pair, error) {
	if users.Cols() != items.Cols() {
		return nil, fmt.Errorf("fexipro: TopPairs dim mismatch %d vs %d", users.Cols(), items.Cols())
	}
	if k <= 0 {
		return nil, nil
	}
	f, err := New(items, Options{})
	if err != nil {
		return nil, err
	}
	order, qNorms := engine.ByNormDesc(users.m)
	maxItemNorm := 0.0
	for _, n := range items.m.RowNorms() {
		maxItemNorm = max(maxItemNorm, n)
	}
	global := newPairHeap(k)
	for _, u := range order {
		t := global.inner.Threshold()
		if qNorms[u]*maxItemNorm <= t {
			break // no remaining user can contribute
		}
		for _, r := range f.SearchAbove(users.Row(u), nextAfter(t)) {
			global.push(Pair{User: u, Item: r.ID, Score: r.Score})
		}
	}
	return global.sorted(), nil
}

// nextAfter nudges the exclusive threshold t into an inclusive one for
// SearchAbove without re-admitting t itself.
func nextAfter(t float64) float64 {
	if math.IsInf(t, -1) {
		return t
	}
	return math.Nextafter(t, math.Inf(1))
}

// pairHeap is a bounded min-heap over Pair scores: a top-k collector over
// push-order IDs, and the pairs those IDs name. (Packing user and item
// into one collector ID would overflow int on 32-bit targets.)
type pairHeap struct {
	k     int
	inner *topk.Collector
	byID  map[int]Pair // collector IDs → pairs
	next  int
}

func newPairHeap(k int) *pairHeap {
	return &pairHeap{k: k, inner: topk.New(k), byID: make(map[int]Pair, k+1)}
}

func (h *pairHeap) push(p Pair) {
	id := h.next
	h.next++
	if h.inner.Push(id, p.Score) {
		h.byID[id] = p
		if len(h.byID) > 4*h.k {
			h.compact()
		}
	}
}

// compact drops evicted pairs from the side map.
func (h *pairHeap) compact() {
	live := make(map[int]Pair, h.k)
	for _, r := range h.inner.Results() {
		live[r.ID] = h.byID[r.ID]
	}
	h.byID = live
}

func (h *pairHeap) sorted() []Pair {
	res := h.inner.Results()
	out := make([]Pair, len(res))
	for i, r := range res {
		out[i] = h.byID[r.ID]
	}
	return out
}

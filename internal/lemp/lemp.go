// Package lemp implements the LEMP batch top-k inner-product join of
// Teflioudi, Gemulla & Mykytiuk (SIGMOD 2015) — the state-of-the-art
// batch baseline the paper compares against in Table 6 (LEMP-LI: length
// plus incremental pruning).
//
// Preprocessing sorts the item vectors by decreasing length and packs
// consecutive runs into buckets sized to stay cache-resident. Each bucket
// stores its normalized vectors and tunes its own checking dimension w on
// sample queries. A query q with current threshold t visits buckets in
// order, stops as soon as ‖q‖·maxnorm(bucket) ≤ t, and inside a bucket
// prunes candidates with the length test and the incremental cosine test
// before finishing any inner product.
package lemp

import (
	"context"
	"fmt"
	"math"
	"sync"

	"fexipro/internal/faults"
	"fexipro/internal/search"
	"fexipro/internal/topk"
	"fexipro/internal/vec"
)

// DefaultBucketSize keeps a bucket of 50-dimensional float64 vectors
// around 100 KiB — comfortably inside L2, the sizing rule LEMP uses.
const DefaultBucketSize = 256

// Options configures index construction.
type Options struct {
	// BucketSize is the number of vectors per bucket (default 256).
	BucketSize int
	// W fixes the checking dimension for every bucket; ≤ 0 tunes per
	// bucket on SampleQueries or falls back to d/5.
	W int
	// SampleQueries drives per-bucket w tuning when W ≤ 0.
	SampleQueries *vec.Matrix
	// Strategy selects the pruning family (default StrategyLI).
	Strategy Strategy
}

// Index is an immutable LEMP index. Single queries run through Kernel
// under engine.Engine; the index itself answers the batch joins
// (TopKJoinContext, AboveJoin) and the one-query above-t scan they are
// made of, all of them scanBuckets over every bucket — hook and stats
// below are theirs.
type Index struct {
	d        int
	strategy Strategy
	buckets  []bucket
	hook     *faults.Hook
	stats    search.Stats
}

// SetFaultHook installs (or, with nil, removes) the fault-injection hook
// called once per scanned item (with a global item counter that runs
// across bucket boundaries).
func (idx *Index) SetFaultHook(h *faults.Hook) { idx.hook = h }

type bucket struct {
	unit      *vec.Matrix // normalized vectors
	norms     []float64   // original lengths, descending
	ids       []int       // original item IDs
	w         int
	tailNorms []float64 // ‖p'^h‖ per vector at the bucket's w
	maxNorm   float64
	coord     *coordBounds // non-nil under StrategyCoord
}

// New builds the index over items (rows are item vectors; copied).
func New(items *vec.Matrix, opts Options) *Index {
	if opts.BucketSize <= 0 {
		opts.BucketSize = DefaultBucketSize
	}
	sorted, perm, norms := items.SortRowsByNormDesc()
	d := sorted.Cols

	idx := &Index{d: d, strategy: opts.Strategy}
	for start := 0; start < sorted.Rows; start += opts.BucketSize {
		end := start + opts.BucketSize
		if end > sorted.Rows {
			end = sorted.Rows
		}
		b := bucket{
			unit:  vec.NewMatrix(end-start, d),
			norms: make([]float64, end-start),
			ids:   make([]int, end-start),
		}
		for i := start; i < end; i++ {
			row := b.unit.Row(i - start)
			copy(row, sorted.Row(i))
			if norms[i] > 0 {
				vec.Scale(row, 1/norms[i])
			}
			b.norms[i-start] = norms[i]
			b.ids[i-start] = perm[i]
		}
		b.maxNorm = b.norms[0]
		if opts.Strategy == StrategyCoord {
			b.coord = buildCoordBounds(&b)
		}
		idx.buckets = append(idx.buckets, b)
	}

	for i := range idx.buckets {
		b := &idx.buckets[i]
		switch {
		case opts.W > 0:
			b.setW(min(opts.W, d))
		case opts.SampleQueries != nil && d > 1:
			b.tuneW(opts.SampleQueries)
		default:
			b.setW(defaultW(d))
		}
	}
	return idx
}

func defaultW(d int) int {
	w := d / 5
	if w < 1 {
		w = 1
	}
	if w >= d {
		w = d
	}
	return w
}

func (b *bucket) setW(w int) {
	d := b.unit.Cols
	b.w = w
	b.tailNorms = make([]float64, b.unit.Rows)
	for i := range b.tailNorms {
		b.tailNorms[i] = vec.NormRange(b.unit.Row(i), w, d)
	}
}

// tuneW picks the w minimizing the modeled scan cost on the samples: for
// each sample's unit vector, count dimensions that incremental pruning at
// w would touch against a mid-bucket threshold.
func (b *bucket) tuneW(samples *vec.Matrix) {
	d := b.unit.Cols
	candidates := []int{}
	for _, frac := range []int{10, 5, 3, 2} {
		w := d / frac
		if w < 1 {
			w = 1
		}
		if w >= d {
			w = d - 1
		}
		if len(candidates) == 0 || candidates[len(candidates)-1] != w {
			candidates = append(candidates, w)
		}
	}
	bestW, bestCost := candidates[0], math.Inf(1)
	for _, w := range candidates {
		b.setW(w)
		var cost float64
		for s := 0; s < samples.Rows; s++ {
			q := samples.Row(s)
			qn := vec.Norm(q)
			if qn == 0 {
				continue
			}
			qu := vec.Scaled(q, 1/qn)
			quTail := vec.NormRange(qu, w, d)
			// Model a moderately selective threshold: 60% of the best
			// possible product in this bucket.
			theta := 0.6
			for i := 0; i < b.unit.Rows; i++ {
				cost += float64(w)
				partial := vec.DotRange(qu, b.unit.Row(i), 0, w)
				if partial+quTail*b.tailNorms[i] > theta {
					cost += float64(d - w)
				}
			}
		}
		if cost < bestCost {
			bestCost, bestW = cost, w
		}
	}
	b.setW(bestW)
}

// lempQuery is the per-query state shared read-only across shard scans.
type lempQuery struct {
	qNorm float64
	qUnit []float64
	focus int
	qf    float64
	qRest float64
}

func (idx *Index) prepareQuery(q []float64) *lempQuery {
	if len(q) != idx.d {
		panic(fmt.Sprintf("lemp: query dim %d != item dim %d", len(q), idx.d))
	}
	qs := &lempQuery{qNorm: vec.Norm(q)}
	if qs.qNorm == 0 {
		return qs
	}
	qs.qUnit = vec.Scaled(q, 1/qs.qNorm)

	// Focus coordinate for the COORD candidate test.
	if idx.strategy == StrategyCoord {
		for j := 1; j < idx.d; j++ {
			if math.Abs(qs.qUnit[j]) > math.Abs(qs.qUnit[qs.focus]) {
				qs.focus = j
			}
		}
		qs.qf = qs.qUnit[qs.focus]
		qs.qRest = math.Sqrt(math.Max(0, 1-qs.qf*qs.qf))
	}
	return qs
}

// scanBuckets runs the bucket scan over buckets [bLo, bHi) into c, top-k
// or above-t as c was made — the whole index for one query of a batch
// join, a contiguous bucket range for one shard of the engine that
// answers single queries (kernel.go). Buckets hold consecutive runs of the
// norm-sorted items, so a contiguous bucket range preserves the sorted
// prefix structure and the bucket-level stop stays valid within the
// range. Pruning is STRICT against the max of the local and cross-shard
// thresholds; ctx is polled at SHARD-LOCAL item positions (counted from
// the start of the range, across bucket boundaries).
func (idx *Index) scanBuckets(ctx context.Context, hook *faults.Hook, qs *lempQuery, bLo, bHi int, c *topk.Collector, shared *search.SharedThreshold, stats *search.Stats) error {
	done := ctx.Done()
	pos := 0 // item counter across the range's buckets, for Poll indices
	if qs.qNorm == 0 {
		// Zero query: every item ties at 0. Offer the WHOLE range so the
		// canonical collector retains the same k IDs no matter how
		// buckets are split across shards.
		for bi := bLo; bi < bHi; bi++ {
			b := &idx.buckets[bi]
			for i := range b.ids {
				if hook != nil || (done != nil && pos&search.StrideMask == 0) {
					if err := search.Poll(ctx, hook, pos); err != nil {
						return err
					}
				}
				pos++
				c.Push(b.ids[i], 0)
			}
		}
		return nil
	}
	for bi := bLo; bi < bHi; bi++ {
		b := &idx.buckets[bi]
		t := shared.Floor(c.Threshold())
		bucketCap := qs.qNorm * b.maxNorm //fex:bound
		if bucketCap < t {
			for bj := bi; bj < bHi; bj++ {
				stats.PrunedByLength += len(idx.buckets[bj].ids)
			}
			return nil
		}
		// COORD: one O(d) bound may rule out the whole bucket without
		// stopping the scan (later buckets can still qualify).
		if b.coord != nil && !math.IsInf(t, -1) {
			cosUB := b.coord.cosUpperBound(qs.qUnit)
			if b.coord.bucketBound(qs.qNorm, b.maxNorm, cosUB) < t {
				stats.PrunedByIncremental += len(b.ids)
				pos += len(b.ids)
				continue
			}
		}
		if err := idx.scanBucket(ctx, hook, done, &pos, b, qs, c, shared, stats); err != nil {
			return err
		}
	}
	return nil
}

func (idx *Index) scanBucket(ctx context.Context, hook *faults.Hook, done <-chan struct{}, pos *int, b *bucket, qs *lempQuery, c *topk.Collector, shared *search.SharedThreshold, stats *search.Stats) error {
	d := idx.d
	w := b.w
	qTail := vec.NormRange(qs.qUnit, w, d)
	//fex:hot
	for i := 0; i < b.unit.Rows; i++ {
		if hook != nil || (done != nil && *pos&search.StrideMask == 0) {
			if err := search.Poll(ctx, hook, *pos); err != nil {
				return err
			}
		}
		*pos++
		t := shared.Floor(c.Threshold())
		lenBound := qs.qNorm * b.norms[i] //fex:bound
		if lenBound < t {
			stats.PrunedByLength += b.unit.Rows - i
			return nil
		}
		stats.Scanned++
		theta := math.Inf(-1)
		if !math.IsInf(t, -1) {
			theta = t / lenBound
		}
		row := b.unit.Row(i)
		if b.coord != nil {
			// LEMP-C focus-coordinate test: a single multiplication per
			// candidate before any partial dot product.
			pf := row[qs.focus]
			if qs.qf*pf+qs.qRest*math.Sqrt(math.Max(0, 1-pf*pf)) < theta {
				stats.PrunedByIncremental++
				continue
			}
		}
		var cos float64
		if w < d {
			cos = vec.DotRange(qs.qUnit, row, 0, w)
			if cos+qTail*b.tailNorms[i] < theta {
				stats.PrunedByIncremental++
				continue
			}
			cos += vec.DotRange(qs.qUnit, row, w, d)
		} else {
			cos = vec.Dot(qs.qUnit, row)
		}
		stats.FullProducts++
		v := cos * lenBound
		if c.Push(b.ids[i], v) && c.Len() == c.K() {
			shared.Publish(c.Threshold())
		}
	}
	return nil
}

// Stats returns the counters of the most recent TopKJoin, SearchAbove
// or AboveJoin call (for the joins, accumulated over the whole batch).
func (idx *Index) Stats() search.Stats { return idx.stats }

// TopKJoin answers the paper's batch task: the top-k list for every
// query row. Queries are processed in descending-norm order internally
// (LEMP's locality optimization) but results are returned in input order.
// It delegates to TopKJoinContext with a background context and one
// worker (the deterministic sequential order).
func (idx *Index) TopKJoin(queries *vec.Matrix, k int) [][]topk.Result {
	out, _ := idx.TopKJoinContext(context.Background(), queries, k, 1)
	return out
}

// TopKJoinContext is TopKJoin with cancellation and worker parallelism:
// queries are processed in descending-norm order, sharded across
// workers (≤ 0 or 1 means sequential), each worker accumulating its own
// stage counters over the shared read-only buckets. On cancellation it
// returns the batch completed so far — unprocessed queries have nil
// slots, the query cut short mid-scan keeps its true-inner-product
// partial — together with an ErrDeadline-wrapping error. Stats() after
// the call reports the counters accumulated over the whole batch.
func (idx *Index) TopKJoinContext(ctx context.Context, queries *vec.Matrix, k, workers int) ([][]topk.Result, error) {
	if queries.Cols != idx.d {
		panic(fmt.Sprintf("lemp: query dim %d != item dim %d", queries.Cols, idx.d))
	}
	out := make([][]topk.Result, queries.Rows)
	var mu sync.Mutex
	var acc search.Stats
	err := search.Batch(queries, workers, func(rows []int) error {
		var st search.Stats
		defer func() {
			mu.Lock()
			acc.Add(st)
			mu.Unlock()
		}()
		for _, qi := range rows {
			c := topk.New(k)
			err := idx.scanBuckets(ctx, idx.hook, idx.prepareQuery(queries.Row(qi)), 0, len(idx.buckets), c, nil, &st)
			out[qi] = c.Results()
			if err != nil {
				return err
			}
		}
		return nil
	})
	idx.stats = acc
	if err != nil {
		return out, search.Canceled(err)
	}
	return out, nil
}

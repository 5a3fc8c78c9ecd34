// Package lemp implements the LEMP batch top-k inner-product join of
// Teflioudi, Gemulla & Mykytiuk (SIGMOD 2015) — the state-of-the-art
// batch baseline the paper compares against in Table 6 (LEMP-LI: length
// plus incremental pruning) — and, as a configuration of the same index,
// the paper's SS-L baseline (NewSSL).
//
// Preprocessing sorts the item vectors by decreasing length and packs
// consecutive runs into buckets sized to stay cache-resident. Each bucket
// stores its normalized vectors and tunes its own checking dimension w on
// sample queries. A query q with current threshold t visits buckets in
// order, stops as soon as ‖q‖·maxnorm(bucket) ≤ t, and inside a bucket
// prunes candidates with the length test and the incremental cosine test
// before finishing any inner product. SS-L adds a focus-coordinate test
// per candidate and shares one measured w across all buckets.
package lemp

import (
	"context"
	"fmt"
	"math"

	"fexipro/internal/engine"
	"fexipro/internal/obs"
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
}

// Index is an immutable bucket index: LEMP-LI as New builds it, SS-L as
// NewSSL does. Single queries run through Kernel under engine.Engine;
// the index itself answers the batch joins (TopKJoinContext, AboveJoin)
// and the one-query above-t scan they are made of, all of them
// scanBuckets over every bucket, with the counters to their context's sink.
type Index struct {
	d       int
	focus   bool // SS-L: test the query's focus coordinate on every candidate
	buckets []bucket
}

type bucket struct {
	unit      *vec.Matrix // normalized vectors, a view of the index's one sorted matrix
	norms     []float64   // original lengths, descending
	ids       []int       // original item IDs
	w         int
	tailNorms []float64 // ‖p'^h‖ per vector at the bucket's w
	maxNorm   float64
}

// New builds the LEMP-LI index over items (rows are item vectors;
// copied). It panics when SampleQueries has another width than items.
func New(items *vec.Matrix, opts Options) *Index {
	if opts.BucketSize <= 0 {
		opts.BucketSize = DefaultBucketSize
	}
	idx := build(items, opts.SampleQueries, opts.BucketSize)
	d := idx.d
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

// NewSSL builds SS-L, the sequential scan with the LEMP optimizations
// that are effective for single-query retrieval (Section 7.1): the same
// buckets and scan as New, with the focus-coordinate test on every
// candidate and one checking dimension for every bucket, the candidate
// whose scan touches the fewest dimensions on samples (nil: d/5). It
// panics when samples has another width than items.
func NewSSL(items, samples *vec.Matrix) *Index {
	return newSSL(items, samples, DefaultBucketSize)
}

func newSSL(items, samples *vec.Matrix, bucketSize int) *Index {
	idx := build(items, samples, bucketSize)
	idx.focus = true
	w := defaultW(idx.d)
	if samples != nil && idx.d > 1 {
		w = idx.tuneW(samples)
	}
	idx.setW(w)
	return idx
}

// build sorts items by decreasing length, normalizes the sorted copy in
// place and cuts it into buckets of size rows, each a view of that one
// matrix. Checking dimensions are left to the caller.
func build(items, samples *vec.Matrix, size int) *Index {
	if samples != nil && samples.Cols != items.Cols {
		panic(fmt.Sprintf("lemp: query dim %d != item dim %d", samples.Cols, items.Cols))
	}
	unit, perm, norms := items.SortRowsByNormDesc()
	d := unit.Cols
	for i, n := range norms {
		if n > 0 {
			vec.Scale(unit.Row(i), 1/n)
		}
	}
	idx := &Index{d: d}
	for start := 0; start < unit.Rows; start += size {
		end := min(start+size, unit.Rows)
		idx.buckets = append(idx.buckets, bucket{
			unit:    &vec.Matrix{Rows: end - start, Cols: d, Data: unit.Data[start*d : end*d]},
			norms:   norms[start:end],
			ids:     perm[start:end],
			maxNorm: norms[start],
		})
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

// candidateWs lists the checking dimensions both tuners try for d > 1:
// d/10, d/5, d/3 and d/2 clamped to [1, d−1], repeats dropped.
func candidateWs(d int) []int {
	var ws []int
	for _, frac := range []int{10, 5, 3, 2} {
		w := max(1, min(d/frac, d-1))
		if len(ws) == 0 || ws[len(ws)-1] != w {
			ws = append(ws, w)
		}
	}
	return ws
}

func (idx *Index) setW(w int) {
	for i := range idx.buckets {
		idx.buckets[i].setW(w)
	}
}

func (b *bucket) setW(w int) {
	d := b.unit.Cols
	b.w = w
	b.tailNorms = make([]float64, b.unit.Rows)
	for i := range b.tailNorms {
		b.tailNorms[i] = vec.NormRange(b.unit.Row(i), w, d)
	}
}

// tuneW is SS-L's tuner: it scans every bucket for each sample at k = 10
// with each candidate w and returns the first w with the lowest measured
// cost, Scanned·w partial dimensions plus FullProducts·(d−w) to finish.
func (idx *Index) tuneW(samples *vec.Matrix) int {
	d := idx.d
	ws := candidateWs(d)
	bestW, bestCost := ws[0], math.Inf(1)
	for _, w := range ws {
		idx.setW(w)
		var cost float64
		for s := 0; s < samples.Rows; s++ {
			var st search.Stats
			// An uncancellable scan cannot fail.
			_ = idx.scanBuckets(context.Background(), idx.prepareQuery(samples.Row(s)), 0, len(idx.buckets), topk.New(10), nil, &st)
			cost += float64(st.Scanned*w + st.FullProducts*(d-w))
		}
		if cost < bestCost {
			bestCost, bestW = cost, w
		}
	}
	return bestW
}

// tuneW is LEMP's per-bucket tuner: it picks the w minimizing the
// modeled scan cost on the samples — for each sample's unit vector, the
// dimensions that incremental pruning at w would touch against a
// mid-bucket threshold.
func (b *bucket) tuneW(samples *vec.Matrix) {
	d := b.unit.Cols
	ws := candidateWs(d)
	bestW, bestCost := ws[0], math.Inf(1)
	for _, w := range ws {
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

	// Focus coordinate: the query's largest-magnitude unit coordinate.
	if idx.focus {
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
func (idx *Index) scanBuckets(ctx context.Context, qs *lempQuery, bLo, bHi int, c *topk.Collector, shared *search.SharedThreshold, stats *search.Stats) error {
	done := ctx.Done()
	pos := 0 // item counter across the range's buckets, for Poll indices
	if qs.qNorm == 0 {
		// Zero query: every item ties at 0. Offer the WHOLE range so the
		// canonical collector retains the same k IDs no matter how
		// buckets are split across shards; each row offered counts as
		// scanned and multiplied, as in scan.Naive.
		for bi := bLo; bi < bHi; bi++ {
			b := &idx.buckets[bi]
			for i := range b.ids {
				if done != nil && pos&search.StrideMask == 0 {
					if err := search.Poll(ctx); err != nil {
						return err
					}
				}
				pos++
				stats.Scanned++
				stats.FullProducts++
				c.Push(b.ids[i], 0)
			}
		}
		return nil
	}
	for bi := bLo; bi < bHi; bi++ {
		b := &idx.buckets[bi]
		t := shared.Floor(c.Threshold())
		bucketCap := qs.qNorm * b.maxNorm
		if bucketCap < t {
			for bj := bi; bj < bHi; bj++ {
				stats.PrunedByLength += len(idx.buckets[bj].ids)
			}
			return nil
		}
		if err := idx.scanBucket(ctx, done, &pos, b, qs, c, shared, stats); err != nil {
			return err
		}
	}
	return nil
}

func (idx *Index) scanBucket(ctx context.Context, done <-chan struct{}, pos *int, b *bucket, qs *lempQuery, c *topk.Collector, shared *search.SharedThreshold, stats *search.Stats) error {
	d := idx.d
	w := b.w
	qTail := vec.NormRange(qs.qUnit, w, d)
	//fex:hot
	for i := 0; i < b.unit.Rows; i++ {
		if done != nil && *pos&search.StrideMask == 0 {
			if err := search.Poll(ctx); err != nil {
				return err
			}
		}
		*pos++
		t := shared.Floor(c.Threshold())
		lenBound := qs.qNorm * b.norms[i]
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
		if idx.focus {
			// SS-L's focus-coordinate test: one multiplication per
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
// workers (≤ 0 or 1 means sequential), each worker counting into a sink
// of its own over the shared read-only buckets (engine.Batch adds them to
// ctx's). On cancellation it returns the batch completed so far —
// unprocessed queries have nil slots, the query cut short mid-scan keeps
// its true-inner-product partial — together with an ErrDeadline-wrapping
// error.
func (idx *Index) TopKJoinContext(ctx context.Context, queries *vec.Matrix, k, workers int) ([][]topk.Result, error) {
	if queries.Cols != idx.d {
		panic(fmt.Sprintf("lemp: query dim %d != item dim %d", queries.Cols, idx.d))
	}
	out := make([][]topk.Result, queries.Rows)
	err := engine.Batch(ctx, queries, workers, func(ctx context.Context, rows []int) (err error) {
		qv := obs.QueryFrom(ctx)
		var st search.Stats
		for _, qi := range rows {
			c := topk.New(k)
			err = idx.scanBuckets(ctx, idx.prepareQuery(queries.Row(qi)), 0, len(idx.buckets), c, nil, &st)
			out[qi] = c.Results()
			if err != nil {
				break
			}
		}
		qv.AddStats(st)
		return err
	})
	if err != nil {
		return out, search.Canceled(err)
	}
	return out, nil
}

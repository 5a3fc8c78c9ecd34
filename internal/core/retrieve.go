package core

import (
	"context"
	"fmt"
	"math"

	"fexipro/internal/obs"
	"fexipro/internal/search"
	"fexipro/internal/topk"
	"fexipro/internal/vec"
)

// Retriever executes queries against an Index (Algorithm 4) on the
// calling goroutine. Each Retriever owns scratch buffers and stats for
// one query at a time, so concurrent queries need separate Retrievers
// over the same shared Index.
//
// It is one of the two sequential searchers left beside engine.Engine
// (scan.Naive, the reference, is the other). Search in this repository,
// top-k and above-t, batch and all-pairs, is the engine over a kernel —
// Sharded for an Index. The type stays as the scan with no executor
// around it for two kinds of reader only: the frozen repository
// benchmark, which times SearchContext as its `core.retriever_us` rung and
// reads Stats, and core's tests, which use it as the blocked-scan
// reference. All query preparation and scanning lives on the Index as
// prepareQuery / scanRange, so this and the Sharded kernel run the same
// code.
type Retriever struct {
	idx   *Index
	stats search.Stats
	qs    *queryState
}

// NewRetriever returns a query executor for the index.
func NewRetriever(idx *Index) *Retriever {
	return &Retriever{idx: idx, qs: idx.newQueryState()}
}

// Stats is the last query's counters, kept for its one reader: the frozen benchmark/trace.go.
func (r *Retriever) Stats() search.Stats { return r.stats }

// queryState holds the per-query derived quantities of Algorithm 4
// lines 5–9 plus the scratch buffers they are computed into. It is
// written once per query by Index.prepareQuery and then read-only
// during the scan, so a single queryState may be shared by any number
// of concurrent scanRange calls over disjoint row ranges.
type queryState struct {
	// Scratch owned by this state (sized for the index it was created
	// for via Index.newQueryState).
	qbar  []float64
	head  vec.HeadTest // the integer head test: the index's head tables and the w head floors of ⌊q̂⌋
	qTail []int16      // the d−w tail floors, each in [−o, o−1]

	qNorm   float64 // ‖q‖ in the original space (used with the original ‖p‖ for Cauchy–Schwarz)
	barNorm float64 // ‖q̄‖ in the working space
	barTail float64 // ‖q̄^h‖ over coordinates w..d

	// Integer part.
	headFirst   bool // the cascade opens with the integer head test: variants with I, in the paper's SIR order
	qSumAbsTail int64
	headFactor  float64 // maxq^ℓ·maxP^ℓ/e², converts head IU to a bound on q̄^ℓᵀp̄^ℓ
	tailFactor  float64

	// Reduction part.
	redOK      bool
	invBarNorm float64 // 1/‖q̄‖
	headConstQ float64 // (2/‖q̄‖)·Σ_{s<w} c_s·q̄_s
	hhTailQ    float64 // ‖q̂̂^h‖ = 2·sqrt(Σ_{s≥w}(q̄_s/‖q̄‖+c_s)²)
	kq         float64 // affine offset of the threshold map t → t′

	// live is set after prepareQuery, by the dynamic index only; see offer.
	live liveView
}

// newQueryState allocates per-query scratch sized for this index.
func (idx *Index) newQueryState() *queryState {
	qs := &queryState{qbar: make([]float64, idx.d)}
	if id := idx.ints; id != nil {
		qs.head = id.head.NewTest(idx.barTail)
		qs.qTail = make([]int16, idx.d-idx.w)
	}
	return qs
}

// Search returns the exact top-k inner products of q with the indexed
// items (Algorithm 4). Scores are computed in the working space; with the
// SVD transformation enabled they equal the original inner products up to
// float64 rounding (Theorem 1).
func (r *Retriever) Search(q []float64, k int) []topk.Result {
	res, _ := r.SearchContext(context.Background(), q, k)
	return res
}

// SearchContext implements search.Searcher: the scan polls ctx
// every search.CheckStride items and returns the best-so-far partial
// top-k with an ErrDeadline-wrapping error on cancellation. It starts no
// spans: the traced query lifecycle (DESIGN.md §13) is the engine's.
func (r *Retriever) SearchContext(ctx context.Context, q []float64, k int) ([]topk.Result, error) {
	if len(q) != r.idx.d {
		panic(fmt.Sprintf("core: query dim %d != item dim %d", len(q), r.idx.d))
	}
	r.stats = search.Stats{}
	if k <= 0 {
		return nil, nil
	}
	c := topk.New(k)
	r.idx.prepareQuery(q, r.qs)
	err := r.idx.scanRange(ctx, r.qs, 0, r.idx.n, c, nil, &r.stats)
	obs.QueryFrom(ctx).AddStats(r.stats)
	return c.Results(), err
}

// scanRange runs Algorithm 4's scan loop over the sorted rows [lo, hi),
// offering survivors to c. It is the shared engine between the
// single-scan Retriever (lo=0, hi=n, shared=nil) and one shard of a
// Sharded kernel (a contiguous sub-range plus the cross-shard
// threshold). The range being contiguous in the norm-sorted order is
// what keeps the sorted-scan length break valid within a shard.
//
// Pruning is STRICT — a candidate is discarded only when its upper
// bound is strictly below the effective threshold — so together with
// the collector's canonical (score desc, ID asc) tie order, the set of
// surviving candidates is independent of how [0, n) is partitioned:
// anything pruned has score < t ≤ final k-th score and therefore ranks
// canonically below k retained items. shared, when non-nil, can only
// RAISE the effective threshold with published full-heap thresholds
// from other shards, which are themselves global lower bounds, so the
// argument is unchanged.
//
// ctx is polled on every shard's first row and then at least once per
// search.CheckStride rows it decides (SHARD-LOCAL rows, i−lo). On
// cancellation the error wraps search.ErrDeadline and c holds best-so-far
// results whose scores are true (working-space) inner products.
//
// The loop is chosen here, once per range, from the query alone:
// scanBlocked when the cascade opens with the integer head test,
// scanPerItem for the variants without it. A fault injected through ctx
// (faults.Hook.Context) fires on the polls of whichever loop runs.
func (idx *Index) scanRange(ctx context.Context, qs *queryState, lo, hi int, c *topk.Collector, shared *search.SharedThreshold, stats *search.Stats) error {
	if qs.headFirst {
		return idx.scanBlocked(ctx, qs, lo, hi, c, shared, stats)
	}
	return idx.scanPerItem(ctx, qs, lo, hi, c, shared, stats)
}

// scanPerItem is scanRange one candidate at a time, reading the live
// threshold for every row: the only loop of the variants whose cascade
// does not open with the integer head test (F, F-S, F-SR, SS as the
// registry builds it, the SRI ablation), scanBlocked's loop for the end of
// its range, and the reference scanBlocked is tested against, result for
// result and counter for counter.
func (idx *Index) scanPerItem(ctx context.Context, qs *queryState, lo, hi int, c *topk.Collector, shared *search.SharedThreshold, stats *search.Stats) error {
	slack := idx.opts.PruneSlack
	done := ctx.Done()
	//fex:hot
	for i := lo; i < hi; i++ {
		if done != nil && (i-lo)&search.StrideMask == 0 {
			if err := search.Poll(ctx); err != nil {
				return err
			}
		}
		t := shared.Floor(c.Threshold())
		lenBound := qs.qNorm * idx.norms[i]
		if lenBound < t {
			// Sorted by length: nothing later in this range can qualify
			// either.
			stats.PrunedByLength += hi - i
			return nil
		}
		stats.Scanned++
		if v, ok := idx.candidate(i, qs, t, slack, stats); ok {
			idx.offer(i, v, qs, c, shared)
		}
	}
	return nil
}

// offer hands sorted row i, a survivor of the whole cascade with exact
// product v, to the collector under its original row number — or, through
// a live view, under its catalog ID unless that is tombstoned, so the
// threshold every bound prunes against stays the k-th best LIVE score
// (DESIGN.md §11.4). The test sits here, outside the scan loops and a
// few dozen times per query; live.ids ascends, so the remap keeps the
// collector's canonical (score desc, ID asc) tie order. Once the heap is
// full an accepted row tightens the threshold: it is published for
// sibling shards and offer reports true — the only way a scan's
// threshold moves by its own doing.
func (idx *Index) offer(i int, v float64, qs *queryState, c *topk.Collector, shared *search.SharedThreshold) bool {
	id := idx.perm[i]
	if live := qs.live; live.dead != nil {
		id = live.ids[id]
		if live.dead.has(id) {
			return false
		}
	}
	if c.Push(id, v) && c.Len() == c.K() {
		shared.Publish(c.Threshold())
		return true
	}
	return false
}

// blockRows is the number of sorted rows in one block of the head layout;
// runRows is the most scanBlocked hands the kernel at once, the rows
// between two polls of the context.
const (
	blockRows = vec.HeadBlockRows
	runRows   = search.CheckStride
)

// pruneMargin is the float-rounding allowance every prune test against
// threshold t subtracts. The conversion rounds the product, so no
// architecture may fuse it into the subtraction that follows and the
// two scan loops see one value.
func pruneMargin(slack, t float64) float64 {
	return float64(slack * (math.Abs(t) + 1))
}

// scanBlocked is scanRange for the sorted indexes whose cascade opens
// with the integer head test (qs.headFirst), where nearly every scanned
// row dies: a loop over runs of blocks, one vec.HeadTest.Collect call per
// run (DESIGN.md §3). Blocks are blockRows rows on GLOBAL multiples of
// blockRows, whatever lo is. From the block of i, the next row to decide,
// it reads the live threshold once and takes as the RUN the largest of 64,
// 32, …, 1 blocks — cut at hi, at the index's last complete block and at
// the poll window — whose last row passes the length test: rows are sorted
// by norm and a float product is monotone in one factor, so every row of
// the run passes exactly when scanPerItem would say so. When not even one
// block's last row does, the sorted scan ends inside that block and
// scanPerItem finds where, as it finishes the index's final, partial block.
//
// Collect decides the run's head tests at the run's cut and hands back its
// survivors, row and IU^ℓ, up to a batch of vec.CollectLimit or more. The
// batch is decided in row order exactly as scanPerItem would decide it:
// survivors before i (a range or a restart that begins mid-block) and from
// the run's end on are dropped; the rows between survivors are counted in
// bulk, scanned and pruned at the head test; each survivor is re-tested
// from its IU^ℓ against the live cut, with the rounded expression the
// kernel lane uses, and continues with afterHead and offer. Only an offer
// moves the threshold by this scan's doing. After one that raises it the
// new threshold is read as the next run would read it; if its cut is not
// below the run's, every row the kernel pruned stays pruned, and if the
// run's last row still passes the length test at it, no later row of the
// run breaks the sorted scan, so the batch goes on at the new threshold.
// Otherwise — t − margin(t) is not monotone in t to the last ulp, and a
// NaN cut orders with nothing — the next run starts at the following row.
// Either way every row is decided against the threshold scanPerItem would
// have read for it, which makes results and every counter identical to
// that loop by construction, for any partition of the rows. A threshold
// published by a sibling shard is picked up at a raise or at the next run
// rather than the next row; any published value is a global lower bound,
// so that is exact too. The survivors' tail bounds (tailBound) do not
// depend on the threshold and are computed for the batch before any
// decision, their dots in one vec.DotTails call, so their cache misses
// overlap.
func (idx *Index) scanBlocked(ctx context.Context, qs *queryState, lo, hi int, c *topk.Collector, shared *search.SharedThreshold, stats *search.Stats) error {
	slack := idx.opts.PruneSlack
	limit := min(hi, idx.n&^(blockRows-1)) // the rows of [lo, hi) in complete blocks end here
	var batch vec.Survivors
	var dots [len(batch.Rows)]int32
	var tails [len(batch.Rows)]float64
	// 32 slots: a batch index k is k&mask, which needs no bounds check.
	const mask = len(batch.Rows) - 1
	i := lo      // the next row to decide
	window := lo // runs end at or before it; reaching it polls ctx and moves it on by runRows
	//fex:hot
	for i < limit {
		b := i &^ (blockRows - 1)
		if i >= window {
			if err := search.Poll(ctx); err != nil {
				return err
			}
			window = b + runRows
		}
		t := shared.Floor(c.Threshold())
		end := min(window, limit)
		var lenBound float64 // the length bound of the run's last row
		for rows := runRows; ; rows >>= 1 {
			lenBound = qs.qNorm * idx.norms[end-1]
			if !(lenBound < t) {
				break
			}
			if rows == blockRows { // the sorted scan ends inside block b
				return idx.scanPerItem(ctx, qs, i, hi, c, shared, stats)
			}
			end = min(b+rows>>1, end)
		}
		margin := pruneMargin(slack, t)
		cut := t - margin
		next, n := qs.head.Collect(b, end, cut, &batch)
		first := 0
		for first < n && int(batch.Rows[first&mask]) < i {
			first++
		}
		for n > first && int(batch.Rows[(n-1)&mask]) >= end {
			n--
		}
		if idx.w < idx.d && first < n {
			vec.DotTails(qs.qTail, idx.ints.tail, batch.Rows[first:n], dots[first:n])
			for k := first; k < n; k++ {
				tails[k&mask] = idx.tailBound(qs, int(batch.Rows[k&mask]), dots[k&mask])
			}
		}
		restart := false
		for k := first; k < n && !restart; k++ {
			row := int(batch.Rows[k&mask])
			hb := idx.headBound(qs, row, int64(batch.IU[k&mask]))
			stats.Scanned += row + 1 - i
			stats.PrunedByIntHead += row - i
			i = row + 1
			if hb.bHead+hb.ub1 < cut { // only after a raise
				stats.PrunedByIntHead++
				continue
			}
			v, ok := idx.afterHead(row, qs, t, margin, hb, tails[k&mask], stats)
			if !ok || !idx.offer(row, v, qs, c, shared) {
				continue
			}
			t = shared.Floor(c.Threshold())
			margin = pruneMargin(slack, t)
			restart = !(t-margin >= cut) || lenBound < t
			cut = t - margin
		}
		if !restart {
			stop := min(next, end)
			stats.Scanned += stop - i
			stats.PrunedByIntHead += stop - i
			i = stop
		}
	}
	return idx.scanPerItem(ctx, qs, i, hi, c, shared, stats)
}

// prepareQuery transforms q into the working space and precomputes every
// per-query constant used by the staged pruning tests, writing into qs.
func (idx *Index) prepareQuery(q []float64, qs *queryState) {
	scratch := *qs
	*qs = queryState{qbar: scratch.qbar, head: scratch.head, qTail: scratch.qTail}
	qs.qNorm = vec.Norm(q)

	if idx.thin != nil {
		idx.thin.TransformQueryInto(qs.qbar, q)
	} else {
		copy(qs.qbar, q)
	}
	qbar := qs.qbar
	qs.barNorm = vec.Norm(qbar)
	qs.barTail = vec.NormRange(qbar, idx.w, idx.d)

	if id := idx.ints; id != nil {
		qs.headFirst = !idx.ablation.ReductionFirst
		w := idx.w
		maxQHead := vec.AbsMaxRange(qbar, 0, w)
		maxQTail := vec.AbsMaxRange(qbar, w, idx.d)
		o := int32(id.lay.Offset())
		qHead := qs.head.Floors()
		var sumAbsHead int64
		for s, v := range qbar {
			var scaled float64
			if s < w {
				if maxQHead > 0 {
					scaled = id.e * v / maxQHead
				}
			} else {
				if maxQTail > 0 {
					scaled = id.e * v / maxQTail
				}
			}
			// A finite query's floors lie in [−o, o−1] for the same reason
			// the items' do. A non-finite one has no meaningful bound either
			// way, but its floors are whatever the platform converts NaN and
			// ±Inf to: clamped, IU stays inside the block kernel's lanes for
			// every input and both scan loops keep deciding alike.
			f := min(max(int32(math.Floor(scaled)), -o), o-1)
			if s < w {
				qHead[s] = int16(f)
				sumAbsHead += abs64(int64(f))
				continue
			}
			qs.qSumAbsTail += abs64(int64(f))
			qs.qTail[s-w] = int16(f)
		}
		qs.headFactor = maxQHead * id.headScale / id.e
		qs.head.SetQuery(int32(sumAbsHead), qs.headFactor, qs.barTail)
		qs.tailFactor = maxQTail * id.tailScale / id.e
	}

	if rd := idx.red; rd != nil && qs.barNorm > 0 {
		qs.redOK = true
		qs.invBarNorm = 1 / qs.barNorm
		var headCQ, tailSq, sumCQ float64
		for s, v := range qbar {
			u := v*qs.invBarNorm + rd.c[s]
			sumCQ += rd.c[s] * v
			if s < idx.w {
				headCQ += rd.c[s] * v
			} else {
				tailSq += u * u
			}
		}
		qs.headConstQ = 2 * headCQ * qs.invBarNorm
		qs.hhTailQ = 2 * math.Sqrt(tailSq)
		qs.kq = -rd.b*rd.b + rd.sumC2 + 2*sumCQ*qs.invBarNorm
	}
}

// candidate runs the whole cascade (Algorithm 5) for one row: first the
// head test that scanBlocked applies a run of blocks at a time through
// HeadTest.Collect, or coordinateScan alone for the indexes without one.
// It returns the exact working-space product and true, or (0, false) when
// the candidate was pruned. Every prune test is STRICT (`< t − margin`),
// matching scanRange's invariant that pruned items have score strictly
// below the threshold.
func (idx *Index) candidate(i int, qs *queryState, t, slack float64, stats *search.Stats) (float64, bool) {
	margin := pruneMargin(slack, t)
	if !qs.headFirst {
		ub1 := qs.barTail * idx.barTail[i]
		return idx.coordinateScan(i, qs, t, margin, ub1, stats)
	}
	hb := idx.headBound(qs, i, qs.head.RowIU(i))
	if hb.bHead+hb.ub1 < t-margin {
		stats.PrunedByIntHead++
		return 0, false
	}
	var bTail float64
	if idx.w < idx.d {
		bTail = idx.rowTailBound(qs, i)
	}
	return idx.afterHead(i, qs, t, margin, hb, bTail, stats)
}

// afterHead continues Algorithm 5 for a row that survived the integer
// head test (lines 2–4): the full integer bound (Eq. 3, lines 5–8), from
// bTail, the row's tailBound (unused when the head is the whole vector),
// then the float cascade.
func (idx *Index) afterHead(i int, qs *queryState, t, margin float64, hb headBound, bTail float64, stats *search.Stats) (float64, bool) {
	if idx.w < idx.d {
		if hb.bHead+bTail < t-margin {
			stats.PrunedByIntFull++
			return 0, false
		}
	}
	return idx.coordinateScan(i, qs, t, margin, hb.ub1, stats)
}

// coordinateScan is Algorithm 5 from line 9 on: the exact partial
// product with incremental pruning, the monotonicity reduction, and the
// full product. ub1 is the residual bound ‖q̄^h‖·‖p̄^h‖ of row i.
func (idx *Index) coordinateScan(i int, qs *queryState, t, margin, ub1 float64, stats *search.Stats) (float64, bool) {
	w, d := idx.w, idx.d
	qbar := qs.qbar
	row := idx.bar.Row(i)

	// Lines 9–13: exact partial product + Eq. 1 incremental pruning.
	if w >= d {
		stats.FullProducts++
		return vec.Dot(qbar, row), true
	}
	v := vec.DotRange(qbar, row, 0, w)
	if v+ub1 < t-margin {
		stats.PrunedByIncremental++
		return 0, false
	}

	// Lines 14–17: monotonicity-reduction pruning in the reduced space.
	// Every product is explicitly rounded, so no architecture may fuse
	// one into the add that follows: the test's bits are the same on all.
	if qs.redOK {
		rd := idx.red
		hhPartial := float64(2*v*qs.invBarNorm) + rd.headConstP[i] + qs.headConstQ
		ub2 := float64(qs.hhTailQ * rd.hhTail[i])
		if !math.IsInf(t, -1) {
			tPrime := float64(2*t*qs.invBarNorm) + qs.kq
			hhMargin := float64(idx.opts.PruneSlack * (math.Abs(tPrime) + 1))
			if hhPartial+ub2 < tPrime-hhMargin {
				stats.PrunedByMonotone++
				return 0, false
			}
		}
	}

	// SRI-order ablation: the integer bounds move behind the reduction,
	// where with the exact head v in hand only the tail one can still
	// avoid the remaining d−w multiplications.
	if idx.ablation.ReductionFirst && idx.ints != nil {
		if v+idx.rowTailBound(qs, i) < t-margin {
			stats.PrunedByIntFull++
			return 0, false
		}
	}

	// Lines 18–20: finish the exact product.
	stats.FullProducts++
	return v + vec.DotRange(qbar, row, w, d), true
}

// tailBound is the integer upper bound on the tail product q̄^hᵀp̄^h of
// row i (the tail half of Eq. 7) from dot, the row's vec.DotTails sum:
// IU^h = dot + Σ|g| + Σ|f| + (d−w), times the tail factor. The product is
// explicitly rounded, as headBound's are, so no architecture may fuse it
// into the add that follows, and the blocked and per-row scans, which both
// come here, agree bit for bit.
func (idx *Index) tailBound(qs *queryState, i int, dot int32) float64 {
	iu := int64(dot) + qs.qSumAbsTail + int64(idx.ints.sumAbsTail[i]) + int64(idx.d-idx.w)
	return float64(float64(iu) * qs.tailFactor)
}

// rowTailBound is tailBound of row i alone, through vec.DotTail.
func (idx *Index) rowTailBound(qs *queryState, i int) float64 {
	dt := idx.d - idx.w
	return idx.tailBound(qs, i, vec.DotTail(qs.qTail, idx.ints.tail[i*dt:][:dt]))
}

var _ search.Searcher = (*Retriever)(nil)

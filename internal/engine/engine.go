package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fexipro/internal/faults"
	"fexipro/internal/obs"
	"fexipro/internal/search"
	"fexipro/internal/topk"
)

// Kernel is the per-shard scan contract. A kernel owns a partitioned
// index (built once, read-only at query time) and knows how to scan one
// shard of it. The engine calls Prepare once per query and then Scan
// concurrently for distinct shards, so Scan must not mutate kernel
// state — all per-query scratch lives in the value returned by Prepare
// plus the per-shard collector the engine supplies.
type Kernel interface {
	// Shards returns the number of shards the kernel was built with.
	Shards() int

	// Prepare computes the per-query state shared READ-ONLY by every
	// shard scan (e.g. the SVD-transformed query, its norm, integer
	// floors). It must panic on dimension mismatch. The engine passes
	// the returned value to every Scan call for this query, from
	// multiple goroutines, without further synchronization. reuse is
	// what the calling engine's previous Prepare on this kernel
	// returned (nil on its first query): that query is over, so a
	// kernel may overwrite and return it instead of allocating — the
	// sequential scan's per-executor scratch, kept per engine so that
	// engines can still share one kernel.
	Prepare(q []float64, reuse any) any

	// Scan runs the shard's part of the query: it offers candidates to
	// c (a collector private to this shard) and may tighten its pruning
	// with shared.Floor / contribute via shared.Publish once c is full.
	// On cancellation it returns an ErrDeadline-wrapping error after
	// leaving c with best-so-far results whose scores are true inner
	// products. hook, when non-nil, is the fault-injection hook to pass
	// to search.Poll with SHARD-LOCAL item indices (so CancelAtItem
	// fires relative to each shard's own scan). The returned Stats
	// count only this shard's work; the engine aggregates.
	Scan(ctx context.Context, pq any, shard int, c *topk.Collector, shared *search.SharedThreshold, hook *faults.Hook) (search.Stats, error)
}

// Observer receives one callback per completed shard scan (successful
// or cancelled) with the shard index, its wall-clock scan time, and its
// per-shard stage counters. The engine invokes it from worker
// goroutines, possibly concurrently; implementations must be
// thread-safe (the obs registry's histograms are).
type Observer func(shard int, seconds float64, st search.Stats)

// Engine is the one searcher over a Kernel: it fans a single query out
// across the kernel's shards using a bounded worker pool, then merges
// the per-shard heaps into the exact canonical global answer — the top-k,
// or with SearchAboveContext everything scoring at least t, which is the
// same run into collectors made by topk.NewAbove. A registered method IS
// its kernel (internal/method has one factory per descriptor); the
// sequential form of every method is this engine over a one-shard
// kernel. It implements search.Searcher.
//
// Exactness across shard counts: every kernel in this repository offers
// an S-invariant candidate multiset (each shard's pruning is justified
// against a threshold no larger than the final global k-th score, and
// pruning is strict), and the canonical collector retains a pure
// function of the offered multiset — so S=1 and S>1 return bit-identical
// IDs, scores, and tie order. See DESIGN.md §11.
//
// Engine is not safe for concurrent Search calls on the same instance
// (it keeps per-query stats, like every other searcher here); use one
// Engine per querying goroutine over a shared Kernel.
type Engine struct {
	kern     Kernel
	workers  int
	observer Observer
	hook     *faults.Hook
	stats    search.Stats
	pq       any // the last query's prepared state, offered back to Prepare
}

// New returns an engine over kern answering each query with a pool of
// `workers` goroutines (clamped to the shard count; values < 1 mean
// GOMAXPROCS).
func New(kern Kernel, workers int) *Engine {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if s := kern.Shards(); workers > s {
		workers = s
	}
	return &Engine{kern: kern, workers: workers}
}

// SetObserver installs (or, with nil, removes) the per-shard scan
// observer.
func (e *Engine) SetObserver(o Observer) { e.observer = o }

// SetFaultHook installs (or, with nil, removes) the fault-injection
// hook passed to every shard scan. The hook's atomics make it safe to
// share across concurrently scanning shards; CancelAtItem semantics
// are shard-local (the first shard to pass that many items cancels the
// query).
func (e *Engine) SetFaultHook(h *faults.Hook) { e.hook = h }

// Workers returns the effective worker-pool size.
func (e *Engine) Workers() int { return e.workers }

// Search implements search.Searcher.
func (e *Engine) Search(q []float64, k int) []topk.Result {
	res, _ := e.SearchContext(context.Background(), q, k)
	return res
}

// shardOut is one shard's contribution, filled in by a worker.
type shardOut struct {
	res      []topk.Result
	st       search.Stats
	err      error
	panicked any // what the shard's scan panicked with, if it did
}

// SearchContext implements search.Searcher. On cancellation it merges
// whatever every shard had collected when it stopped and returns the
// canonical best-so-far partial top-k alongside an ErrDeadline-wrapping
// error; all returned scores remain true inner products because each
// kernel maintains that invariant per shard. k ≤ 0 is a defined answer
// at every shard count: after Prepare's dimension check, no results and
// zero Stats.
func (e *Engine) SearchContext(ctx context.Context, q []float64, k int) ([]topk.Result, error) {
	if k <= 0 {
		e.stats = search.Stats{}
		e.pq = e.kern.Prepare(q, e.pq)
		return nil, nil
	}
	return e.run(ctx, q, topk.New(k))
}

// SearchAboveContext returns every item whose inner product with q is at
// least t, sorted by descending score — the paper's above-t task (its §9;
// the original LEMP problem) — under SearchContext's contract and on the
// same run: the threshold every kernel prunes against is constant, so its
// strict-prune argument holds verbatim, no shard ever publishes (a
// collector that cannot fill never raises anything), and the merge is the
// sorted union. A NaN or +Inf threshold returns nothing, -Inf every item
// the kernel offers (topk.NewAbove).
func (e *Engine) SearchAboveContext(ctx context.Context, q []float64, t float64) ([]topk.Result, error) {
	return e.run(ctx, q, topk.NewAbove(t))
}

// run answers one query into c, the empty collector that says what the
// answer is: the one shard's own, or the merge target of per-shard
// collectors made like it (c.Fresh).
//
// A panic in a shard scan reaches the caller: pool workers recover it,
// the remaining shards finish, and the lowest panicking shard's value
// is re-raised on the calling goroutine — where a server's recover
// middleware can answer it — instead of killing the process from a
// goroutine nobody can guard.
//
// When ctx carries an obs span (tracing enabled for this query), the
// engine attaches the query-lifecycle tree under it: one "transform"
// child around Prepare, one "scan" child whose own children are the
// per-shard scans (annotated with shard, worker, queue wait, steal
// provenance, and stage counters), and one "merge" child around the
// canonical merge. With no span in ctx every call below is a nil no-op
// (DESIGN.md §13), so the untraced path costs one context lookup.
func (e *Engine) run(ctx context.Context, q []float64, c *topk.Collector) ([]topk.Result, error) {
	e.stats = search.Stats{}
	sp := obs.SpanFrom(ctx)
	tsp := sp.StartChild("transform")
	pq := e.kern.Prepare(q, e.pq)
	e.pq = pq
	tsp.End()
	shards := e.kern.Shards()

	scanSp := sp.StartChild("scan")
	if scanSp != nil {
		scanSp.AttrInt("shards", int64(shards))
		scanSp.AttrInt("workers", int64(e.workers))
	}
	if shards == 1 {
		// One shard: the query is the merge of one list, so the shard's
		// collector IS the canonical result and nothing is shared — a
		// nil SharedThreshold is its documented single-shard form (Floor
		// returns the local threshold, which is all a lone shard's own
		// publishes could ever raise it to), and there is no outs slice
		// or second collector. Results and counters equal the general
		// route's; the sequential form of every method pays this path.
		var out shardOut
		e.runShard(ctx, pq, 0, c, nil, &out, scanSp, 0)
		scanSp.End()
		if msp := sp.StartChild("merge"); msp != nil {
			msp.AttrInt("candidates", int64(len(out.res)))
			msp.End()
		}
		e.stats = out.st
		if out.err != nil {
			return out.res, search.Canceled(out.err)
		}
		return out.res, nil
	}

	outs := make([]shardOut, shards)
	shared := &search.SharedThreshold{}
	if e.workers <= 1 {
		// Sequential path: no goroutines, no atomic traffic beyond the
		// shared-threshold loads the kernels do anyway, and a panicking
		// scan unwinds the caller directly.
		// A cancelled shard means ctx is done; later shards return
		// promptly via their entry Poll, each recording a deterministic
		// (possibly empty) partial, so the loop never breaks early.
		for s := 0; s < shards; s++ {
			e.runShard(ctx, pq, s, c.Fresh(), shared, &outs[s], scanSp, 0)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(e.workers)
		for w := 0; w < e.workers; w++ {
			go func(w int) {
				defer wg.Done()
				for {
					s := int(next.Add(1)) - 1
					if s >= shards {
						return
					}
					e.runShardRecovering(ctx, pq, s, c.Fresh(), shared, &outs[s], scanSp, w)
				}
			}(w)
		}
		wg.Wait()
		for s := range outs {
			if p := outs[s].panicked; p != nil {
				panic(p) // lowest shard's panic, deterministic
			}
		}
	}
	scanSp.End()

	// Merge: push every shard's retained results into c. The collector's
	// total order (score desc, ID asc) makes the merged set independent
	// of push order, so no cross-shard ordering discipline is needed
	// here.
	msp := sp.StartChild("merge")
	var firstErr error
	candidates := 0
	for s := 0; s < shards; s++ {
		o := &outs[s]
		e.stats.Add(o.st)
		candidates += len(o.res)
		// This push loop is bounded by the shards' retained results
		// (O(shards·k) for top-k), not the catalog size — cancellation
		// already happened inside the shard scans, so a poll here would
		// only delay the merge.
		//lint:ignore ctxpoll bounded merge of the results the cancellable shard scans retained
		for _, r := range o.res { //fex:hot
			c.Push(r.ID, r.Score)
		}
		if o.err != nil && firstErr == nil {
			firstErr = o.err // lowest shard's error, deterministic
		}
	}
	if msp != nil {
		msp.AttrInt("candidates", int64(candidates))
		msp.End()
	}
	if firstErr != nil {
		return c.Results(), search.Canceled(firstErr)
	}
	return c.Results(), nil
}

// runShardRecovering is runShard on a pool worker: a panicking scan is
// parked in out for SearchContext to re-raise on the calling goroutine.
func (e *Engine) runShardRecovering(ctx context.Context, pq any, s int, c *topk.Collector, shared *search.SharedThreshold, out *shardOut, scanSp *obs.Span, worker int) {
	defer func() {
		if p := recover(); p != nil {
			out.panicked = p
		}
	}()
	e.runShard(ctx, pq, s, c, shared, out, scanSp, worker)
}

// runShard executes one shard scan into c and records its output, stats
// and error into out. When the query is traced (scanSp is non-nil) it opens
// one child span per shard under the scan span: the queueWaitMicros
// attribute is how long the shard sat in the pool's queue before a
// worker picked it up (time since the scan span started), and stolen
// marks shards taken beyond the pool's initial distribution (shard
// index ≥ worker count) — together the "where did the microseconds go"
// signal for partition skew and pool sizing. The clock is read only
// when an observer or a span asks for the scan's wall time.
func (e *Engine) runShard(ctx context.Context, pq any, s int, c *topk.Collector, shared *search.SharedThreshold, out *shardOut, scanSp *obs.Span, worker int) {
	var ssp *obs.Span
	if scanSp != nil {
		wait := time.Since(scanSp.Start())
		ssp = scanSp.StartChild("shard")
		ssp.AttrInt("shard", int64(s))
		ssp.AttrInt("worker", int64(worker))
		ssp.AttrInt("queueWaitMicros", wait.Microseconds())
		if s >= e.workers {
			ssp.AttrInt("stolen", 1)
		}
	}
	var start time.Time
	if e.observer != nil {
		start = time.Now()
	}
	st, err := e.kern.Scan(ctx, pq, s, c, shared, e.hook)
	var secs float64
	if e.observer != nil {
		secs = time.Since(start).Seconds()
	}
	if ssp != nil {
		ssp.AttrInt("scanned", int64(st.Scanned))
		ssp.AttrInt("pruned", int64(st.TotalPruned()))
		ssp.AttrInt("fullProducts", int64(st.FullProducts))
		if err != nil {
			ssp.AttrStr("error", err.Error())
		}
		ssp.End()
	}
	out.res = c.Results()
	out.st = st
	out.err = err
	if e.observer != nil {
		e.observer(s, secs, st)
	}
}

// Stats implements search.Searcher: the sum of every shard's stage
// counters for the most recent query.
func (e *Engine) Stats() search.Stats { return e.stats }

var _ search.Searcher = (*Engine)(nil)

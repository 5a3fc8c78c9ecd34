package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"fexipro/internal/engine"
	"fexipro/internal/faults"
	"fexipro/internal/obs"
	"fexipro/internal/search"
	"fexipro/internal/topk"
	"fexipro/internal/vec"
)

// DynamicIndex serves exact top-k retrieval over an item catalog that
// changes online — the deployment reality (new items arrive, items are
// retired) that a preprocessed index must absorb.
//
// The catalog is split into S shards by the stable mapping
// shard(id) = id mod S, and each shard is an independent two-tier
// structure: a preprocessed FEXIPRO index over the bulk of the shard's
// items, a small unindexed delta buffer scanned exhaustively, and
// tombstones for deletions. When a shard's pending changes exceed
// RebuildFraction of ITS indexed size, only that shard is rebuilt — an
// Add or Delete never pays for more than 1/S of the catalog, dropping
// the amortized rebuild cost by ~S× versus a monolithic index. Queries
// fan out across the shards through the sharded execution engine
// (DESIGN.md §11) and merge into the exact canonical global top-k.
//
// Unlike the static sharded kernels, per-shard preprocessing means each
// shard applies its OWN SVD/scaling transform, so scores agree with a
// monolithic index to within float tolerance but are not bit-comparable
// across shard counts. Results are still exact: every returned score is
// the item's verified inner product.
type DynamicIndex struct {
	opts    Options
	d       int
	rebuild float64

	items     *vec.Matrix // full catalog in insertion order (live + dead); Add appends in place
	dead      tombstones  // every ID ever deleted, including those already compacted out of a main index
	deadCount int         // total live→dead transitions ever

	shards []*dynShard
	eng    *engine.Engine // every query, top-k and above-t; its Stats are this index's
}

// dynShard is one shard's two-tier state: its preprocessed main index
// over the shard's bulk, the delta buffer of not-yet-indexed additions,
// and the count of deletions hitting the current main since its build.
type dynShard struct {
	main       *Index
	mainIDs    []int // catalog IDs covered by main (ascending; positions = index rows)
	delta      []int // catalog IDs not yet in main; their vectors are the catalog rows
	deadInMain int   // tombstones among mainIDs: counts toward the rebuild trigger, nothing else
	rebuilds   int   // number of times this shard's main index has been built
}

// tombstones is the set of deleted catalog IDs, one bit per ID, grown
// when a bit is set: an ID past the last deletion tests false.
type tombstones struct{ words []uint64 }

func (t *tombstones) has(id int) bool {
	w := id >> 6
	return w < len(t.words) && t.words[w]&(1<<(id&63)) != 0
}

func (t *tombstones) set(id int) {
	w := id >> 6
	if w >= len(t.words) {
		t.words = append(t.words, make([]uint64, w+1-len(t.words))...)
	}
	t.words[w] |= 1 << (id & 63)
}

// clear takes back a set(id).
func (t *tombstones) clear(id int) { t.words[id>>6] &^= 1 << (id & 63) }

// appendIDs appends the deleted IDs to dst in ascending order.
func (t *tombstones) appendIDs(dst []int) []int {
	for w, word := range t.words {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, w<<6+bits.TrailingZeros64(word))
		}
	}
	return dst
}

// liveView lets a shard's static main index answer for a catalog that
// has moved on since its build: ids maps the index's original rows to
// stable catalog IDs (the shard's mainIDs), dead is the catalog's
// tombstone set. Only Index.offer consults it.
type liveView struct {
	ids  []int
	dead *tombstones
}

// DefaultRebuildFraction triggers a rebuild when a shard's pending
// changes exceed 20% of its indexed items.
const DefaultRebuildFraction = 0.2

// NewDynamicIndex starts a single-shard dynamic index from an initial
// catalog (may be empty: pass a 0×d matrix). rebuildFraction ≤ 0
// selects the default.
func NewDynamicIndex(initial *vec.Matrix, opts Options, rebuildFraction float64) (*DynamicIndex, error) {
	return NewDynamicIndexSharded(initial, opts, rebuildFraction, 1, 1)
}

// NewDynamicIndexSharded starts a dynamic index with `shards`
// independent catalog shards (values < 1 mean 1) queried through a pool
// of `workers` goroutines (clamped like engine.New). More shards cut
// the amortized rebuild cost of Add/Delete by ~shards×; single-item
// updates only ever rebuild the one shard that owns the item.
func NewDynamicIndexSharded(initial *vec.Matrix, opts Options, rebuildFraction float64, shards, workers int) (*DynamicIndex, error) {
	if initial.Cols <= 0 {
		return nil, fmt.Errorf("core: dynamic index needs a positive dimension, got %d", initial.Cols)
	}
	if rebuildFraction <= 0 {
		rebuildFraction = DefaultRebuildFraction
	}
	if shards < 1 {
		shards = 1
	}
	di := &DynamicIndex{
		opts:    opts.withDefaults(),
		d:       initial.Cols,
		rebuild: rebuildFraction,
		items:   initial.Clone(),
		shards:  make([]*dynShard, shards),
	}
	for s := range di.shards {
		di.shards[s] = &dynShard{}
	}
	di.eng = engine.New(&dynKernel{di: di}, workers)
	for s, sh := range di.shards {
		sh.mainIDs = make([]int, 0, (initial.Rows-s+shards-1)/shards)
		for id := s; id < initial.Rows; id += shards {
			sh.mainIDs = append(sh.mainIDs, id)
		}
	}
	if err := di.deriveMains(context.Background()); err != nil {
		return nil, err
	}
	for _, sh := range di.shards {
		if sh.main != nil {
			sh.rebuilds = 1
		}
	}
	return di, nil
}

// Len returns the number of live items.
func (di *DynamicIndex) Len() int { return di.items.Rows - di.deadCount }

// Shards returns the number of catalog shards.
func (di *DynamicIndex) Shards() int { return len(di.shards) }

// Rebuilds returns, per shard, how many times that shard's main index
// has been built (including the initial build). The sum across shards
// measures total rebuild work: with S shards a stream of updates
// triggers ~the same TOTAL number of rebuilds, but each one costs only
// ~1/S of a monolithic rebuild.
func (di *DynamicIndex) Rebuilds() []int {
	out := make([]int, len(di.shards))
	for s, sh := range di.shards {
		out[s] = sh.rebuilds
	}
	return out
}

// shardOf returns the shard owning catalog ID id (stable mapping).
func (di *DynamicIndex) shardOf(id int) *dynShard { return di.shards[id%len(di.shards)] }

// Add inserts an item and returns its stable catalog ID. Only the
// owning shard (id mod Shards) absorbs the update or rebuilds.
func (di *DynamicIndex) Add(item []float64) (int, error) {
	return di.AddContext(context.Background(), item)
}

// AddContext behaves like Add: one row appended to the catalog's backing
// array and one ID to the owning shard's delta buffer, O(d) amortized
// (about a microsecond at d = 50 whatever the catalog holds). When ctx
// carries an obs span the owning shard's rebuild, if this update
// triggers one (0.15–0.2 s at n = 10⁵, d = 50; EXPERIMENTS.md), is
// timed as a "rebuild" child span. An item with a non-finite coordinate
// or squared norm is refused with an ErrNotFinite-wrapping error, a
// good item whose triggered rebuild fails with an ErrRebuild-wrapping
// one; after any error the index is exactly as it was before the call.
func (di *DynamicIndex) AddContext(ctx context.Context, item []float64) (int, error) {
	if len(item) != di.d {
		return 0, fmt.Errorf("core: item dim %d != %d", len(item), di.d)
	}
	if err := checkItem(item, "item"); err != nil {
		return 0, err
	}
	id := di.items.Rows
	di.items.Data = append(di.items.Data, item...)
	di.items.Rows++
	sh := di.shardOf(id)
	sh.delta = append(sh.delta, id)
	if err := di.maybeRebuild(ctx, id%len(di.shards)); err != nil {
		// rebuildShard changed nothing; take the row back out.
		sh.delta = sh.delta[:len(sh.delta)-1]
		di.items.Rows--
		di.items.Data = di.items.Data[:id*di.d]
		return 0, err
	}
	return id, nil
}

// Delete retires an item by catalog ID. Deleting an unknown or already
// deleted ID is an error. Only the owning shard can be rebuilt.
func (di *DynamicIndex) Delete(id int) error {
	return di.DeleteContext(context.Background(), id)
}

// DeleteContext behaves like Delete with AddContext's span and error
// semantics.
func (di *DynamicIndex) DeleteContext(ctx context.Context, id int) error {
	if id < 0 || id >= di.items.Rows {
		return fmt.Errorf("core: delete of unknown item %d", id)
	}
	if di.dead.has(id) {
		return fmt.Errorf("core: item %d already deleted", id)
	}
	di.dead.set(id)
	di.deadCount++
	sh := di.shardOf(id)
	_, inMain := slices.BinarySearch(sh.mainIDs, id)
	if inMain {
		sh.deadInMain++
	}
	if err := di.maybeRebuild(ctx, id%len(di.shards)); err != nil {
		// As in AddContext: the failed rebuild changed nothing, and the
		// item stays live.
		di.dead.clear(id)
		di.deadCount--
		if inMain {
			sh.deadInMain--
		}
		return err
	}
	return nil
}

// ErrRebuild is wrapped by the error of an Add or Delete whose vector or
// ID was fine but whose shard rebuild failed — in practice a shard of
// individually finite items whose Σ‖p‖² overflows float64 (each ‖p‖² near
// 1e308), or one holding an item ≳ 10¹³ × the rest (ErrIllConditioned).
// The update is rolled back, and every later update that would rebuild
// that shard fails the same way until the offending items are deleted
// (from the delta buffer, which triggers no rebuild); the message carries
// NewIndex's own error. LoadSnapshot wraps it too, when the catalog it
// read cannot be indexed.
var ErrRebuild = errors.New("shard rebuild failed")

// maybeRebuild rebuilds shard s when its pending changes exceed the
// rebuild fraction of its own indexed size.
func (di *DynamicIndex) maybeRebuild(ctx context.Context, s int) error {
	sh := di.shards[s]
	mainSize := len(sh.mainIDs)
	pending := len(sh.delta) + sh.deadInMain
	if mainSize == 0 || float64(pending) > di.rebuild*float64(mainSize) {
		return di.rebuildShard(ctx, s)
	}
	return nil
}

// rebuildShard folds shard s's delta and drops its tombstones into a
// fresh preprocessed index over only that shard's live items. A traced
// mutation (span in ctx) gets a "rebuild" child annotated with the
// shard, its live size, and the pending work that was folded in.
func (di *DynamicIndex) rebuildShard(ctx context.Context, s int) error {
	sh := di.shards[s]
	_, rsp := obs.StartSpan(ctx, "rebuild")
	if rsp != nil {
		rsp.AttrInt("shard", int64(s))
		rsp.AttrInt("deltaFolded", int64(len(sh.delta)))
		rsp.AttrInt("tombstonesDropped", int64(sh.deadInMain))
		defer rsp.End()
	}
	S := len(di.shards)
	live := make([]int, 0, (di.items.Rows+S-1)/S)
	for id := s; id < di.items.Rows; id += S {
		if !di.dead.has(id) {
			live = append(live, id)
		}
	}
	rsp.AttrInt("items", int64(len(live)))
	if len(live) == 0 {
		*sh = dynShard{rebuilds: sh.rebuilds}
		return nil
	}
	// The shard changes only once the build has succeeded: a failed one
	// leaves delta and tombstone counts — and so every search — as they were.
	idx, err := di.buildMain(s, live)
	if err != nil {
		return err
	}
	*sh = dynShard{main: idx, mainIDs: live, rebuilds: sh.rebuilds + 1}
	return nil
}

// buildMain preprocesses shard s's main index: NewIndex over the catalog
// rows at ids, in that order. Every main index comes to exist through this
// one call — the initial build, a rebuild, and LoadSnapshot re-deriving a
// checkpointed shard from its stored mainIDs — and NewIndex is a pure
// function of (rows, Options) at any GOMAXPROCS (DESIGN.md §17), so the
// recovered shard is the checkpointed one byte for byte. The error wraps
// ErrRebuild.
func (di *DynamicIndex) buildMain(s int, ids []int) (*Index, error) {
	rows := vec.NewMatrix(len(ids), di.d)
	for r, id := range ids {
		copy(rows.Row(r), di.items.Row(id))
	}
	idx, err := NewIndex(rows, di.opts)
	if err != nil {
		// %v, not %w: whatever NewIndex objects to is the stored catalog's
		// doing, not the vector of the update that happened to trigger this.
		return nil, fmt.Errorf("core: shard %d (%d items) cannot be rebuilt: %v: %w", s, len(ids), err, ErrRebuild)
	}
	return idx, nil
}

// deriveMains gives every shard the main index its mainIDs call for
// (none for an empty list): buildMain for each, adopted once all have
// succeeded. A span in ctx gets one "index.rebuild" child per built
// shard. Shards whose build spreads over the cores by itself
// (vec.ForRows) are built one after another; when every shard is too
// small for that, GOMAXPROCS of them are built at a time (S = 32 at
// n = 10⁵ on two cores: NewDynamicIndexSharded 0.44–0.66 → 0.23–0.36 s,
// recovery 0.76–0.98 → 0.41–0.64 s; BenchmarkCheckpointRecover). Which
// goroutine builds a shard leaves no trace in it.
func (di *DynamicIndex) deriveMains(ctx context.Context) error {
	atOnce := runtime.GOMAXPROCS(0)
	for _, sh := range di.shards {
		if vec.RowWorkers(len(sh.mainIDs)) > 1 {
			atOnce = 1
		}
	}
	mains := make([]*Index, len(di.shards))
	errs := make([]error, len(di.shards))
	slots := make(chan struct{}, atOnce)
	var wg sync.WaitGroup
	for s, sh := range di.shards {
		if len(sh.mainIDs) == 0 {
			continue
		}
		slots <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-slots; wg.Done() }()
			_, sp := obs.StartSpan(ctx, "index.rebuild")
			sp.AttrInt("shard", int64(s))
			sp.AttrInt("rows", int64(len(sh.mainIDs)))
			mains[s], errs[s] = di.buildMain(s, sh.mainIDs)
			sp.End()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err // the lowest failing shard's, whatever the schedule
		}
	}
	for s, sh := range di.shards {
		sh.main = mains[s]
	}
	return nil
}

// SetFaultHook installs (or, with nil, removes) the fault-injection hook
// called once per scanned item in both the delta buffers and the main
// indexes (shard-locally); it lives on the engine, so it survives rebuilds.
func (di *DynamicIndex) SetFaultHook(h *faults.Hook) { di.eng.SetFaultHook(h) }

// SetShardObserver installs (or, with nil, removes) the engine's
// per-shard scan observer — one callback per completed shard scan with
// the shard index, its wall time, and its stage counters. Serving
// layers use it to expose per-shard latency (obs.ShardScanObserver).
func (di *DynamicIndex) SetShardObserver(o engine.Observer) { di.eng.SetObserver(o) }

// dynKernel routes DynamicIndex queries through the sharded execution
// engine: each shard scan covers one catalog shard's delta buffer and
// its main index, both offering only live items under stable catalog
// IDs.
type dynKernel struct {
	di *DynamicIndex
}

// dynQuery is the per-query state: the raw query for delta dots, plus
// one prepared FEXIPRO query state per shard with a main index (each
// shard's transform differs, so the states are per-shard).
type dynQuery struct {
	q      []float64
	shards []dynShardQuery
}

// dynShardQuery is one shard's prepared state and the index whose
// newQueryState sized it; state is nil while the shard has no main.
type dynShardQuery struct {
	main  *Index
	state *queryState
}

// Shards implements engine.Kernel.
func (k *dynKernel) Shards() int { return len(k.di.shards) }

// Prepare implements engine.Kernel. The engine's previous dynQuery is
// overwritten in place, as Sharded.Prepare reuses its queryState; a
// shard's scratch is kept only while it was made for the shard's current
// main index — a rebuild installs a new *Index, so a state sized for the
// old transform is never prepared against the new one. (Until the next
// query replaces it, that state is what keeps a rebuilt-away index
// reachable.)
func (k *dynKernel) Prepare(q []float64, reuse any) any {
	if len(q) != k.di.d {
		panic(fmt.Sprintf("core: query dim %d != %d", len(q), k.di.d))
	}
	dq, _ := reuse.(*dynQuery)
	if dq == nil {
		dq = &dynQuery{shards: make([]dynShardQuery, len(k.di.shards))}
	}
	dq.q = q
	for s, sh := range k.di.shards {
		sq := &dq.shards[s]
		if sh.main == nil {
			*sq = dynShardQuery{}
			continue
		}
		if sq.main != sh.main {
			*sq = dynShardQuery{main: sh.main, state: sh.main.newQueryState()}
		}
		sh.main.prepareQuery(q, sq.state)
		sq.state.live = liveView{ids: sh.mainIDs, dead: &k.di.dead}
	}
	return dq
}

// Scan implements engine.Kernel: shard s's delta buffer exhaustively,
// then its main index through the shard's live view, both into the same
// collector. Every item c retains is live, so c.Threshold() is a lower
// bound on the global k-th score however many tombstones the shard holds
// (above-t: the constant t), and the main scan publishes to and prunes
// against the engine's shared threshold. Poll/fault indices are
// shard-local.
func (k *dynKernel) Scan(ctx context.Context, pq any, shard int, c *topk.Collector, shared *search.SharedThreshold, hook *faults.Hook) (search.Stats, error) {
	sh := k.di.shards[shard]
	dq := pq.(*dynQuery)
	var st search.Stats
	err := k.di.scanDelta(ctx, hook, sh, dq.q, c, shared, &st)
	if err == nil && sh.main != nil {
		err = sh.main.scanRange(ctx, hook, dq.shards[shard].state, 0, sh.main.n, c, shared, &st)
	}
	return st, err
}

// scanDelta offers c the exact product of q with every live item of sh's
// delta buffer; the vectors are the catalog's rows.
func (di *DynamicIndex) scanDelta(ctx context.Context, hook *faults.Hook, sh *dynShard, q []float64, c *topk.Collector, shared *search.SharedThreshold, st *search.Stats) error {
	done := ctx.Done()
	for pos, id := range sh.delta {
		if hook != nil || (done != nil && pos&search.StrideMask == 0) {
			if err := search.Poll(ctx, hook, pos); err != nil {
				return err
			}
		}
		if di.dead.has(id) {
			continue
		}
		st.Scanned++
		st.FullProducts++
		if c.Push(id, vec.Dot(q, di.items.Row(id))) && c.Len() == c.K() {
			shared.Publish(c.Threshold())
		}
	}
	return nil
}

var _ engine.Kernel = (*dynKernel)(nil)

// Search returns the exact top-k over the live catalog; IDs are the
// stable catalog IDs returned by Add (or initial row indices).
func (di *DynamicIndex) Search(q []float64, k int) []topk.Result {
	res, _ := di.SearchContext(context.Background(), q, k)
	return res
}

// SearchContext implements search.Searcher: all shards (delta
// buffers and main indexes) poll ctx and a cancellation merges every
// shard's best-so-far into a partial top-k returned with an
// ErrDeadline-wrapping error.
func (di *DynamicIndex) SearchContext(ctx context.Context, q []float64, k int) ([]topk.Result, error) {
	// The engine owns the contract: dynKernel.Prepare panics on a
	// dimension mismatch, and k ≤ 0 is no results and zero counters.
	return di.eng.SearchContext(ctx, q, k)
}

// SearchAbove returns every live item with qᵀp ≥ t, sorted by descending
// score.
func (di *DynamicIndex) SearchAbove(q []float64, t float64) []topk.Result {
	res, _ := di.SearchAboveContext(context.Background(), q, t)
	return res
}

// SearchAboveContext behaves like SearchAbove but honours ctx in every
// shard, returning the sorted partial result set with an
// ErrDeadline-wrapping error on cancellation. It is the engine's run of
// SearchContext into fixed-threshold collectors: the same delta scan,
// live view and shard fan-out.
func (di *DynamicIndex) SearchAboveContext(ctx context.Context, q []float64, t float64) ([]topk.Result, error) {
	return di.eng.SearchAboveContext(ctx, q, t)
}

// Stats implements search.Searcher with the same per-query semantics as
// Retriever.Stats(): the counters cover ONLY the most recent
// Search/SearchContext/SearchAbove/SearchAboveContext call (they are
// reset at the start of each query and are NOT cumulative across
// queries). For sharded instances the counters are the sum over every
// shard's delta and main scans for that one query.
func (di *DynamicIndex) Stats() search.Stats { return di.eng.Stats() }

var _ search.Searcher = (*DynamicIndex)(nil)

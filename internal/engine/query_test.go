package engine_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"fexipro/internal/core"
	"fexipro/internal/engine"
	"fexipro/internal/faults"
	"fexipro/internal/lemp"
	"fexipro/internal/method"
	"fexipro/internal/obs"
	"fexipro/internal/search"
	"fexipro/internal/searchtest"
	"fexipro/internal/topk"
	"fexipro/internal/vec"
)

// countingCtx counts the Value lookups made through it.
type countingCtx struct {
	context.Context
	values atomic.Int64
}

func (c *countingCtx) Value(key any) any {
	c.values.Add(1)
	return c.Context.Value(key)
}

// TestOneContextLookupPerQuery: an untraced, uncounted query — top-k or
// above-t, at one shard and at three on a pool of three workers — reads
// its context's values exactly once, for obs.Query, on every registered
// method.
func TestOneContextLookupPerQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	items, q := searchtest.RandomInstance(rng, 300, 12)
	for _, name := range method.Names() {
		for _, shards := range []int{1, 3} {
			e, err := method.Sharded(name, items, method.BuildOptions{}, shards, shards)
			if err != nil {
				t.Fatalf("%s S=%d: %v", name, shards, err)
			}
			for _, mode := range []string{"top-k", "above-t"} {
				ctx := &countingCtx{Context: context.Background()}
				if mode == "top-k" {
					_, err = e.SearchContext(ctx, q, 10)
				} else {
					_, err = e.SearchAboveContext(ctx, q, 0.5)
				}
				if err != nil {
					t.Fatalf("%s S=%d %s: %v", name, shards, mode, err)
				}
				if n := ctx.values.Load(); n != 1 {
					t.Fatalf("%s S=%d %s: %d ctx.Value lookups, want 1", name, shards, mode, n)
				}
			}
		}
	}
}

// TestStartSpanKeepsSinkAndHook: a context derived by obs.StartSpan — a
// rebuild's, a snapshot load's — carries the child span with the
// parent's sink, and stays a context derived from the parent, so a search
// under it counts into the parent's sink, polls the fault hook the parent
// was made by (faults.Hook.Context) and hangs its stages under the child.
func TestStartSpanKeepsSinkAndHook(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	items, q := searchtest.RandomInstance(rng, 200, 8)
	e, err := method.Sharded("F-SIR", items, method.BuildOptions{}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	var st search.Stats
	hook := faults.NewRegistry(1).Enable(faults.SiteScan, faults.Plan{})
	root := obs.NewRoot("boot")
	ctx, sp := obs.StartSpan(obs.WithQuery(hook.Context(context.Background()), obs.Query{Span: root, Stats: &st}), "snapshot.load")
	if got := obs.QueryFrom(ctx); sp == nil || got != (obs.Query{Span: sp, Stats: &st}) {
		t.Fatalf("derived query %+v, want the child %p with the parent's sink", got, sp)
	}
	if _, err := e.SearchContext(ctx, q, 5); err != nil {
		t.Fatal(err)
	}
	sp.End()
	root.End()
	if st == (search.Stats{}) || hook.Counts().Items == 0 {
		t.Fatalf("search under the derived context: sink %+v, hook saw %d polls", st, hook.Counts().Items)
	}
	var names []string
	for _, c := range sp.Children() {
		names = append(names, c.Name())
	}
	if kids := root.Children(); len(kids) != 1 || kids[0] != sp || fmt.Sprint(names) != "[transform scan merge]" {
		t.Fatalf("span tree: root has %d children, the derived span's are %v", len(kids), names)
	}
}

// TestBatchChunkKeepsSpanAndHook: every chunk of engine.Batch runs under
// the caller's span and under a context derived from the caller's, so its
// polls reach the caller's fault hook; concurrent chunks count into sinks
// of their own, and the caller's sink ends up with every chunk's counters.
func TestBatchChunkKeepsSpanAndHook(t *testing.T) {
	queries := vec.FromRows([][]float64{{1}, {3}, {0}, {3}, {2}, {5}, {-4}})
	for _, workers := range []int{1, 3} {
		var sink search.Stats
		root := obs.NewRoot("batch")
		hook := faults.NewRegistry(1).Enable(faults.SiteScan, faults.Plan{})
		ctx := obs.WithQuery(hook.Context(context.Background()), obs.Query{Span: root, Stats: &sink})
		var chunks atomic.Int64
		err := engine.Batch(ctx, queries, workers, func(ctx context.Context, rows []int) error {
			chunks.Add(1)
			q := obs.QueryFrom(ctx)
			if q.Span != root || q.Stats == nil || (workers > 1) == (q.Stats == &sink) {
				t.Errorf("workers=%d: chunk %v runs under %+v", workers, rows, q)
			}
			q.AddStats(search.Stats{Scanned: len(rows)})
			return search.Poll(ctx)
		})
		if err != nil || sink.Scanned != queries.Rows {
			t.Fatalf("workers=%d: %v, the sink counts %d rows, want %d", workers, err, sink.Scanned, queries.Rows)
		}
		if polls := hook.Counts().Items; polls != chunks.Load() {
			t.Fatalf("workers=%d: the hook saw %d polls from %d chunks", workers, polls, chunks.Load())
		}
	}
}

// TestBatchCancellation holds the two batch calls, core.BatchTopKContext
// and lemp.Index.TopKJoinContext, to the cancellation contract under a
// CancelAtItem hook's context, at one worker and at three: a batch the
// hook cut short never returns a nil error, every list — a partial one
// too — holds true inner products in descending order, a hook that never
// fires leaves the answer identical to the baseline, and some trial cuts
// the batch short after it has answered queries. The cancel points spread
// over the polls an unfaulted batch makes.
func TestBatchCancellation(t *testing.T) {
	const seed, k = 20261017, 10
	rng := rand.New(rand.NewSource(seed))
	items, _ := searchtest.RandomInstance(rng, 400, 16)
	queries, _ := searchtest.RandomInstance(rng, 9, 16)
	idx, err := core.NewIndex(items, core.Options{SVD: true, Int: true, Reduction: true})
	if err != nil {
		t.Fatal(err)
	}
	lidx := lemp.New(items, lemp.Options{})
	for _, b := range []struct {
		name  string
		batch func(ctx context.Context, workers int) ([][]topk.Result, error)
	}{
		{"core.BatchTopKContext", func(ctx context.Context, workers int) ([][]topk.Result, error) {
			return core.BatchTopKContext(ctx, idx, queries, k, workers)
		}},
		{"lemp.TopKJoinContext", func(ctx context.Context, workers int) ([][]topk.Result, error) {
			return lidx.TopKJoinContext(ctx, queries, k, workers)
		}},
	} {
		batch := b.batch
		for _, workers := range []int{1, 3} {
			label := fmt.Sprintf("%s workers=%d", b.name, workers)
			base, err := batch(context.Background(), workers)
			if err != nil {
				t.Fatalf("%s: uncancelled batch: %v", label, err)
			}
			probe := faults.NewRegistry(seed).Enable(faults.SiteScan, faults.Plan{})
			if got, err := batch(probe.Context(context.Background()), workers); err != nil || !reflect.DeepEqual(got, base) {
				t.Fatalf("%s: under a fault-free hook: %v, answer differs from the baseline", label, err)
			}
			polls := int(probe.Counts().Items)
			partial := 0
			for trial := 0; trial < 25; trial++ {
				cancelAt := 1 + trial*(polls+1)/25
				hook := faults.NewRegistry(seed+int64(trial)).Enable(faults.SiteScan, faults.Plan{CancelAtItem: cancelAt})
				got, err := batch(hook.Context(context.Background()), workers)
				if hook.Counts().Cancels > 0 {
					if !errors.Is(err, search.ErrDeadline) {
						t.Fatalf("%s: cancel at %d fired, err = %v, want ErrDeadline", label, cancelAt, err)
					}
					if slices.ContainsFunc(got, func(res []topk.Result) bool { return len(res) > 0 }) {
						partial++
					}
				} else if err != nil || !reflect.DeepEqual(got, base) {
					t.Fatalf("%s: unfired cancel at %d: %v, answer differs from the baseline", label, cancelAt, err)
				}
				for qi, res := range got {
					for i, r := range res {
						want := vec.Dot(queries.Row(qi), items.Row(r.ID))
						if math.Abs(want-r.Score) > searchtest.Tolerance*(1+math.Abs(want)) || i > 0 && res[i-1].Score < r.Score {
							t.Fatalf("%s: cancel at %d: query %d rank %d %+v, true product %v", label, cancelAt, qi, i, r, want)
						}
					}
				}
			}
			if partial == 0 {
				t.Fatalf("%s: no trial cut the batch short after it had answered a query (%d polls unfaulted)", label, polls)
			}
		}
	}
}

package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"fexipro/internal/faults"
	"fexipro/internal/obs"
	"fexipro/internal/search"
	"fexipro/internal/topk"
	"fexipro/internal/vec"
)

// dotKernel is a minimal exact kernel over a raw matrix: each shard
// naively dots its contiguous row range. It exercises the engine's
// fan-out, merge, shared-threshold, stats-aggregation, and cancellation
// plumbing without any FEXIPRO transform machinery. It polls a
// cancellable context on every row, so a fault injected through the
// context (faults.Hook.Context) lands at the row its poll ordinal names.
type dotKernel struct {
	items *vec.Matrix
	part  Partition
}

func newDotKernel(items *vec.Matrix, shards int) *dotKernel {
	return &dotKernel{items: items, part: NewPartition(items.Rows, shards)}
}

func (dk *dotKernel) Shards() int { return dk.part.Shards() }

func (dk *dotKernel) Prepare(q []float64, _ any) any {
	if len(q) != dk.items.Cols {
		panic("dotKernel: dimension mismatch")
	}
	return q
}

func (dk *dotKernel) Scan(ctx context.Context, pq any, shard int, c *topk.Collector, shared *search.SharedThreshold) (search.Stats, error) {
	q := pq.([]float64)
	lo, hi := dk.part.Range(shard)
	var st search.Stats
	done := ctx.Done()
	for i := lo; i < hi; i++ {
		local := i - lo
		if done != nil {
			if err := search.Poll(ctx); err != nil {
				st.Scanned = local
				st.FullProducts = local
				return st, err
			}
		}
		v := vec.Dot(q, dk.items.Row(i))
		t := shared.Floor(c.Threshold())
		if v < t {
			st.PrunedByLength++ // stand-in counter for the toy kernel
			continue
		}
		if c.Push(i, v) && c.Len() == c.K() {
			shared.Publish(c.Threshold())
		}
	}
	st.Scanned = hi - lo
	st.FullProducts = hi - lo
	return st, nil
}

func randMatrix(rng *rand.Rand, n, d int) *vec.Matrix {
	m := vec.NewMatrix(n, d)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestEngineMatchesSingleShard(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	items := randMatrix(rng, 500, 8)
	q := make([]float64, 8)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	base := New(newDotKernel(items, 1), 1)
	want, err := base.SearchContext(context.Background(), q, 10)
	if err != nil {
		t.Fatalf("S=1: %v", err)
	}
	for _, shards := range []int{2, 3, 7} {
		for _, workers := range []int{1, 2, 4} {
			e := New(newDotKernel(items, shards), workers)
			got, err := e.SearchContext(context.Background(), q, 10)
			if err != nil {
				t.Fatalf("S=%d W=%d: %v", shards, workers, err)
			}
			if len(got) != len(want) {
				t.Fatalf("S=%d W=%d: %d results, want %d", shards, workers, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("S=%d W=%d: result %d = %+v, want %+v", shards, workers, i, got[i], want[i])
				}
			}
		}
	}
}

func TestEngineStatsAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	items := randMatrix(rng, 300, 4)
	q := items.Row(0)
	e := New(newDotKernel(items, 5), 2)
	var st search.Stats
	if _, err := e.SearchContext(obs.WithStats(context.Background(), &st), q, 3); err != nil {
		t.Fatal(err)
	}
	if st.Scanned != 300 {
		t.Fatalf("aggregated Scanned = %d, want 300", st.Scanned)
	}
	if st.FullProducts != 300 {
		t.Fatalf("aggregated FullProducts = %d, want 300", st.FullProducts)
	}
}

func TestEngineObserver(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	items := randMatrix(rng, 120, 4)
	e := New(newDotKernel(items, 4), 1) // sequential: observer calls are ordered
	seen := make([]bool, 4)
	totalScanned := 0
	e.SetObserver(func(shard int, seconds float64, st search.Stats) {
		if shard < 0 || shard >= 4 {
			t.Errorf("observer shard %d out of range", shard)
			return
		}
		if seconds < 0 {
			t.Errorf("negative shard time %v", seconds)
		}
		seen[shard] = true
		totalScanned += st.Scanned
	})
	if _, err := e.SearchContext(context.Background(), items.Row(3), 5); err != nil {
		t.Fatal(err)
	}
	for s, ok := range seen {
		if !ok {
			t.Fatalf("observer never saw shard %d", s)
		}
	}
	if totalScanned != 120 {
		t.Fatalf("observer saw %d scanned items, want 120", totalScanned)
	}
}

func TestEngineCancellationPartials(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	items := randMatrix(rng, 400, 6)
	q := make([]float64, 6)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	for _, workers := range []int{1, 3} {
		e := New(newDotKernel(items, 4), workers)
		reg := faults.NewRegistry(20260806)
		hook := reg.Enable(faults.SiteScan, faults.Plan{CancelAtItem: 25})
		res, err := e.SearchContext(hook.Context(context.Background()), q, 10)
		if !errors.Is(err, search.ErrDeadline) {
			t.Fatalf("W=%d: err = %v, want ErrDeadline", workers, err)
		}
		// True-inner-product invariant on partials.
		for _, r := range res {
			if got := vec.Dot(q, items.Row(r.ID)); got != r.Score {
				t.Fatalf("W=%d: partial score for id %d = %v, want true dot %v", workers, r.ID, r.Score, got)
			}
		}
	}
}

func TestEnginePreCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	items := randMatrix(rng, 100, 3)
	e := New(newDotKernel(items, 3), 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := e.SearchContext(ctx, items.Row(0), 5)
	if !errors.Is(err, search.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if len(res) != 0 {
		t.Fatalf("pre-cancelled search returned %d results, want 0", len(res))
	}
}

func TestEngineWorkerClamp(t *testing.T) {
	items := randMatrix(rand.New(rand.NewSource(1)), 10, 2)
	if w := New(newDotKernel(items, 2), 64).Workers(); w != 2 {
		t.Fatalf("workers clamped to %d, want 2 (shard count)", w)
	}
	if w := New(newDotKernel(items, 4), 0).Workers(); w < 1 || w > 4 {
		t.Fatalf("workers defaulted to %d, want within [1,4]", w)
	}
}

// padded presents a one-shard kernel as two shards, the second empty:
// the same scan forced through the engine's general route (outs slice,
// SharedThreshold, merge collector) instead of the one-shard route.
type padded struct{ Kernel }

func (padded) Shards() int { return 2 }

func (p padded) Scan(ctx context.Context, pq any, shard int, c *topk.Collector, shared *search.SharedThreshold) (search.Stats, error) {
	if shard == 1 {
		return search.Stats{}, nil
	}
	return p.Kernel.Scan(ctx, pq, 0, c, shared)
}

// TestOneShardRouteMatchesGeneralRoute: the one-shard query — no
// SharedThreshold, the shard's collector as the result, the clock read
// only on request — answers what the general route answers over the
// same scan: results, counters, the span tree of DESIGN.md §13 and the
// observer callback, complete and cancelled alike.
func TestOneShardRouteMatchesGeneralRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	items := randMatrix(rng, 400, 6)
	// outcome is everything one query shows of itself.
	type outcome struct {
		Res       []topk.Result
		Cancelled bool
		Stats     search.Stats
		Observed  []search.Stats // per observer callback that did work
		Spans     map[string]int // span name (child/grandchild) → count
	}
	run := func(e *Engine, q []float64, cancelAt int) outcome {
		var o outcome
		e.SetObserver(func(shard int, seconds float64, st search.Stats) {
			if st == (search.Stats{}) {
				return // the padding shard does no work
			}
			if shard != 0 || seconds < 0 {
				t.Errorf("observer saw shard %d, %v s, %+v", shard, seconds, st)
			}
			o.Observed = append(o.Observed, st)
		})
		ctx := context.Background()
		if cancelAt > 0 {
			ctx = faults.NewRegistry(1).Enable(faults.SiteScan, faults.Plan{CancelAtItem: cancelAt}).Context(ctx)
		}
		root := obs.NewRoot("search")
		var st search.Stats
		res, err := e.SearchContext(obs.WithQuery(ctx, obs.Query{Span: root, Stats: &st}), q, 10)
		root.End()
		o.Res, o.Cancelled, o.Stats, o.Spans = res, errors.Is(err, search.ErrDeadline), st, map[string]int{}
		if err != nil && !o.Cancelled {
			t.Fatalf("unexpected error %v", err)
		}
		for _, c := range root.Children() {
			o.Spans[c.Name()]++
			for _, cc := range c.Children() {
				o.Spans[c.Name()+"/"+cc.Name()]++
			}
		}
		return o
	}
	wantSpans := map[string]int{"transform": 1, "scan": 1, "scan/shard": 1, "merge": 1}
	for _, cancelAt := range []int{0, 150} {
		for trial := 0; trial < 5; trial++ {
			q := randMatrix(rng, 1, 6).Row(0)
			want := run(New(newDotKernel(items, 1), 1), q, cancelAt)
			if want.Cancelled != (cancelAt > 0) || !reflect.DeepEqual(want.Spans, wantSpans) ||
				len(want.Observed) != 1 || want.Observed[0] != want.Stats {
				t.Fatalf("cancelAt=%d: one-shard route %+v", cancelAt, want)
			}
			for _, workers := range []int{1, 2} {
				got := run(New(padded{newDotKernel(items, 1)}, workers), q, cancelAt)
				got.Spans["scan/shard"]-- // the padding shard's span
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("cancelAt=%d W=%d: general route %+v, one-shard route %+v", cancelAt, workers, got, want)
				}
			}
		}
	}
}

// TestNonPositiveKAndWorkerPanic: k ≤ 0 answers nothing and counts
// nothing after Prepare's dimension check, and a panic in a pool
// worker's scan is re-raised on the calling goroutine.
func TestNonPositiveKAndWorkerPanic(t *testing.T) {
	items := randMatrix(rand.New(rand.NewSource(19)), 90, 3)
	for _, shards := range []int{1, 3} {
		e := New(newDotKernel(items, shards), 2)
		for _, k := range []int{-1, 0} {
			var st search.Stats
			if res, err := e.SearchContext(obs.WithStats(context.Background(), &st), items.Row(0), k); len(res) != 0 || err != nil || st != (search.Stats{}) {
				t.Fatalf("S=%d k=%d: %v, %v, %+v", shards, k, res, err, st)
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("S=%d: k=0 skipped the dimension check", shards)
				}
			}()
			_, _ = e.SearchContext(context.Background(), []float64{1}, 0)
		}()
		hook := faults.NewRegistry(1).Enable(faults.SiteScan, faults.Plan{PanicAtItem: 5})
		func() {
			defer func() {
				if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "injected panic at item 5") {
					t.Fatalf("S=%d: recovered %v on the caller, want the injected scan panic", shards, p)
				}
			}()
			_, _ = e.SearchContext(hook.Context(context.Background()), items.Row(1), 4)
		}()
	}
}

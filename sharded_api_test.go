package fexipro_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"fexipro"
)

// TestOptionsShardsBitExact pins the public sharding contract: with any
// Options.Shards the results — IDs, bitwise scores, tie order — are
// identical to the single-shard scan.
func TestOptionsShardsBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(20260811))
	items := randomItems(rng, 300, 12)
	for _, variant := range []string{"F", "F-SIR"} {
		ref, err := fexipro.New(items, fexipro.Options{Variant: variant})
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{2, 5, 16} {
			f, err := fexipro.New(items, fexipro.Options{Variant: variant, Shards: shards, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if f.Shards() != shards {
				t.Fatalf("%s: Shards() = %d, want %d", variant, f.Shards(), shards)
			}
			if f.SearchWorkers() != 2 {
				t.Fatalf("%s: SearchWorkers() = %d, want 2", variant, f.SearchWorkers())
			}
			for trial := 0; trial < 5; trial++ {
				q := randomQuery(rng, 12)
				want := ref.Search(q, 10)
				got := f.Search(q, 10)
				if len(got) != len(want) {
					t.Fatalf("%s S=%d: %d results, want %d", variant, shards, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s S=%d rank %d: got %+v, want %+v", variant, shards, i, got[i], want[i])
					}
				}
			}
			// Retriever() must inherit the shard configuration and agree.
			r := f.Retriever()
			q := randomQuery(rng, 12)
			want, got := ref.Search(q, 7), r.Search(q, 7)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s S=%d Retriever rank %d: got %+v, want %+v", variant, shards, i, got[i], want[i])
				}
			}
		}
	}
}

// TestShardedSearchAboveStillWorks: SearchAbove on a sharded handle is
// the engine's fan-out, not a sequential retriever beside it — same hits,
// bit for bit, as the one-shard handle, and its counters in LastStats.
func TestShardedSearchAboveStillWorks(t *testing.T) {
	rng := rand.New(rand.NewSource(20260812))
	items := randomItems(rng, 120, 8)
	f, err := fexipro.New(items, fexipro.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := fexipro.New(items, fexipro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := randomQuery(rng, 8)
	hits, want := f.SearchAbove(q, 0.5), seq.SearchAbove(q, 0.5)
	if len(hits) == 0 || !reflect.DeepEqual(hits, want) {
		t.Fatalf("S=4 hits %v, S=1 hits %v", hits, want)
	}
	for i, h := range hits {
		if h.Score < 0.5 {
			t.Fatalf("hit %d score %v below threshold", i, h.Score)
		}
	}
	if st := f.LastStats(); st.Scanned+st.PrunedByLength != 120 {
		t.Fatalf("LastStats after SearchAbove does not account for the 120 rows: %+v", st)
	}
}

// TestTopKAllContextMatchesTopKAll pins the delegation satellite: the
// context-free batch API must return exactly what the context variant
// does, for both single- and multi-worker runs.
func TestTopKAllContextMatchesTopKAll(t *testing.T) {
	rng := rand.New(rand.NewSource(20260813))
	items := randomItems(rng, 200, 10)
	queries := randomItems(rng, 30, 10)
	f, err := fexipro.New(items, fexipro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.TopKAll(queries, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		got, err := f.TopKAllContext(context.Background(), queries, 5, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d lists, want %d", workers, len(got), len(want))
		}
		for qi := range want {
			for i := range want[qi] {
				if got[qi][i] != want[qi][i] {
					t.Fatalf("workers=%d query %d rank %d: got %+v, want %+v",
						workers, qi, i, got[qi][i], want[qi][i])
				}
			}
		}
	}
}

// TestTopKAllContextCancellation: a pre-cancelled context must surface
// ErrDeadline promptly instead of computing the whole workload.
func TestTopKAllContextCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(20260814))
	items := randomItems(rng, 400, 10)
	queries := randomItems(rng, 50, 10)
	f, err := fexipro.New(items, fexipro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 3} {
		start := time.Now()
		_, err = f.TopKAllContext(ctx, queries, 5, workers)
		if !errors.Is(err, fexipro.ErrDeadline) {
			t.Fatalf("workers=%d: err = %v, want ErrDeadline", workers, err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("workers=%d: cancelled batch took %v", workers, elapsed)
		}
	}
}

// TestLEMPTopKJoinContext pins the LEMP batch satellite: the context
// variant matches TopKJoin for every worker count, and a pre-cancelled
// context returns ErrDeadline.
func TestLEMPTopKJoinContext(t *testing.T) {
	rng := rand.New(rand.NewSource(20260815))
	items := randomItems(rng, 250, 10)
	queries := randomItems(rng, 20, 10)
	l := fexipro.NewLEMP(items, 0, nil)
	want := l.TopKJoin(queries, 6)
	for _, workers := range []int{1, 4} {
		got, err := l.TopKJoinContext(context.Background(), queries, 6, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for qi := range want {
			if len(got[qi]) != len(want[qi]) {
				t.Fatalf("workers=%d query %d: %d results, want %d", workers, qi, len(got[qi]), len(want[qi]))
			}
			for i := range want[qi] {
				if got[qi][i] != want[qi][i] {
					t.Fatalf("workers=%d query %d rank %d: got %+v, want %+v",
						workers, qi, i, got[qi][i], want[qi][i])
				}
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := l.TopKJoinContext(ctx, queries, 6, 2); !errors.Is(err, fexipro.ErrDeadline) {
		t.Fatalf("pre-cancelled join err = %v, want ErrDeadline", err)
	}
}

// TestDynamicSharded exercises the public sharded dynamic API: mutation
// stream plus queries checked against the naive reference.
func TestDynamicSharded(t *testing.T) {
	rng := rand.New(rand.NewSource(20260816))
	items := randomItems(rng, 90, 8)
	d, err := fexipro.NewDynamic(items, fexipro.Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if d.Shards() != 3 {
		t.Fatalf("Shards() = %d, want 3", d.Shards())
	}
	if _, err := d.Add(randomQuery(rng, 8)); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(0); err != nil {
		t.Fatal(err)
	}
	q := randomQuery(rng, 8)
	got := d.Search(q, 5)
	if len(got) != 5 {
		t.Fatalf("got %d results, want 5", len(got))
	}
	for i, r := range got {
		if r.ID == 0 {
			t.Fatalf("rank %d returned deleted item 0", i)
		}
	}
}

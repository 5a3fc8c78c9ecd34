package core_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"fexipro/internal/core"
	"fexipro/internal/engine"
	"fexipro/internal/searchtest"
	"fexipro/internal/topk"
	"fexipro/internal/vec"
)

// TestSnapshotRoundTrip: a saved-and-loaded FEXIPRO index must be
// indistinguishable from the one that was built — byte-identical on
// re-save, bit-identical results and stage counters through the sharded
// engine, and unchanged cancellation semantics. "F" pins the minimal
// section set, "F-SIR" the full one (SVD + integer + reduction); the
// remaining cases take the integer section to both ends of E's domain,
// (0, 127], since Save widens the int8 floors to int16 and ReadIndex
// narrows and re-packs them.
func TestSnapshotRoundTrip(t *testing.T) {
	sir := core.Options{SVD: true, Int: true, Reduction: true}
	e1, e127 := sir, sir
	e1.E = 1
	e127.E = core.MaxE
	for _, tc := range []struct {
		name string
		opts core.Options
	}{
		{"F", core.Options{}},
		{"F-SIR", sir},
		{"F-SIR-E127", e127},
		{"F-SIR-E1", e1},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			checkSnapshotRoundTrip(t, tc.opts, "core/"+tc.name)
		})
	}
}

// snapshotShardCounts is the shard grid the persistence round-trip
// harness runs: the single-scan reference and one genuinely parallel
// count.
var snapshotShardCounts = []int{1, 4}

// checkSnapshotRoundTrip is the persistence harness of core.Index, the
// one index type with a codec (DESIGN.md §15): for a grid of instances
// it builds the index with opts, saves it, loads it back, and requires
// the loaded index to be indistinguishable from the original —
// byte-identical on re-save, and bit-identical through the sharded
// searcher (same IDs, same scores bitwise, same tie order) for every
// shard count in snapshotShardCounts, with the same stage counters at
// S = 1, where they are deterministic. It then runs the
// full cancellation property suite against a loaded searcher, so
// persistence cannot change partial-result semantics either.
func checkSnapshotRoundTrip(t *testing.T, opts core.Options, label string) {
	t.Helper()
	rng := rand.New(rand.NewSource(20260808))
	cases := []struct{ n, d, k int }{
		{1, 3, 1}, // fewer rows than shards
		{60, 8, 5},
		{200, 16, 10},
		{64, 12, 100}, // k > n
	}
	for _, cse := range cases {
		items, _ := searchtest.RandomInstance(rng, cse.n, cse.d)
		checkSnapshotInstance(t, opts, items, cse.k, rng,
			fmt.Sprintf("%s/n=%d,d=%d,k=%d", label, cse.n, cse.d, cse.k))
	}

	// Tie-heavy instance: duplicated rows force exact score ties, so any
	// ordering drift introduced by the save/load path would surface.
	dup := vec.NewMatrix(90, 6)
	for i := range dup.Data[:9*dup.Cols] {
		dup.Data[i] = rng.NormFloat64()
	}
	for i := 9; i < dup.Rows; i++ {
		copy(dup.Row(i), dup.Row(i%9))
	}
	checkSnapshotInstance(t, opts, dup, 25, rng, label+"/duplicates")

	// Cancellation semantics survive the round trip: the loaded searcher
	// must satisfy the same partial-result contract as a fresh one.
	for _, shards := range snapshotShardCounts {
		shards := shards
		searchtest.CheckCancellation(t, func(items *vec.Matrix) searchtest.FaultSearcher {
			return shardedSearcher(saveLoad(t, buildIndex(t, items, opts, label), label), shards)
		}, fmt.Sprintf("%s/loaded/S=%d", label, shards))
	}
}

func buildIndex(t *testing.T, items *vec.Matrix, opts core.Options, label string) *core.Index {
	t.Helper()
	idx, err := core.NewIndex(items, opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return idx
}

func shardedSearcher(idx *core.Index, shards int) *engine.Engine {
	return engine.New(core.NewSharded(idx, shards), 2)
}

// saveLoad round-trips an index through Save and ReadIndex, asserting
// the save is deterministic and the loaded index re-saves
// byte-identically.
func saveLoad(t *testing.T, ix *core.Index, label string) *core.Index {
	t.Helper()
	var buf, again bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatalf("%s: save: %v", label, err)
	}
	if err := ix.Save(&again); err != nil {
		t.Fatalf("%s: second save: %v", label, err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatalf("%s: saving the same index twice produced different bytes", label)
	}
	loaded, err := core.ReadIndex(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("%s: load: %v", label, err)
	}
	var resaved bytes.Buffer
	if err := loaded.Save(&resaved); err != nil {
		t.Fatalf("%s: re-save of loaded index: %v", label, err)
	}
	if !bytes.Equal(buf.Bytes(), resaved.Bytes()) {
		t.Fatalf("%s: loaded index re-saves to different bytes (%d vs %d): snapshot is lossy",
			label, buf.Len(), resaved.Len())
	}
	return loaded
}

func checkSnapshotInstance(t *testing.T, opts core.Options, items *vec.Matrix, k int, rng *rand.Rand, label string) {
	t.Helper()
	orig := buildIndex(t, items, opts, label)
	loaded := saveLoad(t, orig, label)

	for _, shards := range snapshotShardCounts {
		fresh := shardedSearcher(orig, shards)
		warm := shardedSearcher(loaded, shards)
		for trial := 0; trial < 4; trial++ {
			q := make([]float64, items.Cols)
			for j := range q {
				q[j] = rng.NormFloat64()
			}
			want, err := fresh.SearchContext(context.Background(), q, k)
			if err != nil {
				t.Fatalf("%s: S=%d original search: %v", label, shards, err)
			}
			got, err := warm.SearchContext(context.Background(), q, k)
			if err != nil {
				t.Fatalf("%s: S=%d loaded search: %v", label, shards, err)
			}
			topk.SortResults(want)
			topk.SortResults(got)
			if len(got) != len(want) {
				t.Fatalf("%s: S=%d query %d: loaded returned %d results, original %d",
					label, shards, trial, len(got), len(want))
			}
			for i := range want {
				// Struct equality: IDs AND bitwise scores AND tie order.
				if got[i] != want[i] {
					t.Fatalf("%s: S=%d query %d rank %d: loaded %+v, original %+v",
						label, shards, trial, i, got[i], want[i])
				}
			}
			// The loaded index must also walk the same pruning path, not
			// just reach the same answer: stage counters are part of the
			// persisted contract (they feed /metrics and the perf gates).
			// They are a function of the index only at S = 1: with more
			// shards, which sibling's threshold a shard sees published
			// depends on how the workers were scheduled.
			if shards == 1 {
				if a, b := fresh.Stats(), warm.Stats(); a != b {
					t.Fatalf("%s: S=%d query %d: stage counters diverged after load:\noriginal %+v\n  loaded %+v",
						label, shards, trial, a, b)
				}
			}
		}
	}
}

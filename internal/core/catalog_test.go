package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"fexipro/internal/data"
	"fexipro/internal/scan"
	"fexipro/internal/snap"
	"fexipro/internal/vec"
)

// matrix copies the catalog's rows into one matrix in ID order: the
// single-matrix catalog the blocks replaced.
func (c *catalog) matrix() *vec.Matrix {
	m := vec.NewMatrix(c.rows, c.d)
	for id := 0; id < c.rows; id++ {
		copy(m.Row(id), c.row(id))
	}
	return m
}

// TestDynamicFirstAddAllocatesOneBlock: the first Add after a build, and
// after a load, allocates the same bytes at n = 10⁴ as at n = 10⁵, and
// no more than one catalog block and a little bookkeeping — it copies
// no row but its own. (The single-matrix catalog was built and loaded
// exactly full, so this add copied all n rows.)
func TestDynamicFirstAddAllocatesOneBlock(t *testing.T) {
	const d = 8
	block := uint64(catalogBlockRows * d * 8)
	opts := Options{SVD: true, Int: true, Reduction: true}
	firstAdd := func(di *DynamicIndex) uint64 {
		item := make([]float64, d)
		item[0] = 1
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := di.Add(item); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, load := range []bool{false, true} {
		var got [2]uint64
		for i, n := range []int{1e4, 1e5} {
			items := data.Generate(data.MovieLens(), n, 1, d).Items
			// The least of three: a stray allocation elsewhere in the
			// process can only add to one reading.
			got[i] = math.MaxUint64
			for range 3 {
				di, err := NewDynamicIndex(items, opts, 0)
				if err != nil {
					t.Fatal(err)
				}
				if load {
					var buf bytes.Buffer
					if err := di.SaveSnapshot(&buf, 0); err != nil {
						t.Fatal(err)
					}
					if di, _, err = loadSnapshot(context.Background(), &buf, 1); err != nil {
						t.Fatal(err)
					}
				}
				got[i] = min(got[i], firstAdd(di))
			}
		}
		if got[0] != got[1] || got[1] > block+1024 {
			t.Errorf("load=%v: first add allocated %d B at n = 10⁴ and %d B at n = 10⁵; one block is %d B",
				load, got[0], got[1], block)
		}
	}
}

// TestCatalogBlockBoundaries drives a sharded dynamic index across four
// catalog blocks with deletes in between; on the first row of every block
// an add whose shard rebuild fails is taken back, and the same ID is then
// given to a good row. Half-way it checkpoints; at the end it recovers
// from the checkpoint and the WAL. The live and the recovered index must
// answer like scan.Naive over the live rows, save the same bytes, and
// encode the catalog exactly as the single matrix did.
func TestCatalogBlockBoundaries(t *testing.T) {
	const n0, d, S, k = 300, 6, 2, 7
	rng := rand.New(rand.NewSource(5))
	opts := Options{SVD: true, Int: true, Reduction: true}
	all := normalMatrix(rng, n0, d) // the oracle's catalog: every row in ID order
	built, err := NewDynamicIndexSharded(all, opts, 0, S, 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteSnapshotDir(dir, built, 0); err != nil {
		t.Fatal(err)
	}
	rec, err := OpenRecovered(context.Background(), dir, 2, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	di, wal := rec.Index, rec.WAL
	var lastSeq uint64
	logged := func(op snap.WALOp, id int, item []float64) {
		seq, err := wal.Append(op, int64(id), item)
		if err != nil {
			t.Fatal(err)
		}
		lastSeq = seq
	}
	del := func(id int) {
		if err := di.Delete(id); err != nil {
			t.Fatalf("delete %d: %v", id, err)
		}
		logged(snap.WALDelete, id, nil)
	}
	saved := func(di *DynamicIndex) []byte {
		var buf bytes.Buffer
		if err := di.SaveSnapshot(&buf, lastSeq); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	huge := make([]float64, d)
	huge[0] = 1e16 // ≳ 10¹³ × the rest: no shard holding it can be built

	const last = n0 + 4*catalogBlockRows - 20
	for id := n0; id < last; id++ {
		if (id-n0)%catalogBlockRows == 0 {
			// Delete main items of the owning shard until the add will
			// trigger its rebuild (each delete stays under the trigger).
			sh := di.shards[id%S]
			for _, m := range sh.mainIDs {
				if float64(len(sh.delta)+sh.deadInMain+1) > di.rebuild*float64(len(sh.mainIDs)) {
					break
				}
				if !di.dead.has(m) {
					del(m)
				}
			}
			before, blocks := saved(di), len(di.items.blocks)
			if _, err := di.Add(huge); !errors.Is(err, ErrRebuild) {
				t.Fatalf("add of the huge row as ID %d: %v, want ErrRebuild", id, err)
			}
			if !bytes.Equal(saved(di), before) || di.NextID() != id {
				t.Fatalf("the add taken back at ID %d changed the index", id)
			}
			if len(di.items.blocks) != blocks+1 {
				t.Fatalf("the add at ID %d left %d blocks, want the %d it allocated kept", id, len(di.items.blocks), blocks+1)
			}
		}
		item := normalMatrix(rng, 1, d).Data
		rebuilds := di.Rebuilds()[id%S]
		got, err := di.Add(item)
		if err != nil || got != id {
			t.Fatalf("add: ID %d, %v; want ID %d", got, err, id)
		}
		if (id-n0)%catalogBlockRows == 0 && di.Rebuilds()[id%S] != rebuilds+1 {
			t.Fatalf("the good row at ID %d did not rebuild its shard", id)
		}
		logged(snap.WALAdd, id, item)
		all.Data = append(all.Data, item...)
		all.Rows++
		if id%5 == 0 {
			victim := rng.Intn(id + 1)
			for di.dead.has(victim) {
				victim = rng.Intn(id + 1)
			}
			del(victim)
		}
		if id == n0+catalogBlockRows+catalogBlockRows/2 {
			if err := WriteSnapshotDir(dir, di, lastSeq); err != nil {
				t.Fatal(err)
			}
			if err := wal.Reset(lastSeq); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	if want := (last - n0 + catalogBlockRows - 1) / catalogBlockRows; len(di.items.blocks) != want {
		t.Fatalf("%d blocks for %d added rows, want %d", len(di.items.blocks), last-n0, want)
	}

	rec, err = OpenRecovered(context.Background(), dir, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.WAL.Close()
	back := rec.Index
	if back.items.nBase <= n0 || len(back.items.blocks) == 0 {
		t.Fatalf("recovered catalog has %d loaded rows and %d blocks: the WAL's adds should go to blocks",
			back.items.nBase, len(back.items.blocks))
	}
	live := saved(di)
	if !bytes.Equal(saved(back), live) {
		t.Fatal("the recovered index saves other bytes than the live one")
	}
	f, err := snap.Read(bytes.NewReader(live))
	if err != nil {
		t.Fatal(err)
	}
	var single snap.Encoder
	single.Matrix(all)
	if sec, _ := f.Section(secDynItems); !bytes.Equal(sec, single.Bytes()) {
		t.Fatal("the catalog section differs from the single-matrix encoding")
	}

	var liveRows []int
	rows := vec.NewMatrix(0, d)
	for id := 0; id < all.Rows; id++ {
		if !di.dead.has(id) {
			liveRows = append(liveRows, id)
			rows.Data = append(rows.Data, all.Row(id)...)
			rows.Rows++
		}
	}
	naive := scan.NewNaive(rows)
	for i := 0; i < 40; i++ {
		q := normalMatrix(rng, 1, d).Data
		want := naive.Search(q, k)
		for name, idx := range map[string]*DynamicIndex{"live": di, "recovered": back} {
			got := idx.Search(q, k)
			if len(got) != len(want) {
				t.Fatalf("%s query %d: %d results, want %d", name, i, len(got), len(want))
			}
			for r := range want {
				if got[r].ID != liveRows[want[r].ID] || math.Abs(got[r].Score-want[r].Score) > 1e-9*(1+math.Abs(want[r].Score)) {
					t.Fatalf("%s query %d rank %d: item %d (%g), naive item %d (%g)",
						name, i, r, got[r].ID, got[r].Score, liveRows[want[r].ID], want[r].Score)
				}
			}
		}
	}
}

// BenchmarkDynamicFirstAdd times the first Add after a build of 10⁵ rows
// (d = 50): one row into a fresh catalog block. Each iteration takes its
// add back and drops the block, so the next is again the first; B/op is
// the block.
//
//	go test ./internal/core -run '^$' -bench DynamicFirstAdd -benchmem
func BenchmarkDynamicFirstAdd(b *testing.B) {
	items := data.Generate(data.MovieLens(), 100000, 1, 50).Items
	di, err := NewDynamicIndex(items, Options{SVD: true, Int: true, Reduction: true}, 0)
	if err != nil {
		b.Fatal(err)
	}
	item := vec.Clone(items.Row(0))
	sh := di.shards[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := di.Add(item); err != nil {
			b.Fatal(err)
		}
		sh.delta = sh.delta[:0]
		di.items.dropLast()
		di.items.blocks = nil
	}
}

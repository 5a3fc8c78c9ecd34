package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"fexipro/internal/core"
	"fexipro/internal/obs"
	"fexipro/internal/snap"
	"fexipro/internal/vec"
)

// First boot on a fresh data directory (core.CreateDir): the checkpoint
// is written while the shards build, so these tests pin that the file is
// the one a build-then-save writes, that every failure path joins the
// writer and leaves no snapshot, and that a WAL with no snapshot behind
// it is refused.

var createOpts = core.Options{SVD: true, Int: true, Reduction: true}

func createItems(n, d int, rng *rand.Rand) *vec.Matrix {
	m := vec.NewMatrix(n, d)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// waitGoroutines fails t unless the goroutine count falls back to want:
// a joined goroutine may still be returning when its result arrives.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the call", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// assertNoSnapshot fails t if dir holds the snapshot or its temporary.
func assertNoSnapshot(t *testing.T, dir string) {
	t.Helper()
	for _, name := range []string{core.SnapshotFile, core.SnapshotFile + ".tmp"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s left behind (stat: %v)", name, err)
		}
	}
}

// TestCreateDirWritesTheBuiltSnapshot: the first-boot current.snap is
// byte for byte SaveSnapshot of the index NewDynamicIndexSharded builds,
// at S ∈ {1, 2, 7}, n < S included (the empty shards get rebuilds = 0),
// and the returned index is that index: same snapshot, same answers.
func TestCreateDirWritesTheBuiltSnapshot(t *testing.T) {
	for _, tc := range []struct{ n, shards int }{{40, 1}, {40, 2}, {40, 7}, {5, 7}} {
		t.Run(fmt.Sprintf("n=%d/S=%d", tc.n, tc.shards), func(t *testing.T) {
			items := createItems(tc.n, 6, rand.New(rand.NewSource(8)))
			built, err := core.NewDynamicIndexSharded(items, createOpts, 0, tc.shards, 1)
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := built.SaveSnapshot(&want, 0); err != nil {
				t.Fatal(err)
			}
			dir := filepath.Join(t.TempDir(), "data")
			rec, err := core.CreateDir(context.Background(), dir, items, createOpts, tc.shards, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer rec.WAL.Close()
			got, err := os.ReadFile(filepath.Join(dir, core.SnapshotFile))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatal("first-boot snapshot differs from SaveSnapshot of the built index")
			}
			var again bytes.Buffer
			if err := rec.Index.SaveSnapshot(&again, 0); err != nil || !bytes.Equal(again.Bytes(), got) {
				t.Fatalf("returned index saves another snapshot (%v)", err)
			}
			if !reflect.DeepEqual(rec.Index.Rebuilds(), built.Rebuilds()) {
				t.Fatalf("rebuilds %v, want %v", rec.Index.Rebuilds(), built.Rebuilds())
			}
			if tc.n < tc.shards && rec.Index.Rebuilds()[tc.shards-1] != 0 {
				t.Fatalf("empty shard rebuilds = %v, want 0", rec.Index.Rebuilds())
			}
			if rec.SnapshotSeq != 0 || rec.Replayed != 0 || rec.WAL.NextSeq() != 1 {
				t.Fatalf("recovered meta %+v, WAL next seq %d", rec, rec.WAL.NextSeq())
			}
			for i := 0; i < 5; i++ {
				q := items.Row(i % tc.n)
				if a, b := rec.Index.Search(q, 3), built.Search(q, 3); !reflect.DeepEqual(a, b) {
					t.Fatalf("query %d: %v, want %v", i, a, b)
				}
			}
		})
	}
}

// TestCreateDirSpans: under a span the writer is a "snapshot.save" child
// with its own wall time, beside one "index.rebuild" per shard.
func TestCreateDirSpans(t *testing.T) {
	root := obs.NewRoot("boot")
	ctx := obs.WithQuery(context.Background(), obs.Query{Span: root})
	rec, err := core.CreateDir(ctx, t.TempDir(), createItems(30, 4, rand.New(rand.NewSource(3))), createOpts, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	_ = rec.WAL.Close()
	root.End()
	if root.ChildDuration("snapshot.save") <= 0 {
		t.Fatal("no snapshot.save span")
	}
	rebuilds := 0
	for _, c := range root.Snapshot().Children {
		if c.Name == "index.rebuild" {
			rebuilds++
		}
	}
	if rebuilds != 2 {
		t.Fatalf("%d index.rebuild spans, want 2", rebuilds)
	}
}

// TestCreateDirBuildFailure: a catalog NewIndex refuses fails the first
// boot with the error NewDynamicIndexSharded gives, after the writer is
// joined and its file removed; the next boot with good items initializes
// the same directory.
func TestCreateDirBuildFailure(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  func(m *vec.Matrix)
	}{
		// One item ≳ 10¹³ × the rest: ErrIllConditioned.
		{"ill-conditioned", func(m *vec.Matrix) { m.Row(7)[3] = 1e16 }},
		// Every ‖p‖² finite, their sum not.
		{"norm-sum overflow", func(m *vec.Matrix) {
			for i := range m.Data {
				m.Data[i] = 1e153
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			items := createItems(50, 8, rand.New(rand.NewSource(1)))
			tc.bad(items)
			_, want := core.NewDynamicIndexSharded(items, createOpts, 0, 1, 1)
			if !errors.Is(want, core.ErrRebuild) {
				t.Fatalf("NewDynamicIndexSharded: %v, want ErrRebuild", want)
			}
			dir := t.TempDir()
			before := runtime.NumGoroutine()
			rec, err := core.CreateDir(context.Background(), dir, items, createOpts, 1, 1, 1)
			if rec != nil || err == nil || err.Error() != want.Error() {
				t.Fatalf("CreateDir = %v, %v; want nil, %v", rec, err, want)
			}
			waitGoroutines(t, before)
			assertNoSnapshot(t, dir)

			rec, err = core.CreateDir(context.Background(), dir, createItems(50, 8, rand.New(rand.NewSource(2))), createOpts, 1, 1, 1)
			if err != nil {
				t.Fatalf("next boot with good items: %v", err)
			}
			if err := rec.WAL.Close(); err != nil {
				t.Fatal(err)
			}
			back, err := core.OpenRecovered(context.Background(), dir, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer back.WAL.Close()
			if back.Index.Len() != 50 {
				t.Fatalf("recovered %d items, want 50", back.Index.Len())
			}
		})
	}
}

// TestCreateDirWriteFailure: a checkpoint that cannot be written (its
// temporary name is taken by a directory) fails the boot without an
// index, the build joined with the writer.
func TestCreateDirWriteFailure(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, core.SnapshotFile+".tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	rec, err := core.CreateDir(context.Background(), dir, createItems(5000, 8, rand.New(rand.NewSource(4))), createOpts, 2, 1, 1)
	if rec != nil || err == nil {
		t.Fatalf("CreateDir = %v, %v; want an error", rec, err)
	}
	waitGoroutines(t, before)
	if _, err := os.Stat(filepath.Join(dir, core.SnapshotFile)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("snapshot written by a failed boot (stat: %v)", err)
	}
}

// TestCreateDirRefusesStaleWAL: a WAL holding records in a directory
// with no snapshot belongs to no catalog the first boot builds; it is
// refused (ErrStaleWAL, a snap.ErrChecksum) and kept as it was. A
// header-only WAL — what a crash between CreateDir's steps leaves — is
// reused.
func TestCreateDirRefusesStaleWAL(t *testing.T) {
	const d = 4
	dir := t.TempDir()
	walPath := filepath.Join(dir, core.WALFile)
	w, _, err := snap.OpenWAL(walPath, d, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.Append(snap.WALAdd, int64(10+i), []float64{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	stale, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	rec, err := core.CreateDir(context.Background(), dir, createItems(10, d, rand.New(rand.NewSource(5))), createOpts, 1, 1, 1)
	if rec != nil || !errors.Is(err, core.ErrStaleWAL) || !errors.Is(err, snap.ErrChecksum) {
		t.Fatalf("CreateDir over a stale WAL = %v, %v; want ErrStaleWAL", rec, err)
	}
	waitGoroutines(t, before)
	assertNoSnapshot(t, dir)
	if after, err := os.ReadFile(walPath); err != nil || !bytes.Equal(after, stale) {
		t.Fatalf("the refused WAL changed (%v)", err)
	}

	headerOnly := t.TempDir()
	w, _, err = snap.OpenWAL(filepath.Join(headerOnly, core.WALFile), d, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err = core.CreateDir(context.Background(), headerOnly, createItems(10, d, rand.New(rand.NewSource(5))), createOpts, 1, 1, 1)
	if err != nil {
		t.Fatalf("CreateDir over a header-only WAL: %v", err)
	}
	_ = rec.WAL.Close()
}

// TestCheckpointAllocation: a checkpoint streams the catalog through one
// buffer instead of staging it — a 10⁴ × 50 catalog (4 MB) allocates
// under 1 MiB in all.
func TestCheckpointAllocation(t *testing.T) {
	di, err := core.NewDynamicIndexSharded(createItems(10000, 50, rand.New(rand.NewSource(6))), createOpts, 0, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := core.WriteSnapshotDir(dir, di, 0); err != nil { // warm the file system paths
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := core.WriteSnapshotDir(dir, di, 0); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	if got := m1.TotalAlloc - m0.TotalAlloc; got >= 1<<20 {
		t.Fatalf("one checkpoint allocated %d B, want < 1 MiB", got)
	}
}

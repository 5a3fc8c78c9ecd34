package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"fexipro/internal/data"
	"fexipro/internal/obs"
	"fexipro/internal/snap"
)

// BenchmarkCheckpointRecover sizes the trade a state-only snapshot makes
// (DESIGN.md §15): one checkpoint (WriteSnapshotDir: encode, write, fsync,
// rename) and one recovery (OpenRecovered) of a MovieLens-shaped F-SIR
// index, n = 10⁵, d = 50, split into S shards, with 200 mutations in the
// WAL behind the checkpoint. Recovery is reported by phase from its own
// spans: reading and checking the state, re-deriving the S main indexes,
// replaying the log. checkpoint-alloc-MB is what one checkpoint allocates:
// about 0.07, the 64 KiB buffer every section streams through (about 40
// when the builder held every section until the write); build-ms is
// NewDynamicIndexSharded, the same derivation from a
// matrix in memory. At S = 32 every shard is under the
// row count at which NewIndex splits across goroutines, so several are
// built at a time and rebuild-ms, the sum of their spans, exceeds the
// wall time they took.
//
//	go test ./internal/core -run '^$' -bench CheckpointRecover -benchtime 5x -cpu 1,2
func BenchmarkCheckpointRecover(b *testing.B) {
	const n, d, logged = 100000, 50, 200
	opts := Options{SVD: true, Int: true, Reduction: true}
	ds := data.Generate(data.MovieLens(), n+logged/2, 1, d)
	items := ds.Items.Slice(0, n)
	ms := func(total time.Duration, runs int) float64 {
		return float64(total.Microseconds()) / 1e3 / float64(runs)
	}
	for _, shards := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("S=%d", shards), func(b *testing.B) {
			t0 := time.Now()
			di, err := NewDynamicIndexSharded(items, opts, 0, shards, 1)
			if err != nil {
				b.Fatal(err)
			}
			build := time.Since(t0)
			dir := b.TempDir()
			wal, _, err := snap.OpenWAL(filepath.Join(dir, WALFile), d, 1<<20, 0)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < logged/2; i++ {
				if _, err := wal.Append(snap.WALAdd, int64(n+i), ds.Items.Row(n+i)); err != nil {
					b.Fatal(err)
				}
				if _, err := wal.Append(snap.WALDelete, int64(i*97), nil); err != nil {
					b.Fatal(err)
				}
			}
			if err := wal.Close(); err != nil {
				b.Fatal(err)
			}

			var checkpoint, recover, read, rebuild, replay time.Duration
			var allocated uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				t0 := time.Now()
				if err := WriteSnapshotDir(dir, di, 0); err != nil {
					b.Fatal(err)
				}
				checkpoint += time.Since(t0)
				runtime.ReadMemStats(&m1)
				allocated += m1.TotalAlloc - m0.TotalAlloc

				root := obs.NewRoot("boot")
				t0 = time.Now()
				rec, err := OpenRecovered(obs.WithQuery(context.Background(), obs.Query{Span: root}), dir, 1, 1<<20)
				if err != nil {
					b.Fatal(err)
				}
				recover += time.Since(t0)
				if rec.Replayed != logged {
					b.Fatalf("replayed %d records, want %d", rec.Replayed, logged)
				}
				_ = rec.WAL.Close()
				for _, load := range root.Children() {
					read += load.ChildDuration("snapshot.read")
					rebuild += load.ChildDuration("index.rebuild")
				}
				replay += root.ChildDuration("wal.replay")
			}
			b.StopTimer()
			st, err := os.Stat(filepath.Join(dir, SnapshotFile))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(ms(build, 1), "build-ms")
			b.ReportMetric(float64(st.Size())/n, "B/item")
			b.ReportMetric(ms(checkpoint, b.N), "checkpoint-ms")
			b.ReportMetric(float64(allocated)/1e6/float64(b.N), "checkpoint-alloc-MB")
			b.ReportMetric(ms(recover, b.N), "recover-ms")
			b.ReportMetric(ms(read, b.N), "read-ms")
			b.ReportMetric(ms(rebuild, b.N), "rebuild-ms")
			b.ReportMetric(ms(replay, b.N), "replay-ms")
		})
	}
}

package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fexipro/internal/core"
	"fexipro/internal/obs"
	"fexipro/internal/snap"
	"fexipro/internal/vec"
)

// Persistence (DESIGN.md §15). With Config.DataDir set, the server
// keeps its dynamic index durable across restarts:
//
//   - Boot reads <dir>/current.snap — the catalog, the tombstones and
//     which rows each shard's main index covers — rebuilds the shard
//     indexes from it (the same bytes the checkpointed process had) and
//     replays <dir>/dyn.wal, all through core.OpenRecovered; a fresh
//     directory builds from the initial matrix while its first
//     checkpoint is written (core.CreateDir), so the NEXT boot starts
//     from the acknowledged catalog, not from -items.
//   - Every mutation handler applies the change to the in-memory index
//     and then appends one WAL record, all inside the same s.mu
//     critical section, before acknowledging the request. Replay order
//     therefore matches apply order, and a crash loses at most
//     unacknowledged work (plus, with WALSyncEvery > 1, the unsynced
//     tail — the operator opted into that window).
//   - Checkpoint writes that state (400 B of catalog and ≈ 8 B of lists
//     per item at d = 50; never the indexes) to a temp file, fsyncs,
//     renames over current.snap, and truncates the WAL; the snapshot's
//     lastSeq makes the rename-vs-truncate crash window safe (replay
//     skips records the snapshot already contains).
//
// ErrReloading is returned (as a 503) for mutations that arrive while a
// background Reload is building the replacement index.
var ErrReloading = errors.New("server: catalog reload in progress")

// persistBoot carries what openPersistence learned so NewWithConfig can
// surface it as metrics once the registry exists.
type persistBoot struct {
	wal      *snap.WAL
	loaded   bool          // true: loaded from snapshot; false: built fresh + checkpointed
	loadDur  time.Duration // all of recovery: the three phases below
	readDur  time.Duration // snapshot read, verified and decoded
	buildDur time.Duration // shard indexes rebuilt from it
	walDur   time.Duration // WAL replayed
	saveDur  time.Duration // first boot: the checkpoint writer's own wall time
	replayed int
}

// openPersistence opens (or initializes) the data directory and returns
// the serving index. A dimension mismatch between the directory and the
// -items/-dim flags is a configuration error, not a rebuild trigger.
func openPersistence(cfg Config, initial *vec.Matrix, opts core.Options, shards int) (*core.DynamicIndex, *persistBoot, error) {
	syncEvery := cfg.WALSyncEvery
	if syncEvery < 1 {
		syncEvery = 1
	}
	b := &persistBoot{}
	start := time.Now()
	root := obs.NewRoot("boot")
	ctx := obs.WithQuery(context.Background(), obs.Query{Span: root})
	rec, err := core.OpenRecovered(ctx, cfg.DataDir, cfg.SearchWorkers, syncEvery)
	switch {
	case err == nil:
		b.loadDur = time.Since(start)
		for _, load := range root.Children() {
			b.readDur += load.ChildDuration("snapshot.read")
			b.buildDur += load.ChildDuration("index.rebuild")
		}
		b.walDur = root.ChildDuration("wal.replay")
		b.replayed = rec.Replayed
		b.wal = rec.WAL
		b.loaded = true
		if initial != nil && initial.Cols != rec.Index.Dim() {
			_ = rec.WAL.Close()
			return nil, nil, fmt.Errorf("server: data dir %q holds a %d-dimensional index, flags say %d",
				cfg.DataDir, rec.Index.Dim(), initial.Cols)
		}
		return rec.Index, b, nil
	case errors.Is(err, core.ErrNoSnapshot):
		// First boot on an empty directory: build from the initial
		// matrix while its checkpoint is written, so restarts load
		// instead of rebuilding.
		rec, err = core.CreateDir(ctx, cfg.DataDir, initial, opts, shards, cfg.SearchWorkers, syncEvery)
		if err != nil {
			return nil, nil, fmt.Errorf("server: initializing %q: %w", cfg.DataDir, err)
		}
		b.saveDur = root.ChildDuration("snapshot.save")
		b.wal = rec.WAL
		return rec.Index, b, nil
	default:
		return nil, nil, fmt.Errorf("server: recovering %q: %w", cfg.DataDir, err)
	}
}

// logMutationLocked appends one acknowledged mutation to the WAL and
// triggers the periodic checkpoint. Caller holds s.mu and has already
// applied the mutation to the in-memory index; a WAL failure is
// returned in err so the handler answers 500 (the mutation is then NOT
// acknowledged, and the next checkpoint re-converges the durable state
// with memory by snapshotting the full index). A failed periodic
// checkpoint is reported in ckpt separately — the mutation itself is
// durable in the WAL, so it is an operational problem for the handler
// to log after releasing s.mu, not a request failure.
func (s *Server) logMutationLocked(op snap.WALOp, id int, item []float64) (ckpt, err error) {
	if s.wal == nil {
		return nil, nil
	}
	if _, err := s.wal.Append(op, int64(id), item); err != nil {
		return nil, fmt.Errorf("wal append: %w", err)
	}
	s.walRecords.Inc()
	s.sinceCheckpoint++
	if s.checkpointEvery > 0 && s.sinceCheckpoint >= s.checkpointEvery {
		ckpt = s.checkpointLocked()
	}
	return ckpt, nil
}

// Checkpoint serializes the current index to the data directory and
// truncates the WAL. A no-op without Config.DataDir. fexserve calls
// this on SIGTERM (after draining) and after -checkpoint-every
// acknowledged mutations.
func (s *Server) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkpointLocked()
}

func (s *Server) checkpointLocked() error {
	if s.wal == nil {
		return nil
	}
	lastSeq := s.wal.NextSeq() - 1
	start := time.Now()
	// Snapshot + WAL truncation must exclude mutations, and the index is
	// single-writer by design. What runs under the lock is the encode,
	// write and fsync of the catalog — 40 MB, ≈ 0.1 s at n = 10⁵, d = 50 —
	// and readers wait for it too until the read path stops taking s.mu.
	//lint:ignore locks the catalog and the WAL sequence must be captured together: a 40 MB write + fsync at n = 10⁵, no index bytes (DESIGN.md §15.3)
	if err := core.WriteSnapshotDir(s.dataDir, s.idx, lastSeq); err != nil {
		return fmt.Errorf("writing snapshot: %w", err)
	}
	s.snapSave.Set(time.Since(start).Seconds())
	s.snapBytes.Set(snapshotBytes(s.dataDir))
	if err := s.wal.Reset(lastSeq); err != nil {
		return fmt.Errorf("resetting wal: %w", err)
	}
	s.sinceCheckpoint = 0
	return nil
}

// snapshotBytes is the size of the data directory's checkpoint file.
func snapshotBytes(dir string) float64 {
	st, err := os.Stat(filepath.Join(dir, core.SnapshotFile))
	if err != nil {
		return 0
	}
	return float64(st.Size())
}

// ClosePersistence syncs and closes the WAL. The server must not
// acknowledge further mutations afterwards; fexserve calls it after the
// final checkpoint on shutdown.
func (s *Server) ClosePersistence() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	return s.wal.Close()
}

// Reload swaps in a freshly built index over a new item matrix. The
// build — the expensive part — runs on the caller's goroutine WITHOUT
// holding s.mu, so searches keep answering on the old index throughout;
// only the O(1) pointer swap and the epoch checkpoint run under the
// lock, and that checkpoint (the catalog's write + fsync, ≈ 0.1 s at
// n = 10⁵) is how long readers wait. Mutations arriving during the
// build are rejected with 503 (ErrReloading) rather than acknowledged
// against a catalog that is about to be replaced wholesale: the
// no-acknowledged-mutation-lost invariant is kept by refusing the ack,
// not by replaying writes across epochs. The new matrix must keep the
// serving dimensionality.
func (s *Server) Reload(items *vec.Matrix, opts core.Options) error {
	if items.Cols != s.dim {
		return fmt.Errorf("server: reload matrix has %d dims, index serves %d", items.Cols, s.dim)
	}
	if !s.reloading.CompareAndSwap(false, true) {
		return ErrReloading
	}
	defer s.reloading.Store(false)

	shards := s.cfg.Shards
	if shards < 1 {
		shards = 1
	}
	idx, err := core.NewDynamicIndexSharded(items, opts, 0, shards, s.cfg.SearchWorkers)
	if err != nil {
		return err
	}
	if idx.Shards() > 1 {
		idx.SetShardObserver(obs.ShardScanObserver(s.reg, opts.Variant()))
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.idx = idx
	s.items.Set(float64(idx.Len()))
	// New epoch: the snapshot now holds the replacement catalog and the
	// WAL restarts empty. Pre-reload records are superseded by design.
	return s.checkpointLocked()
}

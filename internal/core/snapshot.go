package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"fexipro/internal/engine"
	"fexipro/internal/obs"
	"fexipro/internal/snap"
)

// DynamicIndex persistence (fexsnap/v1 + WAL, DESIGN.md §15). A data
// directory holds exactly two files:
//
//	current.snap — the last checkpoint: the full DynamicIndex state
//	               (catalog, tombstones, every shard's preprocessed main
//	               index and delta buffer) plus the WAL sequence number
//	               the checkpoint covers.
//	dyn.wal      — the append-only mutation log since that checkpoint.
//
// The recovery invariant: a mutation is acknowledged only after its WAL
// record is durably appended, and a checkpoint stores the sequence
// number it covers BEFORE the WAL is reset, so
//
//	recovered state = snapshot ∘ replay(records with seq > snapshot.seq)
//
// equals the in-memory state after exactly the acknowledged prefix of
// mutations — whatever byte the crash landed on. Replay is idempotent
// against a checkpoint race (records at or below the checkpoint's
// sequence are skipped) and strict about everything else: an add whose
// catalog ID does not line up, or a delete of a dead item, means the
// snapshot and WAL disagree, and recovery fails typed instead of
// guessing.

// Data-directory file names.
const (
	// SnapshotFile is the checkpoint file inside a -data-dir.
	SnapshotFile = "current.snap"
	// WALFile is the write-ahead log inside a -data-dir.
	WALFile = "dyn.wal"
)

// ErrNoSnapshot is returned by OpenRecovered when the directory holds
// no checkpoint — the caller should build the initial index and
// checkpoint it.
var ErrNoSnapshot = errors.New("core: no snapshot in data directory")

// DynamicIndex snapshot section tags. Shard sections are "dsh0000",
// "dsh0001", … in shard order.
const (
	secDynMeta  = "dyn.meta"
	secDynItems = "dyn.item"
	secDynDead  = "dyn.dead"
)

func dynShardTag(s int) string { return fmt.Sprintf("dsh%04d", s) }

// Dim returns the item dimensionality.
func (di *DynamicIndex) Dim() int { return di.d }

// NextID returns the catalog ID the next Add will be assigned.
func (di *DynamicIndex) NextID() int { return di.items.Rows }

// Alive reports whether id names a live (inserted and not deleted)
// catalog item.
func (di *DynamicIndex) Alive(id int) bool {
	return id >= 0 && id < di.items.Rows && !di.dead.has(id)
}

// SaveSnapshot writes the full index state as a fexsnap/v1 container.
// lastSeq is the WAL sequence number this state covers: replaying
// records with larger sequence numbers on top of the loaded snapshot
// reproduces the live index.
func (di *DynamicIndex) SaveSnapshot(w io.Writer, lastSeq uint64) error {
	var b snap.Builder
	b.Section(secDynMeta, func(e *snap.Encoder) {
		e.U64(lastSeq)
		encodeOptions(e, di.opts)
		e.I64(int64(di.d))
		e.F64(di.rebuild)
		e.I64(int64(len(di.shards)))
		e.I64(int64(di.deadCount))
	})
	b.Section(secDynItems, func(e *snap.Encoder) { e.Matrix(di.items) })
	// Ascending, so two saves of one state are byte-identical.
	b.Section(secDynDead, func(e *snap.Encoder) { e.Ints(di.dead.appendIDs(make([]int, 0, di.deadCount))) })
	for s, sh := range di.shards {
		var mainBytes []byte
		if sh.main != nil {
			var buf bytes.Buffer
			if err := sh.main.Save(&buf); err != nil {
				return err
			}
			mainBytes = buf.Bytes()
		}
		b.Section(dynShardTag(s), func(e *snap.Encoder) {
			e.Bool(sh.main != nil)
			if sh.main != nil {
				e.Bytes8(mainBytes) // nested fexsnap container
				e.Ints(sh.mainIDs)
			}
			e.Ints(sh.delta)
			e.I64(int64(sh.deadInMain))
			e.I64(int64(sh.rebuilds))
		})
	}
	return b.Flush(w)
}

// LoadSnapshot reads a snapshot written by SaveSnapshot and returns the
// reconstructed index plus the WAL sequence number it covers. workers
// sizes the query engine exactly as in NewDynamicIndexSharded. Every
// error wraps a snap sentinel.
func LoadSnapshot(r io.Reader, workers int) (*DynamicIndex, uint64, error) {
	f, err := snap.Read(r)
	if err != nil {
		return nil, 0, fmt.Errorf("core: reading dynamic snapshot: %w", err)
	}
	d, err := sectionDecoder(f, secDynMeta)
	if err != nil {
		return nil, 0, err
	}
	lastSeq := d.U64()
	di := &DynamicIndex{opts: decodeOptions(d)}
	di.d = int(d.I64())
	di.rebuild = d.F64()
	nShards := int(d.I64())
	di.deadCount = int(d.I64())
	if err := d.Finish(); err != nil {
		return nil, 0, fmt.Errorf("core: dynamic meta: %w", err)
	}
	if di.d < 1 || di.rebuild <= 0 || nShards < 1 || nShards > 1<<20 || di.deadCount < 0 {
		return nil, 0, fmt.Errorf("%w: dynamic meta d=%d rebuild=%g shards=%d dead=%d",
			snap.ErrChecksum, di.d, di.rebuild, nShards, di.deadCount)
	}

	d, err = sectionDecoder(f, secDynItems)
	if err != nil {
		return nil, 0, err
	}
	di.items = d.Matrix()
	if err := d.Finish(); err != nil {
		return nil, 0, fmt.Errorf("core: dynamic items: %w", err)
	}
	if di.items == nil || di.items.Cols != di.d {
		return nil, 0, fmt.Errorf("%w: dynamic catalog matrix disagrees with d=%d", snap.ErrChecksum, di.d)
	}

	d, err = sectionDecoder(f, secDynDead)
	if err != nil {
		return nil, 0, err
	}
	deadIDs := d.Ints()
	if err := d.Finish(); err != nil {
		return nil, 0, fmt.Errorf("core: dynamic tombstones: %w", err)
	}
	if len(deadIDs) != di.deadCount {
		return nil, 0, fmt.Errorf("%w: %d tombstones, meta says %d", snap.ErrChecksum, len(deadIDs), di.deadCount)
	}
	for _, id := range deadIDs {
		if id < 0 || id >= di.items.Rows || di.dead.has(id) {
			return nil, 0, fmt.Errorf("%w: tombstone %d invalid for %d items", snap.ErrChecksum, id, di.items.Rows)
		}
		di.dead.set(id)
	}

	di.shards = make([]*dynShard, nShards)
	for s := range di.shards {
		sh, err := loadDynShard(f, s, nShards, di)
		if err != nil {
			return nil, 0, err
		}
		di.shards[s] = sh
	}
	di.eng = engine.New(&dynKernel{di: di}, workers)
	return di, lastSeq, nil
}

func loadDynShard(f *snap.File, s, nShards int, di *DynamicIndex) (*dynShard, error) {
	payload, ok := f.Section(dynShardTag(s))
	if !ok {
		return nil, fmt.Errorf("%w: dynamic snapshot missing shard section %q", snap.ErrChecksum, dynShardTag(s))
	}
	d := snap.NewDecoder(payload)
	sh := &dynShard{}
	if d.Bool() {
		mainBytes := d.Bytes8()
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("core: shard %d: %w", s, err)
		}
		main, err := ReadIndex(bytes.NewReader(mainBytes))
		if err != nil {
			return nil, fmt.Errorf("core: shard %d main index: %w", s, err)
		}
		sh.main = main
		sh.ret = NewRetriever(main)
		sh.mainIDs = d.Ints()
	}
	sh.delta = d.Ints()
	deadInMain := int(d.I64())
	sh.rebuilds = int(d.I64())
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("core: shard %d: %w", s, err)
	}
	if sh.main != nil {
		if len(sh.mainIDs) != sh.main.n {
			return nil, fmt.Errorf("%w: shard %d has %d main IDs for %d indexed rows",
				snap.ErrChecksum, s, len(sh.mainIDs), sh.main.n)
		}
		if sh.main.d != di.d {
			return nil, fmt.Errorf("%w: shard %d main index has d=%d, want %d", snap.ErrChecksum, s, sh.main.d, di.d)
		}
	}
	if sh.rebuilds < 0 {
		return nil, fmt.Errorf("%w: shard %d rebuilds=%d", snap.ErrChecksum, s, sh.rebuilds)
	}
	// Ownership and ordering: every ID must belong to this shard, be a
	// real catalog row, and mainIDs must ascend (Delete binary-searches).
	// deadInMain is recounted from the tombstone set; the stored copy is
	// only cross-checked.
	prev := -1
	for _, id := range sh.mainIDs {
		if id <= prev || id >= di.items.Rows || id%nShards != s {
			return nil, fmt.Errorf("%w: shard %d main ID %d out of place", snap.ErrChecksum, s, id)
		}
		prev = id
		if di.dead.has(id) {
			sh.deadInMain++
		}
	}
	if deadInMain != sh.deadInMain {
		return nil, fmt.Errorf("%w: shard %d says deadInMain=%d, its main IDs hold %d tombstones",
			snap.ErrChecksum, s, deadInMain, sh.deadInMain)
	}
	// Delta vectors are their IDs' catalog rows: only the IDs are stored.
	for _, id := range sh.delta {
		if id < 0 || id >= di.items.Rows || id%nShards != s {
			return nil, fmt.Errorf("%w: shard %d delta ID %d out of place", snap.ErrChecksum, s, id)
		}
	}
	return sh, nil
}

// WriteSnapshotDir atomically checkpoints the index into dir: the
// snapshot is written to a temporary file, fsynced, and renamed over
// SnapshotFile, so a crash mid-checkpoint leaves the previous
// checkpoint intact.
func WriteSnapshotDir(dir string, di *DynamicIndex, lastSeq uint64) error {
	tmp := filepath.Join(dir, SnapshotFile+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := di.SaveSnapshot(f, lastSeq); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, SnapshotFile)); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Recovered is the result of OpenRecovered: the reconstructed index and
// the open WAL positioned to accept the next mutation.
type Recovered struct {
	Index *DynamicIndex
	WAL   *snap.WAL
	// SnapshotSeq is the checkpoint's WAL sequence; Replayed counts the
	// log records applied on top of it (for the wal_replays metrics).
	SnapshotSeq uint64
	Replayed    int
	// TornTail is true when the WAL ended mid-record and was repaired
	// back to the acknowledged prefix — the expected state after a crash
	// during an append.
	TornTail bool
}

// OpenRecovered restores a DynamicIndex from dir (snapshot + WAL
// replay) and returns it with the repaired, append-ready WAL. When the
// directory has no snapshot it returns ErrNoSnapshot — build the
// initial index, checkpoint it with WriteSnapshotDir, then call again.
// Any other failure wraps a snap sentinel; a torn WAL tail is NOT a
// failure (it is repaired, and only unacknowledged bytes are lost).
//
// When ctx carries an obs span, recovery is traced as "snapshot.load"
// and "wal.replay" children, so a slow boot shows where the time went.
func OpenRecovered(ctx context.Context, dir string, workers, syncEvery int) (*Recovered, error) {
	snapPath := filepath.Join(dir, SnapshotFile)
	f, err := os.Open(snapPath)
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrNoSnapshot
	}
	if err != nil {
		return nil, err
	}
	_, lsp := obs.StartSpan(ctx, "snapshot.load")
	di, lastSeq, err := LoadSnapshot(f, workers)
	_ = f.Close()
	if lsp != nil {
		lsp.AttrStr("file", snapPath)
		lsp.End()
	}
	if err != nil {
		return nil, err
	}

	_, rsp := obs.StartSpan(ctx, "wal.replay")
	rec, err := replayInto(di, dir, lastSeq, syncEvery)
	if rsp != nil {
		if rec != nil {
			rsp.AttrInt("records", int64(rec.Replayed))
		}
		rsp.End()
	}
	return rec, err
}

func replayInto(di *DynamicIndex, dir string, lastSeq uint64, syncEvery int) (*Recovered, error) {
	w, rp, err := snap.OpenWAL(filepath.Join(dir, WALFile), di.d, syncEvery, lastSeq)
	if err != nil {
		return nil, err
	}
	rec := &Recovered{Index: di, WAL: w, SnapshotSeq: lastSeq, TornTail: rp.Torn}
	for _, r := range rp.Records {
		if r.Seq <= lastSeq {
			// The checkpoint covered this record; a crash between the
			// snapshot rename and the WAL reset leaves such records
			// behind, and replaying them would double-apply.
			continue
		}
		if err := applyWALRecord(di, r); err != nil {
			_ = w.Close()
			return nil, err
		}
		rec.Replayed++
	}
	return rec, nil
}

// applyWALRecord applies one logged mutation during recovery, strictly:
// any disagreement between the log and the snapshot state is
// corruption, not something to paper over.
func applyWALRecord(di *DynamicIndex, r snap.WALRecord) error {
	switch r.Op {
	case snap.WALAdd:
		if int(r.ID) != di.NextID() {
			return fmt.Errorf("%w: WAL record %d adds ID %d, catalog expects %d",
				snap.ErrChecksum, r.Seq, r.ID, di.NextID())
		}
		if _, err := di.Add(r.Vec); err != nil {
			return fmt.Errorf("%w: WAL record %d: %v", snap.ErrChecksum, r.Seq, err)
		}
	case snap.WALDelete:
		if err := di.Delete(int(r.ID)); err != nil {
			return fmt.Errorf("%w: WAL record %d: %v", snap.ErrChecksum, r.Seq, err)
		}
	default:
		return fmt.Errorf("%w: WAL record %d has unknown op %q", snap.ErrChecksum, r.Seq, byte(r.Op))
	}
	return nil
}

package core

import (
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
//	current.snap — the last checkpoint: the DynamicIndex state (catalog,
//	               tombstones, and per shard the IDs under its main index
//	               and in its delta buffer — not the preprocessed indexes,
//	               which recovery rebuilds from those rows) plus the WAL
//	               sequence number the checkpoint covers.
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

// shardStateOnly is the first payload byte of a shard section, naming
// its layout: mainIDs, delta, deadInMain, rebuilds. (0 and 1 were the
// layouts that embedded the shard's index; nothing reads them any more.)
const shardStateOnly = 2

// SaveSnapshot writes the index's state as a fexsnap/v1 container: the
// catalog, the tombstones, and per shard which catalog rows its main
// index was built over and which wait in its delta buffer. The main
// indexes themselves are not stored — LoadSnapshot re-derives each from
// its rows, and gets the same bytes (DESIGN.md §15). lastSeq is the WAL
// sequence number this state covers: replaying records with larger
// sequence numbers on top of the loaded snapshot reproduces the live
// index.
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
		b.Section(dynShardTag(s), func(e *snap.Encoder) {
			e.U8(shardStateOnly)
			e.Ints(sh.mainIDs)
			e.Ints(sh.delta)
			e.I64(int64(sh.deadInMain))
			e.I64(int64(sh.rebuilds))
		})
	}
	return b.Flush(w)
}

// LoadSnapshot reads a snapshot written by SaveSnapshot, rebuilds every
// shard's main index from the catalog rows it names, and returns the
// index plus the WAL sequence number it covers. workers sizes the query
// engine exactly as in NewDynamicIndexSharded. A file that cannot be a
// SaveSnapshot of any index fails with an error wrapping a snap sentinel;
// one whose bytes are in order but whose catalog NewIndex refuses, with
// one wrapping ErrRebuild.
func LoadSnapshot(r io.Reader, workers int) (*DynamicIndex, uint64, error) {
	return loadSnapshot(context.Background(), r, workers)
}

// loadSnapshot is LoadSnapshot under a span: "snapshot.read" covers
// reading, verifying and decoding the state, one "index.rebuild" per
// shard the derivation.
func loadSnapshot(ctx context.Context, r io.Reader, workers int) (*DynamicIndex, uint64, error) {
	_, rsp := obs.StartSpan(ctx, "snapshot.read")
	di, lastSeq, err := readDynState(r)
	rsp.End()
	if err != nil {
		return nil, 0, err
	}
	if err := di.deriveMains(ctx); err != nil {
		return nil, 0, err
	}
	di.eng = engine.New(&dynKernel{di: di}, workers)
	return di, lastSeq, nil
}

// readDynState decodes and cross-checks everything a snapshot stores: a
// DynamicIndex complete but for its engine and the main indexes that go
// with each shard's mainIDs.
func readDynState(r io.Reader) (*DynamicIndex, uint64, error) {
	f, err := snap.Read(r)
	if err != nil {
		return nil, 0, fmt.Errorf("core: reading dynamic snapshot: %w", err)
	}
	d, err := sectionDecoder(f, secDynMeta)
	if err != nil {
		return nil, 0, err
	}
	lastSeq := d.U64()
	di := &DynamicIndex{}
	if di.opts, err = decodeOptions(d); err != nil {
		return nil, 0, err
	}
	di.d = int(d.I64())
	di.rebuild = d.F64()
	nShards := int(d.I64())
	di.deadCount = int(d.I64())
	if err := d.Finish(); err != nil {
		return nil, 0, fmt.Errorf("core: dynamic meta: %w", err)
	}
	if di.d < 1 || !(di.rebuild > 0) || nShards < 1 || nShards > 1<<20 || di.deadCount < 0 {
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
	// NewIndex and Add let no other kind of row into a catalog, and the
	// delta rows below reach a scan without passing either again.
	for id := 0; id < di.items.Rows; id++ {
		if err := checkItem(di.items.Row(id), "catalog row"); err != nil {
			return nil, 0, fmt.Errorf("%w: item %d: %v", snap.ErrChecksum, id, err)
		}
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
	var placed tombstones // IDs some shard lists, in mainIDs or delta
	for s := range di.shards {
		if di.shards[s], err = readDynShard(f, s, di, &placed); err != nil {
			return nil, 0, err
		}
	}
	// Every live item must be in reach of a scan. (A dead one may be in
	// neither list: a rebuild compacted it away.)
	for id := 0; id < di.items.Rows; id++ {
		if !di.dead.has(id) && !placed.has(id) {
			return nil, 0, fmt.Errorf("%w: live item %d is in no shard's main index or delta buffer", snap.ErrChecksum, id)
		}
	}
	return di, lastSeq, nil
}

// readDynShard decodes shard s's section into the shard's state, marking
// each ID it lists in placed.
func readDynShard(f *snap.File, s int, di *DynamicIndex, placed *tombstones) (*dynShard, error) {
	d, err := sectionDecoder(f, dynShardTag(s))
	if err != nil {
		return nil, err
	}
	if layout := d.U8(); layout != shardStateOnly {
		return nil, fmt.Errorf("%w: shard %d has unknown section layout %d", snap.ErrChecksum, s, layout)
	}
	sh := &dynShard{mainIDs: d.Ints()}
	sh.delta = d.Ints()
	deadInMain := int(d.I64())
	sh.rebuilds = int(d.I64())
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("core: shard %d: %w", s, err)
	}
	if sh.rebuilds < 0 {
		return nil, fmt.Errorf("%w: shard %d rebuilds=%d", snap.ErrChecksum, s, sh.rebuilds)
	}
	// Ownership, ordering and coverage: every ID must belong to this shard
	// and be a real catalog row, mainIDs must ascend (Delete binary-searches)
	// and no ID may be listed twice, or a scan would offer it twice.
	// deadInMain is recounted from the tombstone set; the stored copy is
	// only cross-checked.
	S := len(di.shards)
	prev := -1
	for _, id := range sh.mainIDs {
		if id <= prev || id >= di.items.Rows || id%S != s {
			return nil, fmt.Errorf("%w: shard %d main ID %d out of place", snap.ErrChecksum, s, id)
		}
		prev = id
		placed.set(id)
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
		if id < 0 || id >= di.items.Rows || id%S != s || placed.has(id) {
			return nil, fmt.Errorf("%w: shard %d delta ID %d out of place or listed twice", snap.ErrChecksum, s, id)
		}
		placed.set(id)
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
	lctx, lsp := obs.StartSpan(ctx, "snapshot.load")
	di, lastSeq, err := loadSnapshot(lctx, f, workers)
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

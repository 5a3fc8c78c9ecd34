package core_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fexipro/internal/core"
	"fexipro/internal/faults"
	"fexipro/internal/obs"
	"fexipro/internal/snap"
	"fexipro/internal/topk"
	"fexipro/internal/vec"
)

// The crash-recovery battery (ISSUE 8): a data directory must recover a
// prefix-consistent, bit-identical state from a WAL cut at EVERY byte
// offset, and detect (never absorb) a flipped bit — the "exact after a
// crash at any byte" claim of DESIGN.md §15, tested literally.

// mutation is one scripted DynamicIndex update.
type mutation struct {
	del bool
	id  int       // delete target
	vec []float64 // add payload
}

// recoverFixture is a seeded instance: initial catalog, a mutation
// script, probe queries, and reference states at every prefix length.
type recoverFixture struct {
	initial *vec.Matrix
	opts    core.Options
	muts    []mutation
	queries [][]float64
}

func newRecoverFixture(t *testing.T) *recoverFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(20260808))
	const d, n = 5, 20
	fx := &recoverFixture{
		initial: vec.NewMatrix(n, d),
		opts:    core.Options{SVD: true, Int: true, Reduction: true},
	}
	for i := range fx.initial.Data {
		fx.initial.Data[i] = rng.NormFloat64()
	}
	live := make([]int, n)
	for i := range live {
		live[i] = i
	}
	next := n
	for m := 0; m < 18; m++ {
		if m%3 == 2 && len(live) > 4 {
			pick := rng.Intn(len(live))
			fx.muts = append(fx.muts, mutation{del: true, id: live[pick]})
			live = append(live[:pick], live[pick+1:]...)
			continue
		}
		v := make([]float64, d)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		fx.muts = append(fx.muts, mutation{vec: v})
		live = append(live, next)
		next++
	}
	for q := 0; q < 3; q++ {
		v := make([]float64, d)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		fx.queries = append(fx.queries, v)
	}
	return fx
}

// build returns a fresh index with the first n mutations applied — the
// in-memory reference the recovered state must match bit-for-bit.
func (fx *recoverFixture) build(t *testing.T, n int) *core.DynamicIndex {
	t.Helper()
	di, err := core.NewDynamicIndexSharded(fx.initial, fx.opts, 0.25, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := fx.apply(di, fx.muts[i]); err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
	}
	return di
}

func (fx *recoverFixture) apply(di *core.DynamicIndex, m mutation) error {
	if m.del {
		return di.Delete(m.id)
	}
	_, err := di.Add(m.vec)
	return err
}

// assertSameResults compares two indexes bit-for-bit on the fixture's
// probe queries plus catalog shape.
func (fx *recoverFixture) assertSameResults(t *testing.T, label string, got, want *core.DynamicIndex) {
	t.Helper()
	if got.Len() != want.Len() || got.NextID() != want.NextID() {
		t.Fatalf("%s: catalog shape %d/%d, want %d/%d", label, got.Len(), got.NextID(), want.Len(), want.NextID())
	}
	for qi, q := range fx.queries {
		gres := got.Search(q, 5)
		gst := got.Stats()
		wres := want.Search(q, 5)
		wst := want.Stats()
		topk.SortResults(gres)
		topk.SortResults(wres)
		if !reflect.DeepEqual(gres, wres) {
			t.Fatalf("%s: query %d results differ:\n got %v\nwant %v", label, qi, gres, wres)
		}
		if gst != wst {
			t.Fatalf("%s: query %d stats differ: got %+v want %+v", label, qi, gst, wst)
		}
	}
}

// writeDataDir materializes a data directory: the checkpoint at prefix
// length checkpointAt, and the given WAL bytes.
func writeDataDir(t *testing.T, di *core.DynamicIndex, lastSeq uint64, wal []byte) string {
	t.Helper()
	dir := t.TempDir()
	if err := core.WriteSnapshotDir(dir, di, lastSeq); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, core.WALFile), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// buildWAL logs muts[from:] into a fresh WAL file starting after
// baseSeq and returns the raw bytes.
func buildWAL(t *testing.T, fx *recoverFixture, from int, baseSeq uint64) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), core.WALFile)
	w, _, err := snap.OpenWAL(path, fx.initial.Cols, 1, baseSeq)
	if err != nil {
		t.Fatal(err)
	}
	// IDs for adds follow the catalog: initial rows, then one per add.
	nextID := fx.initial.Rows
	for i := 0; i < from; i++ {
		if !fx.muts[i].del {
			nextID++
		}
	}
	for _, m := range fx.muts[from:] {
		if m.del {
			if _, err := w.Append(snap.WALDelete, int64(m.id), nil); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if _, err := w.Append(snap.WALAdd, int64(nextID), m.vec); err != nil {
			t.Fatal(err)
		}
		nextID++
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func openRecovered(dir string) (*core.Recovered, error) {
	rec, err := core.OpenRecovered(context.Background(), dir, 1, 1)
	if err != nil {
		return nil, err
	}
	_ = rec.WAL.Close()
	return rec, nil
}

// TestRecoverSnapshotOnly: checkpoint, empty WAL, recovery equals the
// checkpointed state exactly.
func TestRecoverSnapshotOnly(t *testing.T) {
	fx := newRecoverFixture(t)
	full := fx.build(t, len(fx.muts))
	dir := t.TempDir()
	if err := core.WriteSnapshotDir(dir, full, 7); err != nil {
		t.Fatal(err)
	}
	rec, err := openRecovered(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotSeq != 7 || rec.Replayed != 0 || rec.TornTail {
		t.Fatalf("recovered meta %+v", rec)
	}
	fx.assertSameResults(t, "snapshot-only", rec.Index, full)
	if rec.Index.Shards() != full.Shards() || !reflect.DeepEqual(rec.Index.Rebuilds(), full.Rebuilds()) {
		t.Fatalf("shard state differs: %v vs %v", rec.Index.Rebuilds(), full.Rebuilds())
	}
}

// TestRecoverNoSnapshot: an empty directory is ErrNoSnapshot, the
// build-then-checkpoint signal.
func TestRecoverNoSnapshot(t *testing.T) {
	_, err := core.OpenRecovered(context.Background(), t.TempDir(), 1, 1)
	if !errors.Is(err, core.ErrNoSnapshot) {
		t.Fatalf("got %v, want ErrNoSnapshot", err)
	}
}

// TestRecoverWALTruncationEveryByte is the headline property: with the
// checkpoint at mutation 6 and the remaining 12 mutations in the WAL,
// cut the WAL at EVERY byte offset; recovery must restore exactly the
// acknowledged prefix the surviving records describe, bit-identical to
// an in-memory index that applied the same prefix.
func TestRecoverWALTruncationEveryByte(t *testing.T) {
	fx := newRecoverFixture(t)
	const checkpointAt = 6
	base := fx.build(t, checkpointAt)
	wal := buildWAL(t, fx, checkpointAt, 0)

	// Reference states for every achievable prefix, built once.
	refs := make([]*core.DynamicIndex, len(fx.muts)+1)
	for n := checkpointAt; n <= len(fx.muts); n++ {
		refs[n] = fx.build(t, n)
	}

	for cut := 0; cut <= len(wal); cut++ {
		dir := writeDataDir(t, base, 0, wal[:cut])
		rec, err := openRecovered(dir)
		if err != nil {
			// Only a cut inside the 16-byte WAL header may fail (the file
			// is not recognizably a WAL); a zero-byte file reads as fresh.
			if cut == 0 || cut >= 16 {
				t.Fatalf("cut %d: %v", cut, err)
			}
			if !errors.Is(err, snap.ErrTruncated) && !errors.Is(err, snap.ErrBadMagic) {
				t.Fatalf("cut %d: untyped error %v", cut, err)
			}
			continue
		}
		prefix := checkpointAt + rec.Replayed
		fx.assertSameResults(t, "truncated WAL", rec.Index, refs[prefix])
	}
}

// TestRecoverWALBitFlipEveryByte flips one bit at every post-header WAL
// offset: recovery must fail typed or restore a true acknowledged
// prefix — never a silently wrong index.
func TestRecoverWALBitFlipEveryByte(t *testing.T) {
	fx := newRecoverFixture(t)
	const checkpointAt = 6
	base := fx.build(t, checkpointAt)
	wal := buildWAL(t, fx, checkpointAt, 0)
	refs := make([]*core.DynamicIndex, len(fx.muts)+1)
	for n := checkpointAt; n <= len(fx.muts); n++ {
		refs[n] = fx.build(t, n)
	}

	for off := 16; off < len(wal); off++ {
		b := append([]byte(nil), wal...)
		b[off] ^= 0x20
		dir := writeDataDir(t, base, 0, b)
		rec, err := openRecovered(dir)
		if err != nil {
			if !errors.Is(err, snap.ErrChecksum) && !errors.Is(err, snap.ErrTruncated) && !errors.Is(err, snap.ErrBadMagic) {
				t.Fatalf("flip %d: untyped error %v", off, err)
			}
			continue
		}
		prefix := checkpointAt + rec.Replayed
		fx.assertSameResults(t, "flipped WAL", rec.Index, refs[prefix])
	}
}

// TestRecoverSnapshotBitFlipPerSection flips one payload bit in every
// section of the snapshot container: the load must fail with a typed
// error (the CRC gate), never produce an index.
func TestRecoverSnapshotBitFlipPerSection(t *testing.T) {
	fx := newRecoverFixture(t)
	full := fx.build(t, len(fx.muts))
	var buf bytes.Buffer
	if err := full.SaveSnapshot(&buf, 9); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	f, err := snap.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	// Walk the container layout to find each payload's file offset.
	off := 16
	for _, s := range f.Sections {
		payloadOff := off + 24
		if len(s.Payload) > 0 {
			b := append([]byte(nil), raw...)
			b[payloadOff+len(s.Payload)/2] ^= 0x01
			_, _, err := core.LoadSnapshot(bytes.NewReader(b), 1)
			if err == nil {
				t.Fatalf("section %q: flipped payload loaded successfully", s.Tag)
			}
			if !errors.Is(err, snap.ErrChecksum) && !errors.Is(err, snap.ErrTruncated) {
				t.Fatalf("section %q: untyped error %v", s.Tag, err)
			}
		}
		off = payloadOff + len(s.Payload) + (8-len(s.Payload)%8)%8
	}
}

// TestLoadSnapshotRejectsLyingTombstoneCount re-encodes a valid
// snapshot with one shard's stored deadInMain off by one in either
// direction — every CRC correct, so only the cross-check against the
// tombstone set ∩ main IDs can notice. A count the loader believed would
// move the shard's rebuild trigger; it must be refused as ErrChecksum.
func TestLoadSnapshotRejectsLyingTombstoneCount(t *testing.T) {
	fx := newRecoverFixture(t)
	di, err := core.NewDynamicIndexSharded(fx.initial, fx.opts, 0.5, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{0, 1} { // one tombstone in each shard's main index
		if err := di.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := di.SaveSnapshot(&buf, 4); err != nil {
		t.Fatal(err)
	}
	f, err := snap.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	reencode := func(shardTag string, delta int64) []byte {
		secs := append([]snap.Section(nil), f.Sections...)
		for i, sec := range secs {
			if sec.Tag != shardTag {
				continue
			}
			// The shard payload ends …, deadInMain i64, rebuilds i64.
			p := append([]byte(nil), sec.Payload...)
			at := p[len(p)-16 : len(p)-8]
			if got := int64(binary.LittleEndian.Uint64(at)); got != 1 {
				t.Fatalf("%s stores deadInMain=%d, want 1", shardTag, got)
			}
			binary.LittleEndian.PutUint64(at, uint64(1+delta))
			secs[i].Payload = p
		}
		var out bytes.Buffer
		if err := snap.Write(&out, secs); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	if same := reencode("none", 0); !bytes.Equal(same, buf.Bytes()) {
		t.Fatal("re-encoding the untouched sections changed the file")
	}
	for _, tag := range []string{"dsh0000", "dsh0001"} {
		for _, delta := range []int64{-1, 1} {
			_, _, err := core.LoadSnapshot(bytes.NewReader(reencode(tag, delta)), 1)
			if !errors.Is(err, snap.ErrChecksum) {
				t.Fatalf("%s deadInMain%+d: load returned %v, want ErrChecksum", tag, delta, err)
			}
		}
	}
}

// TestRecoverCheckpointRace covers the crash window between the
// snapshot rename and the WAL reset: the WAL still holds records the
// checkpoint already covers, and replay must skip exactly those.
func TestRecoverCheckpointRace(t *testing.T) {
	fx := newRecoverFixture(t)
	const checkpointAt = 10
	mid := fx.build(t, checkpointAt)
	// The WAL holds ALL 18 mutations (seq 1..18); the snapshot covers
	// through seq 10. Recovery must apply only records 11..18.
	wal := buildWAL(t, fx, 0, 0)
	dir := writeDataDir(t, mid, checkpointAt, wal)
	rec, err := openRecovered(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Replayed != len(fx.muts)-checkpointAt {
		t.Fatalf("replayed %d records, want %d", rec.Replayed, len(fx.muts)-checkpointAt)
	}
	fx.assertSameResults(t, "checkpoint race", rec.Index, fx.build(t, len(fx.muts)))
}

// TestRecoverAfterInjectedTornWrite drives the whole loop the way the
// server does, with faults.SiteWALWrite tearing a deterministic append:
// the unacknowledged mutation must be absent after recovery, everything
// acknowledged must be present.
func TestRecoverAfterInjectedTornWrite(t *testing.T) {
	fx := newRecoverFixture(t)
	const checkpointAt = 6
	live := fx.build(t, checkpointAt)
	dir := t.TempDir()
	if err := core.WriteSnapshotDir(dir, live, 0); err != nil {
		t.Fatal(err)
	}
	w, _, err := snap.OpenWAL(filepath.Join(dir, core.WALFile), fx.initial.Cols, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := faults.NewRegistry(7)
	w.SetFaultHook(reg.Enable(faults.SiteWALWrite, faults.Plan{FailEveryNCalls: 5}))

	// Server loop: append, and only on success apply + acknowledge.
	acked := checkpointAt
	nextID := live.NextID()
	for _, m := range fx.muts[checkpointAt:] {
		var err error
		if m.del {
			_, err = w.Append(snap.WALDelete, int64(m.id), nil)
		} else {
			_, err = w.Append(snap.WALAdd, int64(nextID), m.vec)
		}
		if err != nil {
			if !errors.Is(err, faults.ErrInjected) {
				t.Fatal(err)
			}
			break // crash: mutation never applied, never acknowledged
		}
		if err := fx.apply(live, m); err != nil {
			t.Fatal(err)
		}
		if !m.del {
			nextID++
		}
		acked++
	}
	if acked != checkpointAt+4 {
		t.Fatalf("fault fired after %d acks, want %d", acked-checkpointAt, 4)
	}
	_ = w.Close()

	rec, err := openRecovered(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.TornTail {
		t.Fatal("recovery saw no torn tail after the injected torn write")
	}
	if rec.Replayed != acked-checkpointAt {
		t.Fatalf("replayed %d, want %d", rec.Replayed, acked-checkpointAt)
	}
	fx.assertSameResults(t, "torn write", rec.Index, fx.build(t, acked))
}

// TestSaveSnapshotDeterministic: two saves of the same state are
// byte-identical (map iteration must not leak into the file).
func TestSaveSnapshotDeterministic(t *testing.T) {
	fx := newRecoverFixture(t)
	di := fx.build(t, len(fx.muts))
	var a, b bytes.Buffer
	if err := di.SaveSnapshot(&a, 3); err != nil {
		t.Fatal(err)
	}
	if err := di.SaveSnapshot(&b, 3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two saves of the same state differ")
	}
}

// TestRecoverSpans: a traced recovery says where boot time went —
// "snapshot.load" with one "snapshot.read" and one "index.rebuild" per
// shard (shard, rows) under it, then "wal.replay" with its record count.
func TestRecoverSpans(t *testing.T) {
	fx := newRecoverFixture(t)
	const checkpointAt = 6
	dir := writeDataDir(t, fx.build(t, checkpointAt), 0, buildWAL(t, fx, checkpointAt, 0))
	root := obs.NewRoot("boot")
	rec, err := core.OpenRecovered(obs.ContextWithSpan(context.Background(), root), dir, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	_ = rec.WAL.Close()
	root.End()
	tree := root.Snapshot()
	if len(tree.Children) != 2 || tree.Children[0].Name != "snapshot.load" || tree.Children[1].Name != "wal.replay" {
		t.Fatalf("boot spans: %+v", tree.Children)
	}
	if got := tree.Children[1].Attrs["records"]; got != int64(len(fx.muts)-checkpointAt) {
		t.Fatalf("wal.replay records = %v, want %d", got, len(fx.muts)-checkpointAt)
	}
	load := tree.Children[0].Children
	if len(load) != 3 || load[0].Name != "snapshot.read" {
		t.Fatalf("snapshot.load children: %+v", load)
	}
	shards := map[any]bool{}
	for _, sp := range load[1:] {
		// Ten initial rows per shard, give or take the six mutations.
		if rows, _ := sp.Attrs["rows"].(int64); sp.Name != "index.rebuild" || rows < 8 || rows > 14 {
			t.Fatalf("snapshot.load child %q over %v rows, want index.rebuild over about ten", sp.Name, sp.Attrs["rows"])
		}
		shards[sp.Attrs["shard"]] = true
	}
	if !shards[int64(0)] || !shards[int64(1)] {
		t.Fatalf("index.rebuild spans cover shards %v, want 0 and 1", shards)
	}
}

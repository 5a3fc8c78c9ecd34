package core_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"fexipro/internal/core"
	"fexipro/internal/data"
	"fexipro/internal/snap"
)

// Golden fixtures pin the on-disk fexsnap/v1 format: the committed
// bytes were written by the Save code of the commit that introduced
// them, so any later encoding change — field order, widths, section
// layout — fails these tests instead of silently orphaning every
// snapshot in production. They were last regenerated when Save stopped
// writing the tables ReadIndex derives (idx.tail, idx.ints, idx.red);
// testdata/fexidx_int32_tail.snap is kept in the format before that, and
// TestInt32TailFixture holds today's reader to it. Regenerate (only after
// a DELIBERATE format change, which keeps older files loading) with:
//
//	UPDATE_SNAP_GOLDEN=1 go test ./internal/core/ -run TestWriteGoldenSnapshots
const (
	goldenSnapFile    = "fexsnap_v1_movielens.snap"
	goldenUnknownFile = "fexsnap_v1_unknown_section.snap"
)

// goldenIndex builds the fixture index: a seeded 200×16 MovieLens-like
// item set through the full FEXIPRO pipeline (SVD + integer +
// reduction), so the optional idx.svd section appears in the container.
func goldenIndex(t testing.TB) (*core.Index, *data.Dataset) {
	t.Helper()
	ds := data.Generate(data.MovieLens(), 200, 8, 16)
	idx, err := core.NewIndex(ds.Items, core.Options{SVD: true, Int: true, Reduction: true})
	if err != nil {
		t.Fatal(err)
	}
	return idx, ds
}

// TestWriteGoldenSnapshots regenerates the committed fixtures. Gated on
// UPDATE_SNAP_GOLDEN so a normal test run never rewrites what it is
// supposed to verify.
func TestWriteGoldenSnapshots(t *testing.T) {
	if os.Getenv("UPDATE_SNAP_GOLDEN") == "" {
		t.Skip("set UPDATE_SNAP_GOLDEN=1 to regenerate golden snapshots")
	}
	idx, _ := goldenIndex(t)
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("testdata", goldenSnapFile), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// The forward-compat fixture is the same index with an extra section
	// a newer writer might add: readers must checksum and skip it.
	f, err := snap.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var b snap.Builder
	for i, s := range f.Sections {
		b.Raw(s.Tag, s.Payload)
		if i == 0 {
			b.Raw("zz.v2ext", []byte("payload from a future format revision"))
		}
	}
	var fut bytes.Buffer
	if err := b.Flush(&fut); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("testdata", goldenUnknownFile), fut.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenSnapshotBitIdentical loads the committed fixture and
// requires (a) today's Save to reproduce its bytes exactly — format
// stability AND build determinism — and (b) the loaded index to answer
// the dataset's own queries bit-identically to a freshly built one,
// stage counters included.
func TestGoldenSnapshotBitIdentical(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", goldenSnapFile))
	if err != nil {
		t.Fatal(err)
	}
	fresh, ds := goldenIndex(t)

	var resaved bytes.Buffer
	if err := fresh.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), want) {
		t.Fatalf("Save produced %d bytes that differ from the %d-byte golden fixture: the fexsnap/v1 encoding changed (if deliberate, bump the format and regenerate with UPDATE_SNAP_GOLDEN=1)",
			resaved.Len(), len(want))
	}

	loaded, err := core.ReadIndex(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("loading golden fixture: %v", err)
	}
	assertGoldenEquivalent(t, fresh, loaded, ds)
}

// TestGoldenUnknownSectionForwardCompat: a fixture containing a section
// tag no current reader knows must still load (the unknown payload is
// checksummed and skipped) and answer identically — old binaries can
// read files written by newer ones.
func TestGoldenUnknownSectionForwardCompat(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", goldenUnknownFile))
	if err != nil {
		t.Fatal(err)
	}
	f, err := snap.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("parsing unknown-section fixture: %v", err)
	}
	if _, ok := f.Section("zz.v2ext"); !ok {
		t.Fatal("fixture lost its unknown section: it no longer tests forward compatibility")
	}
	loaded, err := core.ReadIndex(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("loading fixture with unknown section: %v", err)
	}
	fresh, ds := goldenIndex(t)
	assertGoldenEquivalent(t, fresh, loaded, ds)
}

func assertGoldenEquivalent(t *testing.T, fresh, loaded *core.Index, ds *data.Dataset) {
	t.Helper()
	rf, rl := core.NewRetriever(fresh), core.NewRetriever(loaded)
	for qi := 0; qi < ds.Queries.Rows; qi++ {
		q := ds.Queries.Row(qi)
		want := rf.Search(q, 10)
		got := rl.Search(q, 10)
		if len(got) != len(want) {
			t.Fatalf("query %d: loaded returned %d results, fresh %d", qi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %d rank %d: loaded %+v, fresh %+v", qi, i, got[i], want[i])
			}
		}
		if rf.Stats() != rl.Stats() {
			t.Fatalf("query %d: stage counters diverged: fresh %+v, loaded %+v", qi, rf.Stats(), rl.Stats())
		}
	}
}

package snap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fexipro/internal/faults"
)

func walFixture(t *testing.T, dim int, recs []WALRecord) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "dyn.wal")
	w, rp, err := OpenWAL(path, dim, 1, 0)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	if len(rp.Records) != 0 || rp.Torn {
		t.Fatalf("fresh WAL replayed %+v", rp)
	}
	for _, rec := range recs {
		seq, err := w.Append(rec.Op, rec.ID, rec.Vec)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		if seq != rec.Seq {
			t.Fatalf("Append assigned seq %d, want %d", seq, rec.Seq)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, raw
}

func sampleRecords() []WALRecord {
	return []WALRecord{
		{Seq: 1, Op: WALAdd, ID: 10, Vec: []float64{1, -2.5, math.Pi}},
		{Seq: 2, Op: WALAdd, ID: 11, Vec: []float64{0, 0, -0.125}},
		{Seq: 3, Op: WALDelete, ID: 10},
		{Seq: 4, Op: WALAdd, ID: 12, Vec: []float64{9, 8, 7}},
	}
}

// usedLen replays raw and returns the length of its log: the header and
// every intact record, without the zero tail.
func usedLen(t *testing.T, raw []byte) int {
	t.Helper()
	rp, err := ReplayWAL(bytes.NewReader(raw))
	if err != nil || rp.Torn {
		t.Fatalf("replay: torn %v, %v", rp != nil && rp.Torn, err)
	}
	return int(rp.ValidLen)
}

// recordEnds returns the offset at which each of recs ends when logged
// one after another behind the header.
func recordEnds(recs []WALRecord) []int {
	ends := make([]int, len(recs))
	at := walHdrLen
	for i, rec := range recs {
		at += len(appendWALRecord(nil, rec))
		ends[i] = at
	}
	return ends
}

// checkPrefix fails unless got is recs[:len(got)].
func checkPrefix(t *testing.T, label string, got, recs []WALRecord) {
	t.Helper()
	if len(got) > len(recs) {
		t.Fatalf("%s: replayed %d records from %d", label, len(got), len(recs))
	}
	for i, rec := range got {
		if !reflect.DeepEqual(rec, recs[i]) {
			t.Fatalf("%s: record %d = %+v, want %+v", label, i, rec, recs[i])
		}
	}
}

// TestWALRoundTrip: the file is the header, the records and a zero tail
// to one segment; the log's bytes are exactly the header and the framed
// records, as a log that grew record by record held them.
func TestWALRoundTrip(t *testing.T) {
	recs := sampleRecords()
	_, raw := walFixture(t, 3, recs)
	rp, err := ReplayWAL(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReplayWAL: %v", err)
	}
	if rp.Torn {
		t.Error("clean WAL reported torn")
	}
	if rp.Dim != 3 {
		t.Errorf("Dim = %d", rp.Dim)
	}
	if !reflect.DeepEqual(rp.Records, recs) {
		t.Errorf("records = %+v, want %+v", rp.Records, recs)
	}
	var want []byte
	want = append(want, walMagic...)
	want = binary.LittleEndian.AppendUint32(want, walVersion)
	want = binary.LittleEndian.AppendUint32(want, 3)
	for _, rec := range recs {
		want = appendWALRecord(want, rec)
	}
	if rp.ValidLen != int64(len(want)) || !bytes.Equal(raw[:len(want)], want) {
		t.Errorf("log is %d bytes (ValidLen %d), want the %d bytes of header and records", len(raw), rp.ValidLen, len(want))
	}
	if len(raw) != walSegment || !allZero(raw[len(want):]) {
		t.Errorf("file is %d bytes, want %d with a zero tail", len(raw), walSegment)
	}
	if rp.LastSeq() != 4 {
		t.Errorf("LastSeq = %d", rp.LastSeq())
	}
}

// TestWALTruncationEveryByte is the WAL half of the crash battery: cut
// the log at every byte offset and the replay must either fail typed
// (the header itself is gone) or return an intact prefix flagged Torn —
// never an invented or reordered record. A cut inside the zero tail
// loses nothing.
func TestWALTruncationEveryByte(t *testing.T) {
	recs := sampleRecords()
	_, raw := walFixture(t, 3, recs)
	used := usedLen(t, raw)
	for cut := 0; cut <= used; cut++ {
		rp, err := ReplayWAL(bytes.NewReader(raw[:cut]))
		if cut < walHdrLen {
			if err == nil || !typedErr(err) {
				t.Fatalf("cut %d: header truncation gave %v", cut, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if rp.ValidLen > int64(cut) {
			t.Fatalf("cut %d: ValidLen %d beyond the data", cut, rp.ValidLen)
		}
		checkPrefix(t, "cut", rp.Records, recs)
		wantTorn := rp.ValidLen != int64(cut)
		if rp.Torn != wantTorn {
			t.Fatalf("cut %d: Torn = %v, want %v (ValidLen %d)", cut, rp.Torn, wantTorn, rp.ValidLen)
		}
	}
	for _, cut := range []int{used + 1, used + 7, used + 8, used + 9, used + 4096, len(raw)} {
		rp, err := ReplayWAL(bytes.NewReader(raw[:cut]))
		if err != nil || rp.Torn || rp.ValidLen != int64(used) || !reflect.DeepEqual(rp.Records, recs) {
			t.Fatalf("cut %d in the zero tail: %+v, %v", cut, rp, err)
		}
	}
}

// walFixtures are the logs the crash batteries cut, tear and flip: the
// sample at d = 3, and one at d = 8 that ends in three 25-byte deletes,
// which together fit within one maximal (89-byte add) record — the
// window a torn record may span — so a damaged record among them has an
// intact one after it inside that window.
func walFixtures() []struct {
	name string
	dim  int
	recs []WALRecord
} {
	add := func(seq uint64, id int64) WALRecord {
		return WALRecord{Seq: seq, Op: WALAdd, ID: id, Vec: []float64{1, -2, 3, 0.5, 0, -0.25, 7, float64(id)}}
	}
	return []struct {
		name string
		dim  int
		recs []WALRecord
	}{
		{"sample", 3, sampleRecords()},
		{"delete tail", 8, []WALRecord{
			add(1, 20), add(2, 21),
			{Seq: 3, Op: WALDelete, ID: 20}, {Seq: 4, Op: WALDelete, ID: 21}, {Seq: 5, Op: WALDelete, ID: 0},
		}},
	}
}

// TestWALZeroTailEveryCut is the crash battery for a preallocated file:
// keep the log's bytes up to every cut c and zeros after them to the
// file's full length — what a crash mid-append leaves when the record's
// bytes land in order. The replay must be the prefix of records that
// end by c, flagged Torn exactly when c falls inside a record. (A
// record whose bytes after c are zeros anyway — the high bytes of a
// small ID — is whole at c.)
//
// The sectors of one write reach the disk in no set order, so a torn
// record need not be a prefix of itself: any run of its bytes may still
// be zeros while the bytes around the run landed (its first sector
// zeroed and its later bytes kept, among others). The second half zeroes
// every run [from, to) of the record in flight, with zeros after it:
// the replay must be the records before it, Torn, unless the run held
// only zeros (the record is whole) or all of it (the log ends cleanly).
func TestWALZeroTailEveryCut(t *testing.T) {
	for _, fx := range walFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			recs := fx.recs
			_, raw := walFixture(t, fx.dim, recs)
			ends := recordEnds(recs)
			used := ends[len(ends)-1]
			b := make([]byte, len(raw))
			for cut := walHdrLen; cut <= used; cut++ {
				copy(b, raw[:cut])
				clear(b[cut:used])
				rp, err := ReplayWAL(bytes.NewReader(b))
				if err != nil {
					t.Fatalf("cut %d: %v", cut, err)
				}
				whole, validLen := 0, walHdrLen
				for whole < len(ends) && (ends[whole] <= cut || allZero(raw[cut:ends[whole]])) {
					validLen = ends[whole]
					whole++
				}
				checkPrefix(t, "cut", rp.Records, recs)
				if len(rp.Records) != whole {
					t.Fatalf("cut %d: %d records, want the first %d", cut, len(rp.Records), whole)
				}
				if torn := cut > validLen; rp.ValidLen != int64(validLen) || rp.Torn != torn {
					t.Fatalf("cut %d: ValidLen %d torn %v, want %d torn %v", cut, rp.ValidLen, rp.Torn, validLen, torn)
				}
			}

			start := walHdrLen
			for i, end := range ends {
				for from := start; from < end; from++ {
					for to := from + 1; to <= end; to++ {
						copy(b, raw[:end])
						clear(b[end:used])
						clear(b[from:to])
						rp, err := ReplayWAL(bytes.NewReader(b))
						if err != nil {
							t.Fatalf("record %d, zeros at [%d, %d): %v", i+1, from, to, err)
						}
						checkPrefix(t, "hole", rp.Records, recs)
						want, validLen, torn := i, start, true
						switch {
						case bytes.Equal(b[start:end], raw[start:end]):
							want, validLen, torn = i+1, end, false
						case allZero(b[start:end]):
							torn = false
						}
						if len(rp.Records) != want || rp.ValidLen != int64(validLen) || rp.Torn != torn {
							t.Fatalf("record %d, zeros at [%d, %d): %d records, ValidLen %d, torn %v; want %d, %d, %v",
								i+1, from, to, len(rp.Records), rp.ValidLen, rp.Torn, want, validLen, torn)
						}
					}
				}
				start = end
			}
		})
	}
}

// TestWALZeroHeaderMidLog: zeros where a record should be, with records
// after them, are a hole in the log, not its end — replay refuses it
// rather than dropping the acknowledged records behind the hole. That
// holds also when all the data after the hole lies within the span of
// one torn record, if an intact record is among it; only the last
// record's header zeroed reads as a torn tail.
func TestWALZeroHeaderMidLog(t *testing.T) {
	for _, fx := range walFixtures() {
		_, raw := walFixture(t, fx.dim, fx.recs)
		ends := recordEnds(fx.recs)
		n := len(ends)
		for _, zero := range []struct {
			name     string
			from, to int
		}{
			{"header of record 2", ends[0], ends[0] + 8},
			{"all of record 2", ends[0], ends[1]},
			{"records 2 and 3", ends[0], ends[2]},
			{"header of the record before the last", ends[n-3], ends[n-3] + 8},
			{"all of the record before the last", ends[n-3], ends[n-2]},
		} {
			b := append([]byte(nil), raw...)
			clear(b[zero.from:zero.to])
			if _, err := ReplayWAL(bytes.NewReader(b)); !errors.Is(err, ErrChecksum) {
				t.Errorf("%s: %s zeroed: got %v, want ErrChecksum", fx.name, zero.name, err)
			}
		}
		b := append([]byte(nil), raw...)
		clear(b[ends[n-2] : ends[n-2]+8])
		if rp, err := ReplayWAL(bytes.NewReader(b)); err != nil || !rp.Torn || len(rp.Records) != n-1 {
			t.Errorf("%s: header of the last record zeroed: %+v, %v; want %d records, torn", fx.name, rp, err, n-1)
		}
	}
}

// TestWALBitFlipEveryByte flips one bit at every offset of the log and
// the first bytes of its zero tail: replay must never panic, and
// whenever it succeeds the records must still be a prefix of the truth.
// Only a flip inside the final record may cost a record: with zeros
// after it, a damaged last record reads as one torn by a crash (the
// ambiguity DESIGN.md §15.2 states); anywhere else the flip is refused.
func TestWALBitFlipEveryByte(t *testing.T) {
	for _, fx := range walFixtures() {
		recs := fx.recs
		_, raw := walFixture(t, fx.dim, recs)
		ends := recordEnds(recs)
		used := ends[len(ends)-1]
		lastStart := ends[len(ends)-2]
		for off := 0; off < used+64; off++ {
			b := append([]byte(nil), raw...)
			b[off] ^= 0x08
			rp, err := ReplayWAL(bytes.NewReader(b))
			if err != nil {
				if !typedErr(err) {
					t.Fatalf("%s, flip %d: untyped error %v", fx.name, off, err)
				}
				continue
			}
			// A flip inside a payload always breaks that record's CRC, so
			// a successful replay cannot hold a changed record.
			checkPrefix(t, "flip", rp.Records, recs)
			switch short := len(recs) - len(rp.Records); {
			case short == 0:
			case short == 1 && off >= lastStart && off < used && rp.Torn:
			default:
				t.Fatalf("%s, flip %d: replayed %d of %d records (torn %v)", fx.name, off, len(rp.Records), len(recs), rp.Torn)
			}
		}
	}
}

func TestWALCorruptionDetected(t *testing.T) {
	_, raw := walFixture(t, 3, sampleRecords())
	t.Run("payload flip mid-log", func(t *testing.T) {
		b := append([]byte(nil), raw...)
		b[walHdrLen+8+4] ^= 0x01 // inside record 1's payload, not the tail
		_, err := ReplayWAL(bytes.NewReader(b))
		if !errors.Is(err, ErrChecksum) {
			t.Fatalf("got %v, want ErrChecksum", err)
		}
	})
	t.Run("data in the zero tail", func(t *testing.T) {
		b := append([]byte(nil), raw...)
		b[len(b)-1] = 1
		_, err := ReplayWAL(bytes.NewReader(b))
		if !errors.Is(err, ErrChecksum) {
			t.Fatalf("got %v, want ErrChecksum", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		b := append([]byte(nil), raw...)
		b[0] = 'X'
		_, err := ReplayWAL(bytes.NewReader(b))
		if !errors.Is(err, ErrBadMagic) {
			t.Fatalf("got %v, want ErrBadMagic", err)
		}
	})
	t.Run("bad dim", func(t *testing.T) {
		b := append([]byte(nil), raw...)
		putU32(b[12:16], 0)
		_, err := ReplayWAL(bytes.NewReader(b))
		if !errors.Is(err, ErrChecksum) {
			t.Fatalf("got %v, want ErrChecksum", err)
		}
	})
	t.Run("oversized record length", func(t *testing.T) {
		b := append([]byte(nil), raw[:walHdrLen]...)
		var rec [8]byte
		putU32(rec[:4], 1<<30)
		b = append(b, rec[:]...)
		_, err := ReplayWAL(bytes.NewReader(b))
		if !errors.Is(err, ErrChecksum) {
			t.Fatalf("got %v, want ErrChecksum", err)
		}
	})
}

// TestWALReopenRepairsTornTail: OpenWAL on a file that crashed
// mid-append cuts the torn half-record off, zero-fills the tail again
// and continues the sequence exactly where the intact prefix left off —
// for the record torn over the zero tail and for a log that grew record
// by record and was cut.
func TestWALReopenRepairsTornTail(t *testing.T) {
	recs := sampleRecords()
	_, raw := walFixture(t, 3, recs)
	used := usedLen(t, raw)
	torn := append([]byte(nil), raw...)
	clear(torn[used-7 : used])
	for name, file := range map[string][]byte{"over zeros": torn, "growing file": raw[:used-7]} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "dyn.wal")
			if err := os.WriteFile(path, file, 0o644); err != nil {
				t.Fatal(err)
			}
			w, rp, err := OpenWAL(path, 3, 1, 0)
			if err != nil {
				t.Fatalf("OpenWAL on torn file: %v", err)
			}
			if !rp.Torn || len(rp.Records) != len(recs)-1 {
				t.Fatalf("replay = torn %v, %d records", rp.Torn, len(rp.Records))
			}
			if w.NextSeq() != 4 {
				t.Fatalf("NextSeq = %d, want 4", w.NextSeq())
			}
			repaired, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(repaired) != walSegment || !bytes.Equal(repaired[:rp.ValidLen], raw[:rp.ValidLen]) || !allZero(repaired[rp.ValidLen:]) {
				t.Fatalf("repaired file is %d bytes, want the intact prefix and zeros to %d", len(repaired), walSegment)
			}
			if _, err := w.Append(WALAdd, 12, []float64{9, 8, 7}); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			repaired, err = os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			rp2, err := ReplayWAL(bytes.NewReader(repaired))
			if err != nil || rp2.Torn {
				t.Fatalf("replay after repair: %+v, %v", rp2, err)
			}
			want := append(append([]WALRecord(nil), recs[:3]...), WALRecord{Seq: 4, Op: WALAdd, ID: 12, Vec: []float64{9, 8, 7}})
			if !reflect.DeepEqual(rp2.Records, want) {
				t.Fatalf("records after repair = %+v", rp2.Records)
			}
		})
	}
}

// TestWALTornThenShorterRecord: an add torn over the zero tail, a
// reopen, then a delete — a record shorter than the torn one — and a
// replay. Had the repair left the torn bytes behind the new record, the
// replay would read them as data after the log and refuse it.
func TestWALTornThenShorterRecord(t *testing.T) {
	recs := sampleRecords()
	path, raw := walFixture(t, 3, recs)
	ends := recordEnds(recs)
	torn := append([]byte(nil), raw...)
	clear(torn[ends[2]+36 : ends[3]]) // the last add keeps its first 36 bytes, 9.0 among them
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	w, rp, err := OpenWAL(path, 3, 1, 0)
	if err != nil || !rp.Torn || len(rp.Records) != 3 {
		t.Fatalf("reopen: %+v, %v", rp, err)
	}
	if _, err := w.Append(WALDelete, 11, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rp, err = ReplayWAL(bytes.NewReader(after))
	if err != nil || rp.Torn {
		t.Fatalf("replay: %+v, %v", rp, err)
	}
	want := append(append([]WALRecord(nil), recs[:3]...), WALRecord{Seq: 4, Op: WALDelete, ID: 11})
	if !reflect.DeepEqual(rp.Records, want) {
		t.Fatalf("records = %+v, want %+v", rp.Records, want)
	}
}

// TestWALGrowsBySegments: a log that outgrows its first segment is
// extended with zeros to the next multiple of walSegment, also for a
// record longer than one segment.
func TestWALGrowsBySegments(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dyn.wal")
	const dim = 10000 // 80 025-byte add records, each longer than a segment
	w, _, err := OpenWAL(path, dim, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	item := make([]float64, dim)
	var want []WALRecord
	for i := 0; i < 4; i++ {
		item[i] = float64(i + 1)
		seq, err := w.Append(WALAdd, int64(i), item)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, WALRecord{Seq: seq, Op: WALAdd, ID: int64(i), Vec: append([]float64(nil), item...)})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	used := recordEnds(want)[len(want)-1]
	if size := int(walExtent(int64(used))); len(raw) != size || !allZero(raw[used:]) {
		t.Fatalf("file is %d bytes, want %d with a zero tail after %d", len(raw), size, used)
	}
	rp, err := ReplayWAL(bytes.NewReader(raw))
	if err != nil || rp.Torn || !reflect.DeepEqual(rp.Records, want) {
		t.Fatalf("replay of the grown log differs: %v", err)
	}
}

func TestWALBaseSeqAndReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dyn.wal")
	w, _, err := OpenWAL(path, 2, 1, 41)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := w.Append(WALAdd, 0, []float64{1, 2})
	if err != nil || seq != 42 {
		t.Fatalf("Append after baseSeq 41: seq %d, %v", seq, err)
	}
	hdr, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Reset after a checkpoint at seq 42: log empties, numbering holds.
	if err := w.Reset(42); err != nil {
		t.Fatal(err)
	}
	reset, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(reset) != walSegment || !bytes.Equal(reset[:walHdrLen], hdr[:walHdrLen]) || !allZero(reset[walHdrLen:]) {
		t.Fatalf("file after Reset is %d bytes, want the header and zeros to %d", len(reset), walSegment)
	}
	seq, err = w.Append(WALDelete, 0, nil)
	if err != nil || seq != 43 {
		t.Fatalf("Append after Reset: seq %d, %v", seq, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen with the checkpoint's base: only the post-reset record
	// replays, and numbering still continues.
	w, rp, err := OpenWAL(path, 2, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if len(rp.Records) != 1 || rp.Records[0].Seq != 43 {
		t.Fatalf("replay after reopen = %+v", rp.Records)
	}
	if w.NextSeq() != 44 {
		t.Fatalf("NextSeq = %d", w.NextSeq())
	}
}

// TestWALResetCrashBeforePreallocate: Reset cuts the log to its header
// and then writes the zero tail; a crash between the two leaves the
// header with none, or part, of the tail. The next open must read an
// empty log, append after the header and replay what it appended.
func TestWALResetCrashBeforePreallocate(t *testing.T) {
	_, raw := walFixture(t, 3, sampleRecords())
	for _, size := range []int{walHdrLen, walHdrLen + 3, walHdrLen + 8, walHdrLen + 4096} {
		path := filepath.Join(t.TempDir(), "dyn.wal")
		if err := os.WriteFile(path, append(raw[:walHdrLen:walHdrLen], make([]byte, size-walHdrLen)...), 0o644); err != nil {
			t.Fatal(err)
		}
		w, rp, err := OpenWAL(path, 3, 1, 4)
		if err != nil || rp.Torn || len(rp.Records) != 0 || rp.ValidLen != walHdrLen {
			t.Fatalf("size %d: open: %+v, %v", size, rp, err)
		}
		if _, err := w.Append(WALDelete, 10, nil); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rp, err = ReplayWAL(bytes.NewReader(after))
		want := []WALRecord{{Seq: 5, Op: WALDelete, ID: 10}}
		if err != nil || rp.Torn || !reflect.DeepEqual(rp.Records, want) {
			t.Fatalf("size %d: replay: %+v, %v", size, rp, err)
		}
		// A zero tail the record fits in is kept; a shorter one grows to
		// a segment.
		wantSize := walSegment
		if size >= int(rp.ValidLen) {
			wantSize = size
		}
		if len(after) != wantSize {
			t.Fatalf("size %d: file is %d bytes after the append, want %d", size, len(after), wantSize)
		}
	}
}

// TestWALAppendAllocations pins the mutation path's allocations: every
// append encodes into the WAL's own buffer and writes it in place, so
// once that buffer has grown an append allocates nothing.
func TestWALAppendAllocations(t *testing.T) {
	w, _, err := OpenWAL(filepath.Join(t.TempDir(), "dyn.wal"), 50, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	item := make([]float64, 50)
	if n := testing.AllocsPerRun(50, func() {
		if _, err := w.Append(WALAdd, 1, item); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("add append: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := w.Append(WALDelete, 1, nil); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("delete append: %v allocations, want 0", n)
	}
}

// readCounter is an io.ReaderAt that counts its calls.
type readCounter struct {
	r     io.ReaderAt
	reads int
}

func (c *readCounter) ReadAt(p []byte, off int64) (int, error) {
	c.reads++
	return c.r.ReadAt(p, off)
}

// TestWALReplayReadsAhead: reopening a 200-record log reads its file a
// segment at a time — a few reads, not two per record — and replays what
// an unbuffered reader does.
func TestWALReplayReadsAhead(t *testing.T) {
	recs := make([]WALRecord, 200)
	for i := range recs {
		recs[i] = WALRecord{Seq: uint64(i + 1), Op: WALAdd, ID: int64(i), Vec: make([]float64, 50)}
		recs[i].Vec[i%50] = float64(i)
	}
	_, raw := walFixture(t, 50, recs)
	c := &readCounter{r: bytes.NewReader(raw)}
	rp, err := replayAt(c, int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReplayWAL(bytes.NewReader(raw))
	if err != nil || !reflect.DeepEqual(rp, want) {
		t.Fatalf("buffered replay %+v, unbuffered %+v (%v)", rp, want, err)
	}
	if len(rp.Records) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(rp.Records), len(recs))
	}
	t.Logf("%d reads of a %d-byte log", c.reads, len(raw))
	if most := len(raw)/walSegment + 2; c.reads > most {
		t.Fatalf("%d reads of a %d-byte log, want at most %d", c.reads, len(raw), most)
	}
}

func TestWALDimMismatch(t *testing.T) {
	path, _ := walFixture(t, 3, sampleRecords())
	if _, _, err := OpenWAL(path, 5, 1, 0); !errors.Is(err, ErrChecksum) {
		t.Fatalf("dim mismatch open = %v, want ErrChecksum", err)
	}
	w, _, err := OpenWAL(path, 3, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Append(WALAdd, 99, []float64{1}); err == nil {
		t.Fatal("short vector accepted")
	}
}

func TestWALSyncBatching(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dyn.wal")
	w, _, err := OpenWAL(path, 1, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := w.Append(WALAdd, int64(i), []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := w.Appended(); got != 20 {
		t.Fatalf("Appended = %d", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	rp, err := ReplayWAL(bytes.NewReader(raw))
	if err != nil || len(rp.Records) != 20 {
		t.Fatalf("replay = %d records, %v", len(rp.Records), err)
	}
}

// TestWALFaultHookTornWrite drives faults.SiteWALWrite through the
// append path: the injected failure deterministically tears the record
// (half its bytes reach the file), the WAL refuses further use, and a
// reopen repairs back to the acknowledged prefix.
func TestWALFaultHookTornWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dyn.wal")
	w, _, err := OpenWAL(path, 2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := faults.NewRegistry(1)
	hook := reg.Enable(faults.SiteWALWrite, faults.Plan{FailEveryNCalls: 3})
	w.SetFaultHook(hook)

	var acked []WALRecord
	var failedAt int
	for i := 0; i < 3; i++ {
		rec := WALRecord{Op: WALAdd, ID: int64(i), Vec: []float64{float64(i), 1}}
		seq, err := w.Append(rec.Op, rec.ID, rec.Vec)
		if err != nil {
			if !errors.Is(err, faults.ErrInjected) {
				t.Fatalf("append %d: %v", i, err)
			}
			failedAt = i
			break
		}
		rec.Seq = seq
		acked = append(acked, rec)
	}
	if failedAt != 2 {
		t.Fatalf("fault fired at append %d, want 2", failedAt)
	}
	if _, err := w.Append(WALDelete, 0, nil); err == nil {
		t.Fatal("broken WAL accepted another append")
	}
	_ = w.Close()

	raw, _ := os.ReadFile(path)
	rp, err := ReplayWAL(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("replay of torn file: %v", err)
	}
	if !rp.Torn {
		t.Fatal("torn write left no torn tail")
	}
	if !reflect.DeepEqual(rp.Records, acked) {
		t.Fatalf("replay = %+v, want acked prefix %+v", rp.Records, acked)
	}
	// Determinism: the same plan tears at the same byte every time —
	// the first half of the record over the zero tail, zeros after it.
	enc := appendWALRecord(nil, WALRecord{Seq: 3, Op: WALAdd, ID: 2, Vec: []float64{2, 1}})
	half := rp.ValidLen + int64(len(enc)/2)
	if len(raw) != walSegment || !bytes.Equal(raw[rp.ValidLen:half], enc[:len(enc)/2]) || !allZero(raw[half:]) {
		t.Fatalf("torn file is %d bytes, want half a record after %d and zeros to %d", len(raw), rp.ValidLen, walSegment)
	}

	w2, rp2, err := OpenWAL(path, 2, 1, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	if !reflect.DeepEqual(rp2.Records, acked) || w2.NextSeq() != 3 {
		t.Fatalf("reopen replay = %+v, NextSeq %d", rp2.Records, w2.NextSeq())
	}
}

// TestWALFaultHookPanic: a panic mid-append also tears the record and
// propagates (the server's recovery middleware turns it into a 500; the
// mutation was never acknowledged).
func TestWALFaultHookPanic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dyn.wal")
	w, _, err := OpenWAL(path, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := faults.NewRegistry(1)
	w.SetFaultHook(reg.Enable(faults.SiteWALWrite, faults.Plan{PanicAtItem: 2}))
	if _, err := w.Append(WALAdd, 0, []float64{1}); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("injected panic did not propagate")
			}
		}()
		_, _ = w.Append(WALAdd, 1, []float64{2})
	}()
	_ = w.Close()
	raw, _ := os.ReadFile(path)
	rp, err := ReplayWAL(bytes.NewReader(raw))
	if err != nil || !rp.Torn || len(rp.Records) != 1 {
		t.Fatalf("after panic: %+v, %v", rp, err)
	}
}

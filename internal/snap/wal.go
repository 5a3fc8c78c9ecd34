package snap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"

	"fexipro/internal/faults"
)

// Write-ahead log for core.DynamicIndex mutations (DESIGN.md §15). The
// file is a 16-byte header followed by append-only records:
//
//	magic   [8]byte  "FEXWAL\x00\x00"
//	version u32      1
//	dim     u32      item dimensionality (bounds every record size)
//	record*:
//	  length  u32    payload bytes
//	  crc     u32    CRC-32 (IEEE) of the payload
//	  payload:
//	    seq u64      strictly increasing, starting at baseSeq+1
//	    op  u8       'A' (add) or 'D' (delete)
//	    id  i64      catalog ID (the ID an add WILL be assigned)
//	    vec [dim]f64 add records only
//
// The writer keeps the file zero-filled past its last record (the
// preallocated tail, walSegment bytes at a time) and writes each record
// over those zeros, so an append changes no file size and its
// fdatasync has no metadata to journal. Replay semantics are the heart
// of crash recovery:
//
//   - A record cut short at the tail (torn write: the crash-normal
//     case, since appends are sequential) terminates replay; the intact
//     prefix is returned with Torn set. Recovery from a WAL truncated
//     at ANY byte offset therefore yields a prefix of the acknowledged
//     mutation sequence — never an invented or reordered one.
//   - An all-zero record header followed by nothing but zeros ends the
//     log: that is the preallocated tail.
//   - A crash can also tear the record being written over the zero
//     tail in no set order: its sectors reach the disk independently,
//     so some of its bytes land and zeros stay in place of the rest.
//     Hence an all-zero header or a CRC-bad record, when every non-zero
//     byte from its start lies within one maximal record and no intact
//     record lies among them, is a torn tail: Torn, as above.
//   - Anything else where a record should be — zeros or a CRC-bad
//     record with more data after them (a hole or a bit flip mid-log,
//     not a torn write: torn writes only touch the last record) — is
//     corruption: replay fails with ErrChecksum rather than guessing.
//   - Sequence numbers must increase by exactly 1; a gap means records
//     were lost in the middle and replay fails with ErrChecksum.
type WALRecord struct {
	Seq uint64
	Op  WALOp
	ID  int64
	Vec []float64 // add records only
}

// WALOp is the mutation kind of a WAL record.
type WALOp byte

const (
	// WALAdd appends an item (Vec holds the factor vector).
	WALAdd WALOp = 'A'
	// WALDelete retires a catalog ID.
	WALDelete WALOp = 'D'
)

const (
	walMagic   = "FEXWAL\x00\x00"
	walVersion = 1
	walHdrLen  = 16
	// maxWALDim bounds the dimensionality a WAL header may declare, so
	// a corrupt header cannot make replay allocate huge vectors.
	maxWALDim = 1 << 16
	// walSegment is the unit of preallocation: a new or reset log is
	// zero-filled to walSegment bytes, and a record that does not fit
	// extends the file to the next multiple of it.
	walSegment = 64 << 10
)

// walZeros is the source of every zero the WAL writes.
var walZeros [4 << 10]byte

// WALReplay is the outcome of scanning a WAL file.
type WALReplay struct {
	Dim     int
	Records []WALRecord
	// Torn is true when the file ended inside a record — the signature
	// of a crash mid-append. ValidLen is the byte offset of the end of
	// the last intact record (the offset to truncate to on reopen).
	Torn     bool
	ValidLen int64
}

// LastSeq returns the sequence number of the final intact record (0 if
// none).
func (rp *WALReplay) LastSeq() uint64 {
	if len(rp.Records) == 0 {
		return 0
	}
	return rp.Records[len(rp.Records)-1].Seq
}

// ReplayWAL scans an entire WAL stream. See the package comment for the
// torn-tail vs corruption distinction. The returned error always wraps
// ErrBadMagic, ErrChecksum, or ErrTruncated.
func ReplayWAL(r io.Reader) (*WALReplay, error) {
	var hdr [walHdrLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short WAL header: %v", errTruncOrMagic(err), err)
	}
	if string(hdr[:8]) != walMagic {
		return nil, fmt.Errorf("%w: bad WAL magic %q", ErrBadMagic, hdr[:8])
	}
	if v := getU32(hdr[8:12]); v != walVersion {
		return nil, fmt.Errorf("%w: unsupported WAL version %d (want %d)", ErrBadMagic, v, walVersion)
	}
	dim := int(getU32(hdr[12:16]))
	if dim < 1 || dim > maxWALDim {
		return nil, fmt.Errorf("%w: implausible WAL dimension %d", ErrChecksum, dim)
	}
	rp := &WALReplay{Dim: dim, ValidLen: walHdrLen}
	maxPayload := walPayloadLen(WALAdd, dim)
	for {
		var rhdr [8]byte
		n, err := io.ReadFull(r, rhdr[:])
		if err != nil {
			// EOF at a record boundary, or inside the zero tail, is a
			// clean end; any other header cut short is a torn tail.
			rp.Torn = !allZero(rhdr[:n])
			return rp, nil
		}
		if rhdr == [8]byte{} {
			return rp.endAt(r, rhdr[:], maxPayload, fmt.Sprintf("zero header after record %d is followed by data", len(rp.Records)))
		}
		length := int(getU32(rhdr[:4]))
		crc := getU32(rhdr[4:8])
		if length > maxPayload {
			// A declared length beyond the largest legal record cannot
			// be satisfied by any suffix: corruption, not truncation.
			return nil, fmt.Errorf("%w: WAL record declares %d bytes, max %d for dim %d",
				ErrChecksum, length, maxPayload, dim)
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(r, payload); err != nil {
			rp.Torn = true // payload cut short: torn tail
			return rp, nil
		}
		if got := crc32.ChecksumIEEE(payload); got != crc {
			return rp.endAt(r, append(rhdr[:], payload...), maxPayload, fmt.Sprintf("record %d crc %08x, want %08x", len(rp.Records)+1, got, crc))
		}
		rec, err := decodeWALRecord(payload, dim)
		if err != nil {
			return nil, err
		}
		if want := rp.LastSeq(); want != 0 && rec.Seq != want+1 {
			return nil, fmt.Errorf("%w: WAL sequence gap: record %d follows %d", ErrChecksum, rec.Seq, want)
		}
		rp.Records = append(rp.Records, rec)
		rp.ValidLen += int64(8 + length)
	}
}

// endAt decides a log whose bytes at rp.ValidLen are not an intact
// record; seen holds what was read of them. They are the preallocated
// tail when they and everything after them are zero, and a torn tail
// when every non-zero byte lies within one maximal record of the start
// and none of them is an intact record. Anything else is damage inside
// the log, described by what and the offset it starts at.
func (rp *WALReplay) endAt(r io.Reader, seen []byte, maxPayload int, what string) (*WALReplay, error) {
	what = fmt.Sprintf("%s at byte %d", what, rp.ValidLen)
	win := make([]byte, 8+maxPayload)
	n := copy(win, seen)
	m, err := io.ReadFull(r, win[n:])
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		return nil, walTailErr(err, what)
	}
	win = win[:n+m]
	zero, err := zeroToEOF(r)
	switch {
	case err != nil || !zero:
		return nil, walTailErr(err, what)
	case allZero(win):
		return rp, nil
	case intactRecordIn(win[1:], rp.Dim):
		return nil, walTailErr(nil, what+", and an intact record follows it")
	}
	rp.Torn = true
	return rp, nil
}

// intactRecordIn reports whether a whole record of either size, with a
// matching CRC, starts at any offset of b.
func intactRecordIn(b []byte, dim int) bool {
	for at := 0; at+8 <= len(b); at++ {
		length := int(getU32(b[at:]))
		if length != walPayloadLen(WALDelete, dim) && length != walPayloadLen(WALAdd, dim) || at+8+length > len(b) {
			continue
		}
		if crc32.ChecksumIEEE(b[at+8:at+8+length]) == getU32(b[at+4:]) {
			return true
		}
	}
	return false
}

// zeroToEOF reads r to its end and reports whether every byte was zero.
func zeroToEOF(r io.Reader) (bool, error) {
	buf := make([]byte, len(walZeros))
	for {
		n, err := r.Read(buf)
		if !allZero(buf[:n]) {
			return false, nil
		}
		if errors.Is(err, io.EOF) {
			return true, nil
		}
		if err != nil {
			return false, err
		}
	}
}

// walTailErr is the typed error for a WAL whose bytes after what ends the
// log are not all zero (ErrChecksum: corruption, described by what), or
// could not be read (ErrTruncated).
func walTailErr(readErr error, what string) error {
	if readErr != nil {
		return fmt.Errorf("%w: reading the WAL tail: %v", ErrTruncated, readErr)
	}
	return fmt.Errorf("%w: WAL %s", ErrChecksum, what)
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// walPayloadLen is the exact payload size of a record of the given op.
func walPayloadLen(op WALOp, dim int) int {
	if op == WALAdd {
		return 17 + 8*dim
	}
	return 17
}

// appendWALRecord appends rec's framed encoding — length, CRC, payload —
// to b.
func appendWALRecord(b []byte, rec WALRecord) []byte {
	start := len(b)
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0) // length and CRC, filled in below
	b = binary.LittleEndian.AppendUint64(b, rec.Seq)
	b = append(b, byte(rec.Op))
	b = binary.LittleEndian.AppendUint64(b, uint64(rec.ID))
	if rec.Op == WALAdd {
		for _, v := range rec.Vec {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	payload := b[start+8:]
	putU32(b[start:], uint32(len(payload)))
	putU32(b[start+4:], crc32.ChecksumIEEE(payload))
	return b
}

func decodeWALRecord(payload []byte, dim int) (WALRecord, error) {
	var rec WALRecord
	if len(payload) < 17 {
		return rec, fmt.Errorf("%w: WAL record payload of %d bytes", ErrChecksum, len(payload))
	}
	rec.Seq = getU64(payload[:8])
	rec.Op = WALOp(payload[8])
	rec.ID = int64(getU64(payload[9:17]))
	switch rec.Op {
	case WALAdd:
		if len(payload) != walPayloadLen(WALAdd, dim) {
			return rec, fmt.Errorf("%w: add record has %d bytes, want %d", ErrChecksum, len(payload), walPayloadLen(WALAdd, dim))
		}
		rec.Vec = make([]float64, dim)
		for i := range rec.Vec {
			rec.Vec[i] = math.Float64frombits(getU64(payload[17+8*i : 25+8*i]))
		}
	case WALDelete:
		if len(payload) != 17 {
			return rec, fmt.Errorf("%w: delete record has %d bytes, want 17", ErrChecksum, len(payload))
		}
	default:
		return rec, fmt.Errorf("%w: unknown WAL op %q", ErrChecksum, byte(rec.Op))
	}
	if rec.Seq == 0 {
		return rec, fmt.Errorf("%w: WAL record with sequence 0", ErrChecksum)
	}
	return rec, nil
}

// WAL is an open write-ahead log accepting appends. Each record is
// written in place over the preallocated zero tail and made durable with
// fdatasync (datasync) every SyncEvery records (and on Sync and Close),
// batching the dominant durability cost. All methods are safe for
// concurrent use, though the server serializes appends under its own
// mutex anyway.
//
// Lock hierarchy: WAL.mu is held across the fault-hook poll, whose
// Hook mutex is a leaf — declared here for the lockorder analyzer.
//
//fex:lockorder snap.WAL.mu < faults.Hook.mu
type WAL struct {
	mu   sync.Mutex
	f    *os.File
	path string
	dim  int
	//fex:guard mu
	nextSeq uint64
	// off is where the next record goes; end is the file's size, and
	// every byte of [off, end) is zero.
	//fex:guard mu
	off int64
	//fex:guard mu
	end int64
	// buf holds the record being appended, reused by every append.
	//fex:guard mu
	buf []byte
	// syncEvery batches syncs: 1 = sync per append (full durability),
	// N > 1 amortizes at the cost of the last N-1 acks on power loss.
	syncEvery int
	//fex:guard mu
	unsynced int
	appended uint64
	hook     *faults.Hook
	broken   error
}

// OpenWAL opens (or creates) the WAL at path for appending. dim is the
// item dimensionality; baseSeq is the sequence number the owning
// snapshot is checkpointed at (records continue at baseSeq+1).
// syncEvery ≤ 0 means a sync on every append.
//
// A new file is written as its header and a zero tail up to walSegment
// bytes, and synced. An existing file is fully replayed and validated
// first; a torn tail (crash mid-append) is truncated away — exactly the
// prefix-consistent repair the replay semantics promise — and the zero
// tail written again after it, while genuine corruption fails with a
// typed error. The replay result is returned so callers can re-apply
// records newer than their snapshot.
func OpenWAL(path string, dim, syncEvery int, baseSeq uint64) (*WAL, *WALReplay, error) {
	if dim < 1 || dim > maxWALDim {
		return nil, nil, fmt.Errorf("snap: WAL dimension %d out of range [1, %d]", dim, maxWALDim)
	}
	if syncEvery < 1 {
		syncEvery = 1
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, nil, err
	}
	w := &WAL{f: f, path: path, dim: dim, syncEvery: syncEvery}
	rp, err := w.open(st.Size())
	if err != nil {
		_ = f.Close()
		return nil, nil, err
	}
	w.nextSeq = rp.LastSeq() + 1
	if baseSeq+1 > w.nextSeq {
		w.nextSeq = baseSeq + 1
	}
	return w, rp, nil
}

// open formats an empty file or replays and repairs an existing one of
// the given size, leaving off and end set.
func (w *WAL) open(size int64) (*WALReplay, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if size == 0 {
		var hdr [walHdrLen]byte
		copy(hdr[:8], walMagic)
		putU32(hdr[8:12], walVersion)
		putU32(hdr[12:16], uint32(w.dim))
		if _, err := w.f.WriteAt(hdr[:], 0); err != nil {
			return nil, err
		}
		w.off, w.end = walHdrLen, walHdrLen
		return &WALReplay{Dim: w.dim, ValidLen: walHdrLen}, w.extendLocked(walSegment)
	}
	rp, err := replayAt(w.f, size)
	if err != nil {
		return nil, err
	}
	if rp.Dim != w.dim {
		return nil, fmt.Errorf("%w: WAL dimension %d, index has %d", ErrChecksum, rp.Dim, w.dim)
	}
	w.off, w.end = rp.ValidLen, size
	if rp.Torn {
		// Cut the torn record off before zeroing again: a shorter record
		// written over it later must not leave its bytes behind, and no
		// crash may leave it half zeroed with data after it.
		if err := w.f.Truncate(rp.ValidLen); err != nil {
			return nil, err
		}
		w.end = rp.ValidLen
		return rp, w.extendLocked(walExtent(rp.ValidLen + 1))
	}
	return rp, nil
}

// replayAt is ReplayWAL over the first size bytes of f, read ahead a
// segment at a time: ReplayWAL reads each record in two small pieces, and
// on a file each read is a pread of its own.
func replayAt(f io.ReaderAt, size int64) (*WALReplay, error) {
	return ReplayWAL(bufio.NewReaderSize(io.NewSectionReader(f, 0, size), walSegment))
}

// walExtent is n rounded up to a whole number of segments.
func walExtent(n int64) int64 {
	return (n + walSegment - 1) / walSegment * walSegment
}

// extendLocked writes zeros from end to size and syncs the file with
// fsync, which also makes the new size durable. A failure breaks the WAL.
func (w *WAL) extendLocked(size int64) error {
	for w.end < size {
		n := min(size-w.end, int64(len(walZeros)))
		if _, err := w.f.WriteAt(walZeros[:n], w.end); err != nil {
			w.broken = err
			return err
		}
		w.end += n
	}
	if err := w.f.Sync(); err != nil {
		w.broken = err
		return err
	}
	return nil
}

// Path returns the file the WAL writes to.
func (w *WAL) Path() string { return w.path }

// NextSeq returns the sequence number the next append will carry.
func (w *WAL) NextSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextSeq
}

// Appended returns the number of records appended through this handle.
func (w *WAL) Appended() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appended
}

// SetFaultHook installs (or, with nil, removes) the fault-injection
// hook consulted on every append (site faults.SiteWALWrite). When the
// hook fails or panics, the append deterministically tears: the first
// half of the encoded record reaches the file before the error
// surfaces, simulating a crash mid-write, and the WAL refuses further
// appends until reopened (the state a real crash would leave).
func (w *WAL) SetFaultHook(h *faults.Hook) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.hook = h
}

// Append durably logs one mutation and returns its sequence number.
// The record is NOT acknowledged (and the caller must not apply the
// mutation) unless Append returns nil.
func (w *WAL) Append(op WALOp, id int64, item []float64) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return 0, fmt.Errorf("snap: WAL is failed (reopen to recover): %w", w.broken)
	}
	if op == WALAdd && len(item) != w.dim {
		return 0, fmt.Errorf("snap: add record dim %d, WAL has %d", len(item), w.dim)
	}
	seq := w.nextSeq
	w.buf = appendWALRecord(w.buf[:0], WALRecord{Seq: seq, Op: op, ID: id, Vec: item})
	if need := w.off + int64(len(w.buf)); need > w.end {
		if err := w.extendLocked(walExtent(need)); err != nil {
			return 0, err
		}
	}
	if h := w.hook; h != nil {
		//lint:ignore locks the fault hook must fire inside the append critical section to model a torn write at the exact record boundary (test-only injection)
		if err := w.pollHookLocked(h, w.buf); err != nil {
			return 0, err
		}
	}
	if _, err := w.f.WriteAt(w.buf, w.off); err != nil {
		w.broken = err
		return 0, err
	}
	w.off += int64(len(w.buf))
	w.nextSeq++
	w.appended++
	w.unsynced++
	if w.unsynced >= w.syncEvery {
		if err := w.syncLocked(); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// pollHookLocked consults the fault hook, tearing the write on failure or
// panic: the first half of the encoded record is written over the zero
// tail (best-effort, synced), the WAL marks itself failed, and the fault
// propagates.
func (w *WAL) pollHookLocked(h *faults.Hook, enc []byte) error {
	off := w.off
	tear := func(cause error) {
		_, _ = w.f.WriteAt(enc[:len(enc)/2], off)
		_ = datasync(w.f)
		w.broken = cause
	}
	defer func() {
		if r := recover(); r != nil {
			tear(fmt.Errorf("snap: WAL append panicked: %v", r))
			panic(r)
		}
	}()
	if err := h.OnItem(int(w.nextSeq)); err != nil {
		tear(err)
		return fmt.Errorf("snap: WAL append torn: %w", err)
	}
	if err := h.OnCall(); err != nil {
		tear(err)
		return fmt.Errorf("snap: WAL append torn: %w", err)
	}
	return nil
}

// Sync flushes outstanding appends to stable storage.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return w.broken
	}
	return w.syncLocked()
}

func (w *WAL) syncLocked() error {
	if w.unsynced == 0 {
		return nil
	}
	if err := datasync(w.f); err != nil {
		w.broken = err
		return err
	}
	w.unsynced = 0
	return nil
}

// Reset truncates the log back to its header after a successful
// checkpoint at baseSeq and preallocates its zero tail again. Sequence
// numbers continue from baseSeq+1, so records that race a checkpoint
// remain identifiable (recovery skips anything at or below the
// snapshot's sequence). The records are cut off, never zeroed in place:
// a crash midway then leaves the old log or a header with zeros, never
// a damaged record with data after it.
func (w *WAL) Reset(baseSeq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return w.broken
	}
	if err := w.f.Truncate(walHdrLen); err != nil {
		w.broken = err
		return err
	}
	w.off, w.end = walHdrLen, walHdrLen
	if err := w.extendLocked(walSegment); err != nil {
		return err
	}
	w.unsynced = 0
	if baseSeq+1 > w.nextSeq {
		w.nextSeq = baseSeq + 1
	}
	return nil
}

// Close syncs and closes the file. The WAL must not be used afterwards.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	var firstErr error
	if w.broken == nil {
		firstErr = w.syncLocked()
	}
	if err := w.f.Close(); firstErr == nil {
		firstErr = err
	}
	w.broken = errors.New("snap: WAL closed")
	return firstErr
}

// Little-endian helpers shared by the container and the WAL.
func putU32(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }
func putU64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }
func getU32(b []byte) uint32    { return binary.LittleEndian.Uint32(b) }
func getU64(b []byte) uint64    { return binary.LittleEndian.Uint64(b) }

package snap

import (
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
// Replay semantics are the heart of crash recovery:
//
//   - A record cut short at the tail (torn write: the crash-normal
//     case, since appends are sequential) terminates replay; the intact
//     prefix is returned with Torn set. Recovery from a WAL truncated
//     at ANY byte offset therefore yields a prefix of the acknowledged
//     mutation sequence — never an invented or reordered one.
//   - A complete record whose CRC does not match (a bit flip, not a
//     torn write — torn writes can only shorten the tail) is
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
)

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
			if n == 0 && errors.Is(err, io.EOF) {
				return rp, nil // clean end at a record boundary
			}
			rp.Torn = true // header cut short: torn tail
			return rp, nil
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
			return nil, fmt.Errorf("%w: WAL record %d crc %08x, want %08x",
				ErrChecksum, len(rp.Records)+1, got, crc)
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

// walPayloadLen is the exact payload size of a record of the given op.
func walPayloadLen(op WALOp, dim int) int {
	if op == WALAdd {
		return 17 + 8*dim
	}
	return 17
}

func encodeWALRecord(rec WALRecord, dim int) []byte {
	payload := make([]byte, 0, walPayloadLen(rec.Op, dim))
	payload = binary.LittleEndian.AppendUint64(payload, rec.Seq)
	payload = append(payload, byte(rec.Op))
	payload = binary.LittleEndian.AppendUint64(payload, uint64(rec.ID))
	if rec.Op == WALAdd {
		for _, v := range rec.Vec {
			payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(v))
		}
	}
	out := make([]byte, 0, 8+len(payload))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
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

// WAL is an open write-ahead log accepting appends. Appends are
// buffered per record and fsynced every SyncEvery records (and on Sync
// and Close), batching the dominant durability cost. All methods are
// safe for concurrent use, though the server serializes appends under
// its own mutex anyway.
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
	// syncEvery batches fsyncs: 1 = fsync per append (full durability),
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
// syncEvery ≤ 0 means fsync on every append.
//
// An existing file is fully replayed and validated first; a torn tail
// (crash mid-append) is truncated away — exactly the prefix-consistent
// repair the replay semantics promise — while genuine corruption fails
// with a typed error. The replay result is returned so callers can
// re-apply records newer than their snapshot.
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
	var rp *WALReplay
	if st.Size() == 0 {
		if err := w.writeHeader(); err != nil {
			_ = f.Close()
			return nil, nil, err
		}
		rp = &WALReplay{Dim: dim, ValidLen: walHdrLen}
	} else {
		rp, err = ReplayWAL(f)
		if err != nil {
			_ = f.Close()
			return nil, nil, err
		}
		if rp.Dim != dim {
			_ = f.Close()
			return nil, nil, fmt.Errorf("%w: WAL dimension %d, index has %d", ErrChecksum, rp.Dim, dim)
		}
		if rp.Torn {
			if err := f.Truncate(rp.ValidLen); err != nil {
				_ = f.Close()
				return nil, nil, err
			}
		}
		if _, err := f.Seek(rp.ValidLen, io.SeekStart); err != nil {
			_ = f.Close()
			return nil, nil, err
		}
	}
	w.nextSeq = rp.LastSeq() + 1
	if baseSeq+1 > w.nextSeq {
		w.nextSeq = baseSeq + 1
	}
	return w, rp, nil
}

func (w *WAL) writeHeader() error {
	var hdr [walHdrLen]byte
	copy(hdr[:8], walMagic)
	putU32(hdr[8:12], walVersion)
	putU32(hdr[12:16], uint32(w.dim))
	if _, err := w.f.Write(hdr[:]); err != nil {
		return err
	}
	return w.f.Sync()
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
	rec := WALRecord{Seq: w.nextSeq, Op: op, ID: id, Vec: item}
	enc := encodeWALRecord(rec, w.dim)
	if h := w.hook; h != nil {
		//lint:ignore locks the fault hook must fire inside the append critical section to model a torn write at the exact record boundary (test-only injection)
		if err := w.pollHookLocked(h, enc); err != nil {
			return 0, err
		}
	}
	if _, err := w.f.Write(enc); err != nil {
		w.broken = err
		return 0, err
	}
	w.nextSeq++
	w.appended++
	w.unsynced++
	if w.unsynced >= w.syncEvery {
		if err := w.syncLocked(); err != nil {
			return 0, err
		}
	}
	return rec.Seq, nil
}

// pollHookLocked consults the fault hook, tearing the write on failure or
// panic: half the encoded record hits the file (best-effort, synced),
// the WAL marks itself failed, and the fault propagates.
func (w *WAL) pollHookLocked(h *faults.Hook, enc []byte) error {
	tear := func(cause error) {
		_, _ = w.f.Write(enc[:len(enc)/2])
		_ = w.f.Sync()
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
	if err := w.f.Sync(); err != nil {
		w.broken = err
		return err
	}
	w.unsynced = 0
	return nil
}

// Reset truncates the log back to its header after a successful
// checkpoint at baseSeq. Sequence numbers continue from baseSeq+1, so
// records that race a checkpoint remain identifiable (recovery skips
// anything at or below the snapshot's sequence).
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
	if _, err := w.f.Seek(walHdrLen, io.SeekStart); err != nil {
		w.broken = err
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.broken = err
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

package stream

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// The write-ahead logs (DESIGN.md §13). Every frame the control goroutine
// accepts is appended to the frame WAL *before* it mutates the flow table,
// so a crash at any instant loses no applied state: recovery restores the
// last checkpoint from the commit log and redoes the frame WAL from the
// checkpoint's redo point, which regenerates the exact state — and
// therefore the exact output bytes — of an uninterrupted run. The WAL is
// the only durable copy of a frame.
//
// On-disk format: segments named <prefix><firstSeq, 20 digits>.seg (wal-
// for frames, ckpt- for the commit log), rotated by size. Each record is
//
//	u32le payload length | u32le CRC32-IEEE(seq || payload) | u64le seq | payload
//
// where the payload is the frame's canonical JSON (the wire format), or a
// checkpoint's JSON in the commit log, whose seq numbers checkpoints. The
// reader is a salvage scanner: a torn record at the tail of the *final*
// segment is the expected shape of a crash mid-write and is tolerated
// (ErrTruncatedTail semantics); a checksum mismatch, implausible length,
// sequence gap, or torn record with later data behind it is mid-log
// corruption — the valid prefix is salvaged and the damage is surfaced as a
// structured *WALCorruptError, never a panic.

// WAL fsync policies (DurabilityOptions.SyncPolicy).
const (
	// SyncAlways fsyncs after every appended record: a record is durable
	// against OS crash/power loss before it mutates any state.
	SyncAlways = "always"
	// SyncInterval fsyncs every SyncEvery records (and at rotation/close):
	// bounded loss window against OS crash, one fsync per batch. Process
	// kills lose nothing under any policy — completed writes survive in the
	// page cache.
	SyncInterval = "interval"
	// SyncNever leaves syncing to the OS entirely (rotation and close still
	// sync, sealing finished segments).
	SyncNever = "never"
)

// ParseSyncPolicy parses the -wal-sync flag grammar: "always", "never",
// "interval" (every defaultSyncEvery frames), or "interval:N". The interval
// is counted in frames, not seconds, so durable replay stays clock-free.
func ParseSyncPolicy(s string) (policy string, every int, err error) {
	switch {
	case s == SyncAlways, s == SyncNever:
		return s, 0, nil
	case s == SyncInterval:
		return SyncInterval, defaultSyncEvery, nil
	case strings.HasPrefix(s, SyncInterval+":"):
		n, aerr := strconv.Atoi(strings.TrimPrefix(s, SyncInterval+":"))
		if aerr != nil || n < 1 {
			return "", 0, fmt.Errorf("stream: bad sync interval %q (want interval:N, N >= 1)", s)
		}
		return SyncInterval, n, nil
	default:
		return "", 0, fmt.Errorf("stream: unknown WAL sync policy %q (want always, interval[:N] or never)", s)
	}
}

const (
	walHeaderBytes    = 16
	walMaxRecordBytes = 16 << 20 // length-prefix plausibility bound
	walSegSuffix      = ".seg"
	walSegPrefix      = "wal-"
	logSegPrefix      = "ckpt-"

	defaultSegmentBytes = 8 << 20
	defaultSyncEvery    = 256
)

// WALCorruptError reports mid-log corruption: the WAL is readable up to
// LastGoodSeq and unreadable after Offset in Segment. Recovery salvages the
// prefix; everything past the damage is gone (and, in replay, re-fed from
// the input).
type WALCorruptError struct {
	Segment     string
	Offset      int64
	Reason      string
	LastGoodSeq uint64
}

func (e *WALCorruptError) Error() string {
	return fmt.Sprintf("stream: wal corrupt in %s at byte %d (%s); salvaged through seq %d",
		filepath.Base(e.Segment), e.Offset, e.Reason, e.LastGoodSeq)
}

type walRecord struct {
	seq     uint64
	payload []byte
}

type walSeg struct {
	path  string
	first uint64 // 0 until the first record lands
	last  uint64
	size  int64
}

// wal is the append state over a directory of segments. All methods run on
// the monitor's control goroutine (or before it starts); the type itself is
// not concurrency-safe.
type wal struct {
	dir      string
	prefix   string // segment name prefix: walSegPrefix or logSegPrefix
	segBytes int64
	segs     []walSeg
	f        *os.File // open tail segment, nil until the first append
	size     int64    // bytes in the open segment
	lastSeq  uint64
	closed   bool
}

// isSegName reports whether name is a segment of the log with this prefix.
func isSegName(prefix, name string) bool {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, walSegSuffix) {
		return false
	}
	_, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), walSegSuffix), 10, 64)
	return err == nil
}

// segName names a segment after its first record; the zero padding makes
// lexical order numeric order.
func segName(prefix string, firstSeq uint64) string {
	return fmt.Sprintf("%s%020d%s", prefix, firstSeq, walSegSuffix)
}

// scanSegment walks one segment's bytes. It returns the records of the
// valid prefix, the byte length of that prefix, whether the scan stopped on
// a torn (incomplete) record, and — for any other stop — the corruption
// reason. nextSeq is the expected sequence of the first record (0 = accept
// any) and is threaded across segments to detect gaps.
func scanSegment(data []byte, nextSeq uint64) (recs []walRecord, validLen int64, torn bool, reason string) {
	off := 0
	for off < len(data) {
		if len(data)-off < walHeaderBytes {
			return recs, int64(off), true, ""
		}
		ln := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		seq := binary.LittleEndian.Uint64(data[off+8:])
		if ln == 0 {
			return recs, int64(off), false, "zero-length record"
		}
		if ln > walMaxRecordBytes {
			return recs, int64(off), false, fmt.Sprintf("implausible record length %d", ln)
		}
		end := off + walHeaderBytes + int(ln)
		if end > len(data) {
			return recs, int64(off), true, ""
		}
		if crc32.ChecksumIEEE(data[off+8:end]) != sum {
			return recs, int64(off), false, "checksum mismatch"
		}
		if nextSeq != 0 && seq != nextSeq {
			return recs, int64(off), false, fmt.Sprintf("sequence gap (record %d follows %d)", seq, nextSeq-1)
		}
		payload := make([]byte, ln)
		copy(payload, data[off+walHeaderBytes:end])
		recs = append(recs, walRecord{seq: seq, payload: payload})
		nextSeq = seq + 1
		off = end
	}
	return recs, int64(off), false, ""
}

// openWAL scans the given segment files of the log with this prefix
// (already name-sorted by the caller), salvages the valid record prefix,
// truncates the on-disk tail to exactly that prefix, and returns the WAL
// positioned for appending after it. A torn tail in the final segment is
// tolerated silently (torn=true); a mid-log stop is returned as a
// *WALCorruptError after salvage. Both leave the WAL fully usable.
func openWAL(dir, prefix string, segPaths []string, segBytes int64) (w *wal, recs []walRecord, torn bool, corrupt *WALCorruptError, err error) {
	w = &wal{dir: dir, prefix: prefix, segBytes: segBytes}
	var nextSeq uint64
	for i, path := range segPaths {
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return nil, nil, false, nil, fmt.Errorf("stream: reading wal segment: %w", rerr)
		}
		segRecs, validLen, segTorn, reason := scanSegment(data, nextSeq)
		final := i == len(segPaths)-1
		damaged := reason != "" || (segTorn && !final)

		if len(segRecs) == 0 && !damaged && !segTorn {
			// Empty segment (crash between rotation and the first record):
			// drop it so it cannot shadow a future rotation.
			if rmErr := os.Remove(path); rmErr != nil {
				return nil, nil, false, nil, fmt.Errorf("stream: dropping empty wal segment: %w", rmErr)
			}
			continue
		}
		if len(segRecs) > 0 {
			w.segs = append(w.segs, walSeg{path: path, first: segRecs[0].seq, last: segRecs[len(segRecs)-1].seq, size: validLen})
			w.lastSeq = segRecs[len(segRecs)-1].seq
			nextSeq = w.lastSeq + 1
			recs = append(recs, segRecs...)
		}
		if damaged || (segTorn && final) {
			if reason == "" {
				reason = "torn record"
			}
			if validLen < int64(len(data)) {
				if terr := truncateSalvage(path, validLen); terr != nil {
					return nil, nil, false, nil, terr
				}
			}
			for _, later := range segPaths[i+1:] {
				if rmErr := os.Remove(later); rmErr != nil {
					return nil, nil, false, nil, fmt.Errorf("stream: dropping wal segment past corruption: %w", rmErr)
				}
			}
			if damaged {
				corrupt = &WALCorruptError{Segment: path, Offset: validLen, Reason: reason, LastGoodSeq: w.lastSeq}
			} else {
				torn = true
			}
			break
		}
	}
	// Reopen the surviving tail segment for appending.
	if n := len(w.segs); n > 0 {
		tail := w.segs[n-1]
		f, oerr := os.OpenFile(tail.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if oerr != nil {
			return nil, nil, false, nil, fmt.Errorf("stream: reopening wal tail: %w", oerr)
		}
		w.f = f
		w.size = tail.size
	}
	return w, recs, torn, corrupt, nil
}

// truncateSalvage cuts a damaged segment back to its valid prefix (deleting
// it outright when nothing valid remains).
func truncateSalvage(path string, validLen int64) error {
	if validLen == 0 {
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("stream: dropping empty wal segment: %w", err)
		}
		return nil
	}
	if err := os.Truncate(path, validLen); err != nil {
		return fmt.Errorf("stream: truncating wal tail: %w", err)
	}
	return nil
}

// encodeWALRecord renders one durable record: length and CRC header, then
// seq and payload (the CRC covers both).
func encodeWALRecord(seq uint64, payload []byte) []byte {
	rec := make([]byte, walHeaderBytes+len(payload))
	binary.LittleEndian.PutUint32(rec[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint64(rec[8:], seq)
	copy(rec[walHeaderBytes:], payload)
	binary.LittleEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(rec[8:]))
	return rec
}

// append writes one record. Rotation happens before the write, so a record
// never spans segments. Returns the bytes written.
func (w *wal) append(seq uint64, payload []byte) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("stream: append to closed wal")
	}
	if len(payload) == 0 || len(payload) > walMaxRecordBytes {
		return 0, fmt.Errorf("stream: wal payload of %d bytes out of range", len(payload))
	}
	need := int64(walHeaderBytes + len(payload))
	if w.f == nil || (w.size > 0 && w.size+need > w.segBytes) {
		if err := w.rotate(seq); err != nil {
			return 0, err
		}
	}
	n, err := w.f.Write(encodeWALRecord(seq, payload))
	w.size += int64(n)
	if err != nil {
		return n, fmt.Errorf("stream: wal append seq %d: %w", seq, err)
	}
	w.lastSeq = seq
	seg := &w.segs[len(w.segs)-1]
	if seg.first == 0 {
		seg.first = seq
	}
	seg.last = seq
	seg.size = w.size
	return n, nil
}

// rotate seals the open segment (synced — a finished segment is always
// durable) and starts a new one named after the next record.
func (w *wal) rotate(firstSeq uint64) error {
	if w.f != nil {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("stream: syncing sealed wal segment: %w", err)
		}
		if err := w.f.Close(); err != nil {
			return fmt.Errorf("stream: closing sealed wal segment: %w", err)
		}
		w.f = nil
	}
	path := filepath.Join(w.dir, segName(w.prefix, firstSeq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("stream: creating wal segment: %w", err)
	}
	w.f = f
	w.size = 0
	w.segs = append(w.segs, walSeg{path: path})
	return nil
}

func (w *wal) sync() error {
	if w.f == nil {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("stream: wal fsync: %w", err)
	}
	return nil
}

// truncateThrough removes every segment whose records all lie at or below
// seq: the frame WAL's garbage collection once a durable checkpoint redoes
// from seq+1 (DESIGN.md §13), oldest segment first, so a crash between
// deletions leaves a WAL that still starts at or before the redo point.
// The open tail segment is closed and removed too when fully covered (the
// next append starts a fresh segment).
func (w *wal) truncateThrough(seq uint64) error {
	kept := w.segs[:0]
	for i := range w.segs {
		seg := w.segs[i]
		if seg.last > seq {
			kept = append(kept, seg)
			continue
		}
		if w.f != nil && i == len(w.segs)-1 {
			if err := w.f.Close(); err != nil {
				return fmt.Errorf("stream: closing covered wal segment: %w", err)
			}
			w.f = nil
			w.size = 0
		}
		if err := os.Remove(seg.path); err != nil {
			return fmt.Errorf("stream: removing covered wal segment: %w", err)
		}
		crashpointHere("gc.post_remove")
	}
	w.segs = kept
	return nil
}

// close seals the WAL: a final sync (crash-consistency of the last records)
// and close. Idempotent.
func (w *wal) close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.f == nil {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("stream: syncing wal at close: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("stream: closing wal: %w", err)
	}
	w.f = nil
	return nil
}

// totalBytes is the on-disk footprint across live segments.
func (w *wal) totalBytes() int64 {
	var n int64
	for _, seg := range w.segs {
		n += seg.size
	}
	return n
}

// Package stream is the live-monitoring plane of CSI: a long-running
// monitor that ingests an interleaved multi-flow packet stream and runs the
// core inference pipeline incrementally over each flow as it grows, instead
// of once over a finished capture. The robustness envelope — bounded ingest
// ring with shedding, per-flow memory budgets with LRU eviction, per-solve
// guard budgets with panic containment and quarantine, graceful drain — is
// the point: one hostile or pathological flow degrades to a partial result
// with structured warnings while its siblings keep streaming.
//
// Determinism contract: a monitor configured for replay (blocking ingest,
// no eviction, nil Clock) produces byte-identical results to the batch
// pipeline (Batch) over the same frame sequence. The incremental machinery
// — capture.Trace's ByConn append path, core's EstimateMemo, the shared
// HalfCache — is exactly the machinery whose warm/cold byte-identity the
// core packages pin, so mid-flow provisional solves can run at any cadence
// (or be skipped under load) without changing any final inference.
package stream

import (
	"bufio"
	"container/heap"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"csi/internal/capture"
	"csi/internal/packet"
)

// Frame is one element of the monitor's ingest stream: a packet observed on
// a named flow, or a close marker ending the flow (the streaming analogue
// of a capture file ending).
type Frame struct {
	Flow  string
	Close bool
	// Packet is the observed packet view; zero-valued on close frames.
	Packet packet.View
}

// The frame stream is the daemon's wire format (DESIGN.md §12):
//
//	magic "CSIFRM" | version u8 | frames
//	frame: uvarint len | flags u8 | uvarint name len | name | packet record
//
// where bit 0 of flags marks a close frame and the packet record is
// capture's CSIRUN v1 per-packet record, byte for byte. A frame's bytes
// from flags on are also its WAL payload (appendFrameRecord), so one packet
// codec serves run files, the wire and the WAL.
const (
	frameMagic   = "CSIFRM"
	frameVersion = 1
	frameHeader  = len(frameMagic) + 1

	frameClose = 1 // flags bit: close marker
	// maxFrameBytes bounds one frame record, and sizes the reader's
	// buffer: every record decodes in place, and a corrupt length prefix
	// can never size an allocation. A frame needs a few dozen bytes plus
	// its flow name and the rare string fields.
	maxFrameBytes = 64 << 10
	// maxFlowNames bounds the decoder's flow-name intern table.
	maxFlowNames = 4096
)

// appendFrameRecord appends f's frame record (flags, flow name, packet
// record) to dst.
func appendFrameRecord(dst []byte, f *Frame) []byte {
	var flags byte
	if f.Close {
		flags = frameClose
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(len(f.Flow)))
	dst = append(dst, f.Flow...)
	return capture.AppendPacketRecord(dst, &f.Packet)
}

// flowNames interns decoded flow names: a stream repeats each name on
// every frame of its flow, so the decoder allocates each name once. A nil
// table interns nothing.
type flowNames map[string]string

func (t flowNames) name(b []byte) string {
	if s, ok := t[string(b)]; ok {
		return s
	}
	s := string(b)
	if t != nil && len(t) < maxFlowNames {
		t[s] = s
	}
	return s
}

// decodeFrameRecord parses a frame record that must span b exactly.
func decodeFrameRecord(b []byte, f *Frame, names flowNames) error {
	if len(b) == 0 {
		return io.ErrUnexpectedEOF
	}
	if b[0]&^frameClose != 0 {
		return fmt.Errorf("unknown frame flags %#x", b[0])
	}
	f.Close = b[0]&frameClose != 0
	n, w := binary.Uvarint(b[1:])
	switch {
	case w == 0:
		return io.ErrUnexpectedEOF
	case w < 0 || n > uint64(len(b)-1-w):
		return fmt.Errorf("flow name length overruns the record")
	}
	off := 1 + w + int(n)
	f.Flow = names.name(b[1+w : off])
	used, err := capture.DecodePacketRecord(b[off:], &f.Packet)
	if err != nil {
		return fmt.Errorf("packet record: %w", err)
	}
	if off+used != len(b) {
		return fmt.Errorf("%d trailing bytes after the packet record", len(b)-off-used)
	}
	return nil
}

// WriteFrames encodes frames as a binary frame stream.
func WriteFrames(w io.Writer, frames []Frame) error {
	// bufio.Writer errors are sticky: Flush reports the first one.
	bw := bufio.NewWriter(w)
	var rec []byte
	bw.WriteString(frameMagic)
	bw.WriteByte(frameVersion)
	for i := range frames {
		rec = appendFrameRecord(rec[:0], &frames[i])
		if len(rec) > maxFrameBytes {
			return fmt.Errorf("stream: frame %d is %d bytes, over the %d-byte limit", i, len(rec), maxFrameBytes)
		}
		var pre [binary.MaxVarintLen64]byte
		bw.Write(pre[:binary.PutUvarint(pre[:], uint64(len(rec)))])
		bw.Write(rec)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("stream: writing frames: %w", err)
	}
	return nil
}

// ErrTruncatedTail marks a stream that ends mid-record: the final record
// is incomplete. It is the expected shape of a crash mid-write, so
// recovery-minded readers tolerate it — errors.Is(err, ErrTruncatedTail) —
// and treat it as end of the valid prefix, while batch loading still fails
// loudly.
var ErrTruncatedTail = errors.New("truncated tail")

// FrameReader decodes a binary frame stream incrementally, record by
// record, so every error can say exactly where the damage is.
type FrameReader struct {
	br     *bufio.Reader
	record int   // 1-based index of the last record read (0: the header)
	offset int64 // byte offset where that record began
	next   int64 // byte offset of the next unread byte
	names  flowNames
	err    error // sticky terminal error
}

// NewFrameReader reads frames from r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{br: bufio.NewReaderSize(r, maxFrameBytes), names: flowNames{}}
}

// Record reports the 1-based index of the most recent Next call's record;
// 0 while the stream header is being read.
func (fr *FrameReader) Record() int { return fr.record }

// Offset reports the byte offset where the most recent Next's record
// began.
func (fr *FrameReader) Offset() int64 { return fr.offset }

func (fr *FrameReader) fail(err error) error {
	fr.err = fmt.Errorf("stream: record %d (byte offset %d): %w", fr.record, fr.offset, err)
	return fr.err
}

// truncated fails the read with ErrTruncatedTail when err is an end of
// input, and as err otherwise.
func (fr *FrameReader) truncated(err error, what string) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fr.fail(fmt.Errorf("%w: %s cut short", ErrTruncatedTail, what))
	}
	return fr.fail(err)
}

// header checks the stream's magic and version.
func (fr *FrameReader) header() error {
	want := frameMagic + string(rune(frameVersion))
	head, err := fr.br.Peek(frameHeader)
	switch {
	case len(head) == 0 && err == io.EOF:
		fr.err = io.EOF
		return io.EOF
	case string(head) == want:
		_, _ = fr.br.Discard(frameHeader) // peeked above: cannot fail
		fr.next = int64(frameHeader)
		return nil
	case len(head) < frameHeader && string(head) == want[:len(head)]:
		return fr.truncated(err, "stream header")
	}
	return fr.fail(fmt.Errorf("not a version %d frame stream (header %q)", frameVersion, head))
}

// length reads a record's uvarint length prefix; w is the bytes it took.
// A clean end of stream before the first byte is io.EOF.
func (fr *FrameReader) length() (n uint64, w int, err error) {
	for shift := uint(0); ; shift += 7 {
		c, err := fr.br.ReadByte()
		if err != nil {
			if w > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, w, err
		}
		w++
		n |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return n, w, nil
		}
		if w == 3 { // maxFrameBytes fits in three varint bytes
			return 0, w, fmt.Errorf("implausible frame length (over %d bytes)", maxFrameBytes)
		}
	}
}

// Next returns the next frame, io.EOF at a clean end of stream, or a decode
// error carrying the record index and byte offset of the damage. A record
// cut short by the end of the stream wraps ErrTruncatedTail so recovery
// paths can distinguish a crash-truncated recording from corruption.
// Errors are terminal: after any non-nil error every further Next repeats
// it.
func (fr *FrameReader) Next() (Frame, error) {
	var f Frame
	if fr.err != nil {
		return f, fr.err
	}
	if fr.next == 0 {
		if err := fr.header(); err != nil {
			return f, err
		}
	}
	fr.record++
	fr.offset = fr.next
	n, w, err := fr.length()
	switch {
	case err == io.EOF:
		fr.err = io.EOF
		return f, io.EOF
	case err != nil:
		return f, fr.truncated(err, "length prefix")
	case n == 0 || n > maxFrameBytes:
		return f, fr.fail(fmt.Errorf("implausible frame length %d", n))
	}
	rec, err := fr.br.Peek(int(n)) // n <= maxFrameBytes, the buffer size
	if err != nil {
		return f, fr.truncated(err, fmt.Sprintf("%d-byte record", n))
	}
	if err := decodeFrameRecord(rec, &f, fr.names); err != nil {
		return f, fr.fail(err)
	}
	_, _ = fr.br.Discard(int(n)) // peeked above: cannot fail
	fr.next += int64(w) + int64(n)
	return f, nil
}

// ReadFrames decodes an entire frame stream.
func ReadFrames(r io.Reader) ([]Frame, error) {
	fr := NewFrameReader(r)
	var out []Frame
	for {
		f, err := fr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
}

// Pack merges named capture runs into one interleaved frame stream ordered
// by capture timestamp (ties broken by flow name, then by per-flow packet
// order), with a close marker directly after each flow's last packet. This
// is how recorded single-flow captures become a deterministic multi-flow
// ingest recording for replay and tests. The merge is a heap over each
// flow's next packet: O(frames × log flows).
func Pack(runs map[string]*capture.Trace) []Frame {
	names := make([]string, 0, len(runs))
	for name := range runs {
		names = append(names, name)
	}
	sort.Strings(names)

	h := packHeap{runs: make([][]packet.View, len(names)), next: make([]int, len(names))}
	total := 0
	for i, name := range names {
		h.runs[i] = runs[name].Packets
		total += len(h.runs[i]) + 1
		if len(h.runs[i]) > 0 {
			h.flows = append(h.flows, i)
		}
	}
	heap.Init(&h)
	out := make([]Frame, 0, total)
	for len(h.flows) > 0 {
		i := h.flows[0]
		pkts := h.runs[i]
		out = append(out, Frame{Flow: names[i], Packet: pkts[h.next[i]]})
		h.next[i]++
		if h.next[i] == len(pkts) {
			out = append(out, Frame{Flow: names[i], Close: true})
			heap.Pop(&h)
		} else {
			heap.Fix(&h, 0)
		}
	}
	// Close markers for empty traces, in name order.
	for i, name := range names {
		if len(h.runs[i]) == 0 {
			out = append(out, Frame{Flow: name, Close: true})
		}
	}
	return out
}

// packHeap orders the flows with packets left by (next packet's time, name
// index).
type packHeap struct {
	runs  [][]packet.View // per flow, in name order
	next  []int           // per flow, index of its next packet
	flows []int           // heap of flow indices
}

func (h *packHeap) Len() int { return len(h.flows) }

func (h *packHeap) Less(a, b int) bool {
	i, j := h.flows[a], h.flows[b]
	ti, tj := h.runs[i][h.next[i]].Time, h.runs[j][h.next[j]].Time
	return ti < tj || (ti == tj && i < j)
}

func (h *packHeap) Swap(a, b int) { h.flows[a], h.flows[b] = h.flows[b], h.flows[a] }

func (h *packHeap) Push(x any) { h.flows = append(h.flows, x.(int)) }

func (h *packHeap) Pop() any {
	n := len(h.flows) - 1
	x := h.flows[n]
	h.flows = h.flows[:n]
	return x
}

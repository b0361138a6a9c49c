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
	"bytes"
	"container/heap"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"csi/internal/capture"
	"csi/internal/packet"
)

// Frame is one element of the monitor's ingest stream: a packet observed on
// a named flow, or a close marker ending the flow (the streaming analogue
// of a capture file ending). The JSONL encoding is the daemon's wire
// format.
type Frame struct {
	Flow  string `json:"flow"`
	Close bool   `json:"close,omitempty"`
	// Packet is the observed packet view; zero-valued on close frames.
	Packet packet.View `json:"packet"`
}

// WriteFrames encodes frames as JSONL.
func WriteFrames(w io.Writer, frames []Frame) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range frames {
		if err := enc.Encode(&frames[i]); err != nil {
			return fmt.Errorf("stream: encoding frame %d: %w", i, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("stream: writing frames: %w", err)
	}
	return nil
}

// ErrTruncatedTail marks a stream that ends mid-record: the final line is
// incomplete (no terminating newline, not parseable). It is the expected
// shape of a crash mid-write, so recovery-minded readers tolerate it —
// errors.Is(err, ErrTruncatedTail) — and treat it as end of the valid
// prefix, while batch loading still fails loudly.
var ErrTruncatedTail = errors.New("truncated tail")

// FrameReader decodes a JSONL frame stream incrementally, line by line, so
// every error can say exactly where the damage is.
type FrameReader struct {
	br       *bufio.Reader
	line     int    // 1-based line of the last read attempt
	offset   int64  // byte offset of the start of that line
	lastLine []byte // bytes consumed for the previous line (offset bookkeeping)
	err      error  // sticky terminal error
}

// NewFrameReader reads frames from r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{br: bufio.NewReader(r)}
}

// Line reports the 1-based line number of the most recent Next call.
func (fr *FrameReader) Line() int { return fr.line }

// Offset reports the byte offset where the most recent Next's line began.
func (fr *FrameReader) Offset() int64 { return fr.offset }

// Next returns the next frame, io.EOF at a clean end of stream, or a decode
// error carrying the line number and byte offset of the damage. A final
// line that ends mid-record (no newline, unparseable) wraps
// ErrTruncatedTail so recovery paths can distinguish a crash-truncated
// recording from corruption. Blank lines are skipped. Errors are terminal:
// after any non-nil error every further Next repeats it.
func (fr *FrameReader) Next() (Frame, error) {
	var f Frame
	if fr.err != nil {
		return f, fr.err
	}
	for {
		fr.offset += int64(len(fr.lastLine))
		raw, rerr := fr.br.ReadBytes('\n')
		fr.line++
		fr.lastLine = raw
		if rerr != nil && rerr != io.EOF {
			fr.err = fmt.Errorf("stream: line %d (byte offset %d): %w", fr.line, fr.offset, rerr)
			return f, fr.err
		}
		atEOF := rerr == io.EOF
		trimmed := bytes.TrimSpace(raw)
		if len(trimmed) == 0 {
			if atEOF {
				fr.err = io.EOF
				return f, io.EOF
			}
			continue // blank line
		}
		if err := json.Unmarshal(trimmed, &f); err != nil {
			if atEOF {
				// The recording stops mid-line: a crash-truncated tail,
				// not corruption.
				fr.err = fmt.Errorf("stream: line %d (byte offset %d): %w: %v", fr.line, fr.offset, ErrTruncatedTail, err)
			} else {
				fr.err = fmt.Errorf("stream: line %d (byte offset %d): %w", fr.line, fr.offset, err)
			}
			return f, fr.err
		}
		// A parseable final line without a newline is a complete frame.
		if atEOF {
			fr.err = io.EOF
		}
		return f, nil
	}
}

// ReadFrames decodes an entire JSONL stream.
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

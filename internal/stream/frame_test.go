package stream

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"csi/internal/capture"
	"csi/internal/packet"
)

// The FrameReader's diagnostics are part of the durability story: when a
// recording is damaged, the error must say exactly where (line, byte
// offset), and a crash-truncated tail must be distinguishable from
// corruption so recovery can tolerate the former while batch loading
// rejects both.

func TestFrameReaderDecodeErrorPosition(t *testing.T) {
	in := `{"flow":"a","packet":{"time":1,"conn":1,"len":10}}
{"flow":"b","close":true}
not json at all
{"flow":"c","close":true}
`
	fr := NewFrameReader(strings.NewReader(in))
	for i := 0; i < 2; i++ {
		if _, err := fr.Next(); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	_, err := fr.Next()
	if err == nil {
		t.Fatal("decode of garbage line succeeded")
	}
	wantOffset := int64(len(`{"flow":"a","packet":{"time":1,"conn":1,"len":10}}` + "\n" + `{"flow":"b","close":true}` + "\n"))
	if fr.Line() != 3 || fr.Offset() != wantOffset {
		t.Fatalf("damage reported at line %d offset %d, want line 3 offset %d", fr.Line(), fr.Offset(), wantOffset)
	}
	if !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "byte offset 77") {
		t.Fatalf("error lacks position: %v", err)
	}
	if errors.Is(err, ErrTruncatedTail) {
		t.Fatalf("mid-stream corruption classified as truncated tail: %v", err)
	}
	// Errors are sticky: the valid frame after the damage is unreachable.
	if _, err2 := fr.Next(); err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("error not sticky: %v", err2)
	}
}

func TestFrameReaderTruncatedTail(t *testing.T) {
	in := `{"flow":"a","packet":{"time":1,"conn":1,"len":10}}
{"flow":"a","clo`
	fr := NewFrameReader(strings.NewReader(in))
	if _, err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	_, err := fr.Next()
	if !errors.Is(err, ErrTruncatedTail) {
		t.Fatalf("truncated final line not ErrTruncatedTail: %v", err)
	}
	if fr.Line() != 2 {
		t.Fatalf("truncation reported at line %d, want 2", fr.Line())
	}
	// Batch loading still fails loudly on the same stream.
	if _, err := ReadFrames(strings.NewReader(in)); !errors.Is(err, ErrTruncatedTail) {
		t.Fatalf("ReadFrames tolerated a truncated tail: %v", err)
	}
}

func TestFrameReaderFinalLineWithoutNewline(t *testing.T) {
	// A complete record missing only its newline is a clean end of stream,
	// not a truncated tail: the crash happened after the payload landed.
	in := `{"flow":"a","packet":{"time":1,"conn":1,"len":10}}
{"flow":"a","close":true}`
	frames, err := ReadFrames(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 2 || !frames[1].Close {
		t.Fatalf("got %d frames, want 2 ending in close", len(frames))
	}
}

func TestFrameReaderSkipsBlankLines(t *testing.T) {
	in := "\n{\"flow\":\"a\",\"close\":true}\n\n   \n{\"flow\":\"b\",\"close\":true}\n\n"
	fr := NewFrameReader(strings.NewReader(in))
	f1, err := fr.Next()
	if err != nil || f1.Flow != "a" {
		t.Fatalf("first frame %+v, %v", f1, err)
	}
	if fr.Line() != 2 {
		t.Fatalf("first frame on line %d, want 2", fr.Line())
	}
	f2, err := fr.Next()
	if err != nil || f2.Flow != "b" {
		t.Fatalf("second frame %+v, %v", f2, err)
	}
	if fr.Line() != 5 {
		t.Fatalf("second frame on line %d, want 5", fr.Line())
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("end of blank-padded stream: %v", err)
	}
}

func TestFrameReaderEmptyStream(t *testing.T) {
	fr := NewFrameReader(strings.NewReader(""))
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("empty stream: %v", err)
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("EOF not sticky: %v", err)
	}
}

func packTrace(times ...float64) *capture.Trace {
	tr := capture.NewTrace()
	tap := tr.Tap()
	for i, ts := range times {
		tap(packet.View{Time: ts, ConnID: 1, Dir: packet.Down, Size: int64(100 + i)}, ts)
	}
	return tr
}

// TestPackTieBreaks pins Pack's order: equal timestamps across flows go in
// name order, a flow's own packets keep their order, each close marker
// follows its flow's last packet, and close markers for empty traces come
// last, in name order.
func TestPackTieBreaks(t *testing.T) {
	frames := Pack(map[string]*capture.Trace{
		"b":     packTrace(1, 2, 2),
		"a":     packTrace(2, 2),
		"c":     packTrace(1, 3),
		"empty": packTrace(),
		"d":     packTrace(),
	})
	var got []string
	for _, f := range frames {
		if f.Close {
			got = append(got, f.Flow+":close")
		} else {
			got = append(got, fmt.Sprintf("%s:%g/%d", f.Flow, f.Packet.Time, f.Packet.Size))
		}
	}
	want := []string{
		"b:1/100", "c:1/100",
		"a:2/100", "a:2/101", "a:close",
		"b:2/101", "b:2/102", "b:close",
		"c:3/101", "c:close",
		"d:close", "empty:close",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("Pack order\n got: %v\nwant: %v", got, want)
	}
}

// TestPackMatchesLinearMerge holds the heap merge to the plain
// scan-every-flow merge it replaced, on tie-heavy random recordings.
func TestPackMatchesLinearMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 50; round++ {
		runs := map[string]*capture.Trace{}
		for f := rng.Intn(6); f >= 0; f-- {
			times := make([]float64, rng.Intn(12))
			ts := 0.0
			for i := range times {
				ts += float64(rng.Intn(3))
				times[i] = ts
			}
			runs[fmt.Sprintf("flow%d", rng.Intn(8))] = packTrace(times...)
		}
		got, want := Pack(runs), linearPack(runs)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: heap merge diverged from the linear merge\n got: %+v\nwant: %+v", round, got, want)
		}
	}
}

// linearPack is the reference merge: scan every flow for the earliest next
// packet, first in name order on ties.
func linearPack(runs map[string]*capture.Trace) []Frame {
	names := make([]string, 0, len(runs))
	for name := range runs {
		names = append(names, name)
	}
	sort.Strings(names)
	idx := make([]int, len(names))
	out := []Frame{}
	for {
		best := -1
		for i, name := range names {
			pkts := runs[name].Packets
			if idx[i] < len(pkts) && (best < 0 || pkts[idx[i]].Time < runs[names[best]].Packets[idx[best]].Time) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		name := names[best]
		out = append(out, Frame{Flow: name, Packet: runs[name].Packets[idx[best]]})
		idx[best]++
		if idx[best] == len(runs[name].Packets) {
			out = append(out, Frame{Flow: name, Close: true})
		}
	}
	for i, name := range names {
		if len(runs[name].Packets) == 0 && idx[i] == 0 {
			out = append(out, Frame{Flow: name, Close: true})
		}
	}
	return out
}

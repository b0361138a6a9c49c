package stream

import (
	"bytes"
	"encoding/binary"
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
// recording is damaged, the error must say exactly where (record index,
// byte offset), and a crash-truncated tail must be distinguishable from
// corruption so recovery can tolerate the former while batch loading
// rejects both.

// encodeFrames renders frames as a binary frame stream.
func encodeFrames(t *testing.T, frames ...Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrames(&buf, frames); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// prefixed renders one length-prefixed record of the frame stream.
func prefixed(rec []byte) []byte {
	return append(binary.AppendUvarint(nil, uint64(len(rec))), rec...)
}

var (
	frameA     = Frame{Flow: "a", Packet: packet.View{Time: 1, ConnID: 1, Size: 10}}
	frameBEnd  = Frame{Flow: "b", Close: true}
	frameCEnd  = Frame{Flow: "c", Close: true}
	frameAWire = prefixed(appendFrameRecord(nil, &frameA))
)

func TestFrameReaderDecodeErrorPosition(t *testing.T) {
	good := encodeFrames(t, frameA, frameBEnd)
	damaged := prefixed([]byte{0x80, 0, 0}) // unknown frame flags
	in := append(append(bytes.Clone(good), damaged...), prefixed(appendFrameRecord(nil, &frameCEnd))...)
	fr := NewFrameReader(bytes.NewReader(in))
	for i := 0; i < 2; i++ {
		if _, err := fr.Next(); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	_, err := fr.Next()
	if err == nil {
		t.Fatal("decode of a damaged record succeeded")
	}
	wantOffset := int64(len(good))
	if fr.Record() != 3 || fr.Offset() != wantOffset {
		t.Fatalf("damage reported at record %d offset %d, want record 3 offset %d", fr.Record(), fr.Offset(), wantOffset)
	}
	if want := fmt.Sprintf("record 3 (byte offset %d)", wantOffset); !strings.Contains(err.Error(), want) {
		t.Fatalf("error lacks position %q: %v", want, err)
	}
	if errors.Is(err, ErrTruncatedTail) {
		t.Fatalf("mid-stream corruption classified as truncated tail: %v", err)
	}
	// Errors are sticky: the valid frame after the damage is unreachable.
	if _, err2 := fr.Next(); err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("error not sticky: %v", err2)
	}

	// Damage the decoder must refuse before it allocates or reads on: a
	// length prefix past the record bound, a zero length, a record with
	// bytes after its packet, a name running past its record, and unknown
	// packet flags.
	header := good[:frameHeader]
	tail := appendFrameRecord(nil, &frameA)
	for name, rec := range map[string][]byte{
		"oversized length": {0xff, 0xff, 0xff, 0x7f},
		"zero length":      {0},
		"trailing bytes":   prefixed(append(bytes.Clone(tail), 0)),
		"name overrun":     prefixed([]byte{0, 9, 'a'}),
		"packet flags":     prefixed([]byte{0, 1, 'a', 0x10}),
	} {
		_, err := ReadFrames(bytes.NewReader(append(bytes.Clone(header), rec...)))
		if err == nil || errors.Is(err, ErrTruncatedTail) || !strings.Contains(err.Error(), "record 1 (byte offset 7)") {
			t.Errorf("%s: got %v, want a positioned non-truncation error", name, err)
		}
	}
}

func TestFrameReaderTruncatedTail(t *testing.T) {
	whole := encodeFrames(t, frameA, frameA)
	for cut := len(whole) - len(frameAWire) + 1; cut < len(whole); cut++ {
		fr := NewFrameReader(bytes.NewReader(whole[:cut]))
		if _, err := fr.Next(); err != nil {
			t.Fatal(err)
		}
		_, err := fr.Next()
		if !errors.Is(err, ErrTruncatedTail) {
			t.Fatalf("cut at %d: truncated final record not ErrTruncatedTail: %v", cut, err)
		}
		if fr.Record() != 2 {
			t.Fatalf("cut at %d: truncation reported at record %d, want 2", cut, fr.Record())
		}
		// Batch loading still fails loudly on the same stream.
		if _, err := ReadFrames(bytes.NewReader(whole[:cut])); !errors.Is(err, ErrTruncatedTail) {
			t.Fatalf("cut at %d: ReadFrames tolerated a truncated tail: %v", cut, err)
		}
	}
	// A header cut short is a truncated tail too.
	if _, err := ReadFrames(bytes.NewReader(whole[:3])); !errors.Is(err, ErrTruncatedTail) {
		t.Fatalf("truncated header: %v", err)
	}
}

func TestFrameReaderFinalRecord(t *testing.T) {
	// A stream whose final record is complete ends cleanly: the crash, if
	// any, happened after the payload landed.
	fr := NewFrameReader(bytes.NewReader(encodeFrames(t, frameA, frameBEnd)))
	for i := 0; i < 2; i++ {
		if _, err := fr.Next(); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := fr.Next(); err != io.EOF {
			t.Fatalf("end of stream %d: %v", i, err)
		}
	}
	frames, err := ReadFrames(bytes.NewReader(encodeFrames(t, frameA, frameBEnd)))
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 2 || !frames[1].Close {
		t.Fatalf("got %d frames, want 2 ending in close", len(frames))
	}
}

func TestFrameReaderEmptyStream(t *testing.T) {
	for name, in := range map[string][]byte{"no bytes": nil, "header only": encodeFrames(t)} {
		fr := NewFrameReader(bytes.NewReader(in))
		if _, err := fr.Next(); err != io.EOF {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := fr.Next(); err != io.EOF {
			t.Fatalf("%s: EOF not sticky: %v", name, err)
		}
	}
}

func TestFrameReaderWrongMagic(t *testing.T) {
	for name, in := range map[string]string{
		"jsonl":   `{"flow":"a","close":true}` + "\n",
		"csirun":  "CSIRUN\x01",
		"version": frameMagic + "\x02",
	} {
		_, err := ReadFrames(strings.NewReader(in))
		if err == nil || errors.Is(err, ErrTruncatedTail) || !strings.Contains(err.Error(), "record 0 (byte offset 0)") {
			t.Errorf("%s: got %v, want a header error", name, err)
		}
	}
}

// randomView draws a packet view over every field, with the rare string
// fields on about one packet in five.
func randomView(rng *rand.Rand) packet.View {
	v := packet.View{
		Time: rng.Float64() * 1e4, Dir: packet.Dir(rng.Intn(2)), Proto: packet.Proto(rng.Intn(2)),
		ConnID: rng.Intn(64) - 8, Size: rng.Int63n(1 << 20), TCPSeq: rng.Int63() - 1<<62,
		TCPPayload: rng.Int63n(1500), TLSAppBytes: rng.Int63n(1500), TLSHSBytes: rng.Int63n(300),
		QUICPN: rng.Int63n(1 << 40), QUICPayload: rng.Int63n(1400), QUICLong: rng.Intn(2) == 0,
	}
	if rng.Intn(5) == 0 {
		strs := []string{"", "media.example.com", "10.0.0.7", "\x00\xff", strings.Repeat("x", 300)}
		v.SNI, v.ServerIP = strs[rng.Intn(len(strs))], strs[rng.Intn(len(strs))]
		v.DNSQuery, v.DNSAnswerIP = strs[rng.Intn(len(strs))], strs[rng.Intn(len(strs))]
	}
	return v
}

// TestFrameCodecRoundTrip is the codec's property test: random frames,
// close markers among them, survive the frame stream and the WAL payload
// encoding unchanged, and a frame record carries exactly capture's packet
// record after its flow name.
func TestFrameCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 200; round++ {
		frames := make([]Frame, rng.Intn(40))
		for i := range frames {
			frames[i] = Frame{Flow: fmt.Sprintf("flow-%d", rng.Intn(5))}
			if rng.Intn(8) == 0 {
				frames[i].Close = true
			} else {
				frames[i].Packet = randomView(rng)
			}
		}
		got, err := ReadFrames(bytes.NewReader(encodeFrames(t, frames...)))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(got) != len(frames) || (len(frames) > 0 && !reflect.DeepEqual(got, frames)) {
			t.Fatalf("round %d: stream round trip\n got %+v\nwant %+v", round, got, frames)
		}
		for i := range frames {
			rec := appendFrameRecord(nil, &frames[i])
			var f Frame
			if err := decodeFrameRecord(rec, &f, nil); err != nil || f != frames[i] {
				t.Fatalf("round %d frame %d: WAL payload round trip gave %+v, %v", round, i, f, err)
			}
			pkt := capture.AppendPacketRecord(nil, &frames[i].Packet)
			if !bytes.HasSuffix(rec, pkt) || len(rec) != 1+len(binary.AppendUvarint(nil, uint64(len(frames[i].Flow))))+len(frames[i].Flow)+len(pkt) {
				t.Fatalf("round %d frame %d: frame record does not end in the packet record", round, i)
			}
		}
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

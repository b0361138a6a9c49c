package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"csi/internal/capture"
	"csi/internal/packet"
	"csi/internal/stream"
)

func testRun(times ...float64) *capture.Run {
	tr := capture.NewTrace()
	tap := tr.Tap()
	for i, ts := range times {
		tap(packet.View{Time: ts, ConnID: 1, Dir: packet.Down, Size: int64(100 + i), SNI: "media.example.com"}, ts)
	}
	return &capture.Run{Trace: tr}
}

// TestPackBinaryRun packs a CSIRUN .bin run (what csi-run writes) beside a
// JSON run, and checks the frame stream and the count line scripts read.
func TestPackBinaryRun(t *testing.T) {
	dir := t.TempDir()
	bin, js := filepath.Join(dir, "a.bin"), filepath.Join(dir, "b.json")
	if err := testRun(1, 3, 5).SaveBinary(bin); err != nil {
		t.Fatal(err)
	}
	if err := testRun(2, 4).SaveJSON(js); err != nil {
		t.Fatal(err)
	}
	var out, log bytes.Buffer
	if err := packRuns([]string{bin, js}, &out, &log); err != nil {
		t.Fatal(err)
	}
	if got, want := log.String(), "packed 7 frames (2 flows)\n"; got != want {
		t.Fatalf("pack reported %q, want %q", got, want)
	}
	frames, err := stream.ReadFrames(&out)
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, f := range frames {
		order = append(order, f.Flow)
	}
	want := []string{"a", "b", "a", "b", "b", "a", "a"}
	if len(order) != len(want) {
		t.Fatalf("flows %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("flows %v, want %v", order, want)
		}
	}
	if !frames[4].Close || !frames[6].Close || frames[0].Packet.SNI != "media.example.com" {
		t.Fatalf("close markers or packet fields lost: %+v", frames)
	}
}

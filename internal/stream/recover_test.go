package stream

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"csi/internal/capture"
	"csi/internal/media"
	"csi/internal/obs"
	"csi/internal/packet"
	"csi/internal/session"
	"csi/internal/stream/crashpoint"
	"csi/internal/testleak"
)

// durTestFrames builds a small two-flow recording with close markers (so
// commits happen mid-stream, not only at drain).
func durTestFrames(t *testing.T, man *media.Manifest) []Frame {
	t.Helper()
	return Pack(map[string]*capture.Trace{
		"alpha": testSession(t, man, session.SH, 51, 35),
		"beta":  testSession(t, man, session.SH, 52, 25),
	})
}

func feedFrom(mon *Monitor, frames []Frame, resume uint64) {
	for i := int(resume); i < len(frames); i++ {
		mon.Ingest(frames[i])
	}
}

// shifted re-taps a trace with every timestamp moved by dt seconds.
func shifted(tr *capture.Trace, dt float64) *capture.Trace {
	out := capture.NewTrace()
	tap := out.Tap()
	for _, v := range tr.Packets {
		v.Time += dt
		tap(v, v.Time)
	}
	return out
}

func logSegsOnDisk(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, logSegPrefix+"*"+walSegSuffix))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// TestDurableGracefulDrainSkipsReplay pins the graceful-shutdown contract:
// a durable run that drains cleanly leaves a final checkpoint and no WAL
// frame at all, so the restart resumes past the whole recording, re-solves
// nothing, and still serializes byte-identically.
func TestDurableGracefulDrainSkipsReplay(t *testing.T) {
	testleak.Check(t)
	man := testManifest(t, session.SH)
	frames := durTestFrames(t, man)
	dir := t.TempDir()

	opts := replayOpts(man, false)
	d, err := OpenDurability(dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d.every = 512
	rec := Recover(d, opts)
	if rec.Resume != 0 || rec.Replayed != 0 || len(rec.Warnings) != 0 {
		t.Fatalf("fresh dir recovered state: %+v", rec)
	}
	feedFrom(rec.Monitor, frames, rec.Resume)
	want := marshalResults(t, rec.Monitor.Drain())

	if segs := walSegsOnDisk(t, dir); len(segs) != 0 {
		t.Fatalf("graceful drain left WAL segments: %v", segs)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if logs := logSegsOnDisk(t, dir); len(logs) == 0 || len(logs) != len(entries) {
		t.Fatalf("drained state dir holds %d entries, want only the commit log (%v)", len(entries), logs)
	}

	opts2 := replayOpts(man, false)
	opts2.Obs = obs.New(nil, nil)
	d2, err := OpenDurability(dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rec2 := Recover(d2, opts2)
	if rec2.Resume != uint64(len(frames)) {
		t.Fatalf("Resume = %d, want %d (whole recording)", rec2.Resume, len(frames))
	}
	if rec2.Replayed != 0 || len(rec2.Warnings) != 0 {
		t.Fatalf("clean restart replayed %d WAL frames with warnings %v, want none", rec2.Replayed, rec2.Warnings)
	}
	feedFrom(rec2.Monitor, frames, rec2.Resume) // no-op: resume covers everything
	got := marshalResults(t, rec2.Monitor.Drain())
	if !bytes.Equal(got, want) {
		t.Fatalf("restart output diverged:\nrestart:\n%s\nfirst run:\n%s", got, want)
	}
	if solves := opts2.Obs.Metrics().Counter("stream.solves_total").Value(); solves != 0 {
		t.Fatalf("clean restart ran %d solves, want 0", solves)
	}
}

// TestRecoverWALTail pins WAL-only recovery (a crash before any
// checkpoint): the salvaged records replay, the input resumes past them,
// and the drained output is byte-identical to the uninterrupted batch
// reference.
func TestRecoverWALTail(t *testing.T) {
	testleak.Check(t)
	man := testManifest(t, session.SH)
	frames := durTestFrames(t, man)
	k := len(frames) / 2
	dir := t.TempDir()

	d, err := OpenDurability(dir, DurabilityOptions{SyncPolicy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		d.appendFrames(uint64(i+1), frames[i:i+1])
	}
	// No close: the process "dies" here with the WAL as its only legacy.

	opts := replayOpts(man, false)
	d2, err := OpenDurability(dir, DurabilityOptions{SyncPolicy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.Warnings()) != 0 {
		t.Fatalf("clean WAL produced warnings: %v", d2.Warnings())
	}
	rec := Recover(d2, opts)
	if rec.Resume != uint64(k) || rec.Replayed != k {
		t.Fatalf("Resume=%d Replayed=%d, want %d/%d", rec.Resume, rec.Replayed, k, k)
	}
	feedFrom(rec.Monitor, frames, rec.Resume)
	got := marshalResults(t, rec.Monitor.Drain())
	want := marshalResults(t, Batch(frames, replayOpts(man, false)))
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered output diverged from batch:\nrecovered:\n%s\nbatch:\n%s", got, want)
	}
}

// TestRecoverCorruptWALSalvages pins the mid-log corruption path end to
// end: a bit flip inside the WAL surfaces a structured warning, the valid
// prefix replays, and re-feeding the lost suffix converges to the same
// bytes as the uninterrupted run.
func TestRecoverCorruptWALSalvages(t *testing.T) {
	testleak.Check(t)
	man := testManifest(t, session.SH)
	frames := durTestFrames(t, man)
	k := len(frames) / 2
	dir := t.TempDir()

	d, err := OpenDurability(dir, DurabilityOptions{SyncPolicy: SyncAlways, SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		d.appendFrames(uint64(i+1), frames[i:i+1])
	}
	segs := walSegsOnDisk(t, dir)
	if len(segs) < 2 {
		t.Fatalf("need >= 2 segments for a mid-log flip, got %d", len(segs))
	}
	mid := segs[len(segs)/2]
	data, err := os.ReadFile(mid)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(mid, data, 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDurability(dir, DurabilityOptions{SyncPolicy: SyncAlways, SegmentBytes: 4096})
	if err != nil {
		t.Fatalf("corrupt WAL must salvage, not fail: %v", err)
	}
	var sawCorrupt bool
	for _, w := range d2.Warnings() {
		if w.Code == "wal_corrupt" {
			sawCorrupt = true
		}
	}
	if !sawCorrupt {
		t.Fatalf("no wal_corrupt warning; got %v", d2.Warnings())
	}
	rec := Recover(d2, replayOpts(man, false))
	if rec.Resume >= uint64(k) {
		t.Fatalf("Resume=%d past the corruption (flip landed before record %d)", rec.Resume, k)
	}
	feedFrom(rec.Monitor, frames, rec.Resume)
	got := marshalResults(t, rec.Monitor.Drain())
	want := marshalResults(t, Batch(frames, replayOpts(man, false)))
	if !bytes.Equal(got, want) {
		t.Fatalf("salvaged output diverged from batch:\nsalvaged:\n%s\nbatch:\n%s", got, want)
	}
}

// TestRecoverTornWALTailWarns pins the crash-mid-append shape through
// OpenDurability: a partial record at the tail is dropped with a
// wal_truncated_tail warning and the prefix replays.
func TestRecoverTornWALTailWarns(t *testing.T) {
	man := testManifest(t, session.SH)
	frames := durTestFrames(t, man)
	dir := t.TempDir()
	d, err := OpenDurability(dir, DurabilityOptions{SyncPolicy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		d.appendFrames(uint64(i+1), frames[i:i+1])
	}
	if _, err := d.w.f.Write([]byte{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDurability(dir, DurabilityOptions{SyncPolicy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.Warnings()) != 1 || d2.Warnings()[0].Code != "wal_truncated_tail" {
		t.Fatalf("warnings = %v, want one wal_truncated_tail", d2.Warnings())
	}
	if d2.baseSeq != 3 {
		t.Fatalf("baseSeq = %d, want 3", d2.baseSeq)
	}
}

// TestWALRetentionFollowsOldestLiveFlow pins the garbage-collection rule:
// once the flows that started first have closed and a checkpoint lands,
// the WAL segments wholly before the oldest live flow's first frame are
// gone, and the one holding that frame stays.
func TestWALRetentionFollowsOldestLiveFlow(t *testing.T) {
	testleak.Check(t)
	man := testManifest(t, session.SH)
	// gamma starts after alpha's last packet, so alpha's frames become
	// garbage once alpha commits.
	frames := Pack(map[string]*capture.Trace{
		"alpha": testSession(t, man, session.SH, 51, 35),
		"gamma": shifted(testSession(t, man, session.SH, 53, 20), 40),
	})
	var gammaFirst uint64
	for i, f := range frames {
		if f.Flow == "gamma" {
			gammaFirst = uint64(i + 1)
			break
		}
	}
	stop := int(gammaFirst) + 2048
	if gammaFirst < 4096 || stop >= len(frames) {
		t.Fatalf("fixture shape: gamma starts at frame %d of %d", gammaFirst, len(frames))
	}

	dir := t.TempDir()
	d, err := OpenDurability(dir, DurabilityOptions{SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	d.every = 512
	rec := Recover(d, replayOpts(man, false))
	for _, f := range frames[:stop] {
		rec.Monitor.Ingest(f)
	}
	deadline := time.Now().Add(time.Minute)
	var st DurabilityStatus
	for {
		st = d.Status().(DurabilityStatus)
		if st.LastCheckpointSeq > gammaFirst {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint past gamma's first frame %d (status %+v)", gammaFirst, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.WALRetainedFromSeq != gammaFirst {
		t.Fatalf("wal_retained_from_seq = %d, want gamma's first frame %d", st.WALRetainedFromSeq, gammaFirst)
	}
	segs := walSegsOnDisk(t, dir)
	if len(segs) < 2 {
		t.Fatalf("want >= 2 retained segments at 64 KiB, got %v", segs)
	}
	firstOf := func(path string) uint64 {
		var seq uint64
		if _, err := fmt.Sscanf(filepath.Base(path), walSegPrefix+"%d"+walSegSuffix, &seq); err != nil {
			t.Fatal(err)
		}
		return seq
	}
	if first := firstOf(segs[0]); first == 1 || first > gammaFirst {
		t.Fatalf("oldest retained segment starts at %d; want past 1 and at or before %d", first, gammaFirst)
	}
	if next := firstOf(segs[1]); next <= gammaFirst {
		t.Fatalf("segment %s lies wholly before gamma's first frame %d", filepath.Base(segs[0]), gammaFirst)
	}

	feedFrom(rec.Monitor, frames, uint64(stop))
	got := marshalResults(t, rec.Monitor.Drain())
	want := marshalResults(t, Batch(frames, replayOpts(man, false)))
	if !bytes.Equal(got, want) {
		t.Fatalf("output diverged from batch:\ngot:\n%s\nbatch:\n%s", got, want)
	}
	if segs := walSegsOnDisk(t, dir); len(segs) != 0 {
		t.Fatalf("drain left WAL segments: %v", segs)
	}
}

// TestTornCheckpointFallsBack kills a durable replay between a checkpoint
// append and its fsync, then tears that record: recovery falls back to the
// previous checkpoint with a checkpoint_truncated_tail warning, redoes the
// WAL from there, and still reproduces the uninterrupted output byte for
// byte.
func TestTornCheckpointFallsBack(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a subprocess")
	}
	testleak.Check(t)
	man := testManifest(t, session.SH)
	frames := durTestFrames(t, man)
	fx := writeCrashFixture(t, man, frames)
	stateDir := t.TempDir()
	if code, log := fx.run(t, stateDir, filepath.Join(stateDir, "out.jsonl"), "checkpoint.post_append@3", false); code != crashpoint.ExitCode {
		t.Fatalf("crash run exited %d, want %d\n%s", code, crashpoint.ExitCode, log)
	}
	logs := logSegsOnDisk(t, stateDir)
	last := logs[len(logs)-1]
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	d, err := OpenDurability(stateDir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if w := d.Warnings(); len(w) != 1 || w[0].Code != "checkpoint_truncated_tail" {
		t.Fatalf("warnings = %v, want one checkpoint_truncated_tail", w)
	}
	if d.log.lastSeq != 2 || d.ck.Seq != 1024 {
		t.Fatalf("recovering from checkpoint %d at seq %d, want the second one", d.log.lastSeq, d.ck.Seq)
	}
	rec := Recover(d, replayOpts(man, false))
	feedFrom(rec.Monitor, frames, rec.Resume)
	got := marshalResults(t, rec.Monitor.Drain())
	want := marshalResults(t, Batch(frames, replayOpts(man, false)))
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered output diverged from batch:\nrecovered:\n%s\nbatch:\n%s", got, want)
	}
}

// TestCrashStraddlingCheckpointWithEviction kills a durable replay right
// after a checkpoint lands while LRU and idle eviction are armed, and the
// very next frames open a third flow whose timestamps lag the stream. The
// uninterrupted run evicts the least-recently-active flow (by the rebuilt
// lastSeq) and then idles out the lagging flow on its first packet (by the
// stored virtual clock, which its own packets never advance); recovery
// must take both decisions the same way.
func TestCrashStraddlingCheckpointWithEviction(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a subprocess")
	}
	testleak.Check(t)
	man := testManifest(t, session.SH)
	frames := durTestFrames(t, man)
	const at = 1024 // second checkpoint: every 512 frames, all quiescent
	late := Frame{Flow: "late", Packet: packet.View{Time: 0, ConnID: 9, Dir: packet.Up, Size: 100}}
	frames = append(frames[:at:at], append([]Frame{late, late, late}, frames[at:]...)...)
	opts := evictOpts(man)
	golden := marshalResults(t, replayThrough(t, frames, opts))
	for _, reason := range []string{`"flow":"beta","reason":"evicted:lru"`, `"flow":"late","reason":"evicted:idle","packets":1,`} {
		if !bytes.Contains(golden, []byte(reason)) {
			t.Fatalf("fixture lost its eviction (%s):\n%s", reason, golden)
		}
	}

	fx := writeCrashFixture(t, man, frames)
	stateDir := t.TempDir()
	if code, log := fx.run(t, stateDir, filepath.Join(stateDir, "out.jsonl"), "checkpoint.post_sync@2", true); code != crashpoint.ExitCode {
		t.Fatalf("crash run exited %d, want %d\n%s", code, crashpoint.ExitCode, log)
	}
	d, err := OpenDurability(stateDir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d.ck.Seq != at || d.ck.First != 1 || len(d.Warnings()) != 0 {
		t.Fatalf("checkpoint seq %d first %d warnings %v, want seq %d first 1 and no warnings", d.ck.Seq, d.ck.First, d.Warnings(), at)
	}
	rec := Recover(d, evictOpts(man))
	feedFrom(rec.Monitor, frames, rec.Resume)
	got := marshalResults(t, rec.Monitor.Drain())
	if !bytes.Equal(got, golden) {
		t.Fatalf("recovered output diverged from the uninterrupted run:\nrecovered:\n%s\ngolden:\n%s", got, golden)
	}
}

// evictOpts arms a two-flow table and half-second idle eviction over the
// replay configuration.
func evictOpts(man *media.Manifest) Options {
	opts := replayOpts(man, false)
	opts.MaxFlows = 2
	opts.IdleEvictSec = 0.5
	return opts
}

// --- subprocess crash matrix -------------------------------------------

const (
	envCrashHelper = "STREAM_CRASH_HELPER"
	envCrashSpec   = "STREAM_CRASHPOINT"
	envStateDir    = "STREAM_STATE_DIR"
	envManifest    = "STREAM_MANIFEST"
	envFrames      = "STREAM_FRAMES"
	envOut         = "STREAM_OUT"
	envEvict       = "STREAM_EVICT"
)

// TestCrashHelper is the re-exec target of the subprocess crash tests: a
// miniature durable replay daemon (open state dir, recover, feed the
// recording past Resume, drain, write results) checkpointing every 512
// frames over 64 KiB segments. Armed via STREAM_CRASHPOINT it dies with
// crashpoint.ExitCode at the configured boundary; STREAM_EVICT selects
// evictOpts.
func TestCrashHelper(t *testing.T) {
	if os.Getenv(envCrashHelper) == "" {
		t.Skip("crash-matrix helper (driven by TestCrashMatrix)")
	}
	if err := crashpoint.Arm(os.Getenv(envCrashSpec)); err != nil {
		t.Fatal(err)
	}
	man, err := media.LoadManifestFile(os.Getenv(envManifest), "")
	if err != nil {
		t.Fatal(err)
	}
	ff, err := os.Open(os.Getenv(envFrames))
	if err != nil {
		t.Fatal(err)
	}
	frames, err := ReadFrames(ff)
	ff.Close()
	if err != nil {
		t.Fatal(err)
	}
	d, err := OpenDurability(os.Getenv(envStateDir), DurabilityOptions{
		SyncPolicy: SyncInterval, SyncEvery: 64, SegmentBytes: 64 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.every = 512
	opts := replayOpts(man, false)
	if os.Getenv(envEvict) != "" {
		opts = evictOpts(man)
	}
	rec := Recover(d, opts)
	feedFrom(rec.Monitor, frames, rec.Resume)
	results := rec.Monitor.Drain()
	out, err := os.Create(os.Getenv(envOut))
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteResults(out, results); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
}

// crashFixture is a manifest and a frame recording on disk for
// TestCrashHelper.
type crashFixture struct{ manifest, frames string }

func writeCrashFixture(t *testing.T, man *media.Manifest, frames []Frame) crashFixture {
	t.Helper()
	dir := t.TempDir()
	fx := crashFixture{manifest: filepath.Join(dir, "man.json"), frames: filepath.Join(dir, "frames.bin")}
	if err := man.SaveJSON(fx.manifest); err != nil {
		t.Fatal(err)
	}
	ff, err := os.Create(fx.frames)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrames(ff, frames); err != nil {
		t.Fatal(err)
	}
	if err := ff.Close(); err != nil {
		t.Fatal(err)
	}
	return fx
}

// run executes TestCrashHelper against stateDir and returns its exit code
// and combined output.
func (fx crashFixture) run(t *testing.T, stateDir, outPath, spec string, evict bool) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashHelper$", "-test.count=1")
	cmd.Env = append(os.Environ(),
		envCrashHelper+"=1", envCrashSpec+"="+spec,
		envStateDir+"="+stateDir, envManifest+"="+fx.manifest,
		envFrames+"="+fx.frames, envOut+"="+outPath,
	)
	if evict {
		cmd.Env = append(cmd.Env, envEvict+"=1")
	}
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	err := cmd.Run()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running helper: %v", err)
		}
		code = ee.ExitCode()
	}
	return code, buf.String()
}

// TestCrashMatrix is the durability gate in miniature: for every crashpoint
// in the inventory, kill a durable replay at that boundary, recover against
// the same state directory, and require output byte-identical to an
// uninterrupted run over the same frames.
func TestCrashMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns 2 subprocesses per crashpoint")
	}
	man := testManifest(t, session.SH)
	frames := durTestFrames(t, man)
	golden := marshalResults(t, replayThrough(t, frames, replayOpts(man, false)))
	fx := writeCrashFixture(t, man, frames)

	// Mid-stream hits for the per-frame points; first hit for the rest.
	hits := map[string]int{
		"wal.pre_append":  len(frames) / 2,
		"wal.post_append": len(frames) / 2,
	}
	for _, pt := range crashpoint.Points {
		t.Run(pt, func(t *testing.T) {
			stateDir := t.TempDir()
			outPath := filepath.Join(stateDir, "out.jsonl")
			spec := pt
			if n := hits[pt]; n > 1 {
				spec = fmt.Sprintf("%s@%d", pt, n)
			}
			code, log := fx.run(t, stateDir, outPath, spec, false)
			if code != crashpoint.ExitCode {
				t.Fatalf("crash run exited %d, want %d\n%s", code, crashpoint.ExitCode, log)
			}
			code, log = fx.run(t, stateDir, outPath, "", false)
			if code != 0 {
				t.Fatalf("recovery run exited %d\n%s", code, log)
			}
			got, err := os.ReadFile(outPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, golden) {
				t.Fatalf("recovered output diverged from uninterrupted run:\nrecovered:\n%s\ngolden:\n%s", got, golden)
			}
		})
	}
}

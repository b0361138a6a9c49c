package stream

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"csi/internal/capture"
	"csi/internal/core"
	"csi/internal/obs"
	"csi/internal/session"
	"csi/internal/testleak"
)

// The control loop's scheduling — group commit, finals first, solve
// back-pressure — may change when work happens, never what any result
// says.

// waitFor polls cond until it holds, failing the test after a minute.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// flowStatus returns one row of the monitor's flow table.
func flowStatus(mon *Monitor, flow string) (FlowStatus, bool) {
	rows := mon.Status().(map[string]any)["flows"].([]FlowStatus)
	for _, r := range rows {
		if r.Flow == flow {
			return r, true
		}
	}
	return FlowStatus{}, false
}

// TestFinalSolveDispatchedFirst queues provisional solves behind a wedged
// worker, then closes a flow: its final solve must run before the
// provisional solves still queued, not after them.
func TestFinalSolveDispatchedFirst(t *testing.T) {
	testleak.Check(t)
	man := testManifest(t, session.SH)
	tr := testSession(t, man, session.SH, 71, 20)

	gate := make(chan struct{})
	var mu sync.Mutex
	var order []string
	testHookSolve = func(flow string) {
		mu.Lock()
		order = append(order, flow)
		first := len(order) == 1
		mu.Unlock()
		if first {
			<-gate
		}
	}
	defer func() { testHookSolve = nil }()

	opts := replayOpts(man, false)
	opts.Workers = 1
	opts.ResolveEvery = 5
	mon := New(opts)
	const provisional = 6
	for i := 0; i < provisional; i++ {
		for _, v := range tr.Packets[:5] {
			mon.Ingest(Frame{Flow: fmt.Sprintf("p%d", i), Packet: v})
		}
	}
	mon.Ingest(Frame{Flow: "fin", Packet: tr.Packets[0]})
	mon.Ingest(Frame{Flow: "fin", Close: true})
	waitFor(t, "the close to finalize fin", func() bool {
		fs, ok := flowStatus(mon, "fin")
		return ok && fs.Finalizing
	})
	close(gate)
	mon.Drain()

	mu.Lock()
	defer mu.Unlock()
	pos := map[string]int{}
	for i, flow := range order {
		if _, seen := pos[flow]; !seen {
			pos[flow] = i
		}
	}
	// p0 holds the worker and p1 may already sit in the one-slot handoff;
	// every provisional solve behind them must wait for fin's final.
	for i := 2; i < provisional; i++ {
		if p := fmt.Sprintf("p%d", i); pos[p] < pos["fin"] {
			t.Fatalf("provisional solve of %s ran before the final solve of fin: %v", p, order)
		}
	}
}

// closesInARow interleaves n copies of a trace packet by packet and ends
// with all n close markers back to back: a burst of finalizations that
// back-pressure has to absorb.
func closesInARow(tr *capture.Trace, n int) []Frame {
	var frames []Frame
	for _, v := range tr.Packets {
		for i := 0; i < n; i++ {
			frames = append(frames, Frame{Flow: fmt.Sprintf("f%02d", i), Packet: v})
		}
	}
	for i := 0; i < n; i++ {
		frames = append(frames, Frame{Flow: fmt.Sprintf("f%02d", i), Close: true})
	}
	return frames
}

// TestShedBlockBackPressureDrains: with one worker and a dozen closes in a
// row the control loop stops taking frames while finals are pending; the
// replay must still drain without deadlock and match Batch.
func TestShedBlockBackPressureDrains(t *testing.T) {
	testleak.Check(t)
	man := testManifest(t, session.SH)
	frames := closesInARow(testSession(t, man, session.SH, 72, 20), 12)
	opts := replayOpts(man, false)
	opts.Workers = 1
	opts.RingSize = 8
	opts.ResolveEvery = 30

	done := make(chan []Result, 1)
	go func() { done <- replayThrough(t, frames, opts) }()
	var got []Result
	select {
	case got = <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("back-pressured replay did not drain")
	}
	if !bytes.Equal(marshalResults(t, got), marshalResults(t, Batch(frames, replayOpts(man, false)))) {
		t.Fatal("back-pressured replay diverged from batch")
	}
}

// TestShedBlockStopsReadingOnBacklog: once Workers finalized flows await
// their results, a ShedBlock loop takes no more frames, so the ring fills
// and Ingest blocks until a final commits.
func TestShedBlockStopsReadingOnBacklog(t *testing.T) {
	testleak.Check(t)
	man := testManifest(t, session.SH)
	tr := testSession(t, man, session.SH, 74, 20)

	gate := make(chan struct{})
	testHookSolve = func(string) { <-gate }
	defer func() { testHookSolve = nil }()
	reg := obs.New(nil, nil)
	opts := replayOpts(man, false)
	opts.Workers = 1
	opts.RingSize = 8
	opts.Obs = reg
	mon := New(opts)
	frames := reg.Metrics().Counter("stream.frames_total")

	var accepted atomic.Int64
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		feed := append([]Frame{{Flow: "c", Packet: tr.Packets[0]}, {Flow: "c", Close: true}}, closesInARow(tr, 1)...)
		for _, f := range feed {
			mon.Ingest(f)
			accepted.Add(1)
		}
	}()
	// c's close leaves one final pending on the wedged worker: the loop
	// finishes the batch holding it, then takes no more frames, so the ring
	// fills and Ingest blocks.
	ring := int64(opts.RingSize)
	waitFor(t, "the ring to fill", func() bool { return accepted.Load()-frames.Value() >= ring })
	time.Sleep(50 * time.Millisecond) // let the batch in hand finish applying
	applied, taken := frames.Value(), accepted.Load()
	time.Sleep(50 * time.Millisecond)
	if frames.Value() != applied || accepted.Load() != taken {
		t.Fatalf("frames kept flowing behind a pending final: applied %d -> %d, accepted %d -> %d",
			applied, frames.Value(), taken, accepted.Load())
	}
	select {
	case <-fed:
		t.Fatalf("the whole feed went through behind a pending final (%d frames applied)", applied)
	default:
	}
	close(gate)
	<-fed
	if results := mon.Drain(); len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
}

// TestShedDropNeverBlocksOnSolveBacklog: under ShedDrop the control loop
// keeps taking frames while finals pile up behind a wedged worker, and a
// wedged control loop sheds the newest frames instead of blocking Ingest.
func TestShedDropNeverBlocksOnSolveBacklog(t *testing.T) {
	testleak.Check(t)
	man := testManifest(t, session.SH)
	tr := testSession(t, man, session.SH, 73, 20)

	solveGate := make(chan struct{})
	testHookSolve = func(string) { <-solveGate }
	defer func() { testHookSolve = nil }()
	resultGate, committed := make(chan struct{}), make(chan struct{}, 1)

	reg := obs.New(nil, nil)
	opts := Options{
		Manifest:   man,
		Params:     core.Params{MediaHost: "media.example.com", Degrade: true},
		ShedPolicy: ShedDrop,
		RingSize:   8,
		Workers:    1,
		Obs:        reg,
		OnResult: func(Result) {
			select {
			case committed <- struct{}{}:
				<-resultGate // wedge the control loop on the first commit
			default:
			}
		},
	}
	mon := New(opts)
	frames := reg.Metrics().Counter("stream.frames_total")

	// Three closed flows behind one wedged worker: the backlog that stops
	// a ShedBlock loop. Under ShedDrop every accepted frame still applies.
	accepted := 0
	for i := 0; i < 3; i++ {
		for _, f := range []Frame{{Flow: fmt.Sprintf("c%d", i), Packet: tr.Packets[0]}, {Flow: fmt.Sprintf("c%d", i), Close: true}} {
			for !mon.Ingest(f) {
				time.Sleep(time.Millisecond)
			}
			accepted++
		}
	}
	for _, v := range tr.Packets {
		if mon.Ingest(Frame{Flow: "x", Packet: v}) {
			accepted++
		}
	}
	waitFor(t, "every accepted frame to apply", func() bool { return frames.Value() == int64(accepted) })

	// Release the solves; the first commit wedges the control loop, so
	// the ring fills and the newest frames shed without blocking.
	close(solveGate)
	<-committed
	shed := reg.Metrics().Counter("stream.shed_total")
	before := shed.Value()
	for i := 0; i < opts.RingSize+5; i++ {
		mon.Ingest(Frame{Flow: "y", Packet: tr.Packets[i]})
	}
	if got := shed.Value() - before; got != 5 {
		t.Fatalf("wedged loop shed %d frames of %d offered to an %d-frame ring, want 5", got, opts.RingSize+5, opts.RingSize)
	}
	close(resultGate)
	if results := mon.Drain(); len(results) != 5 {
		t.Fatalf("got %d results, want 5 (c0-c2, x, y)", len(results))
	}
}

// TestReplayMatchesBatchAcrossRingsAndWorkers holds replay == batch over
// ring depths from unbatched (1) to the old default (4096), with one and
// two workers, durable and not. The durable runs never close a flow, so
// every checkpoint lands exactly every 512 frames, and the WAL fsyncs must
// be exactly what per-frame appends issue: group commit splits its writes
// at every fsync point.
func TestReplayMatchesBatchAcrossRingsAndWorkers(t *testing.T) {
	testleak.Check(t)
	man := testManifest(t, session.SH)
	all := durTestFrames(t, man)
	var frames []Frame
	for _, f := range all {
		if !f.Close {
			frames = append(frames, f)
		}
	}
	want := marshalResults(t, Batch(frames, replayOpts(man, false)))

	const syncEvery, every = 64, 512
	wantFsyncs, unsynced := int64(1), 0 // the drain's final checkpoint
	for seq := 1; seq <= len(frames); seq++ {
		if unsynced++; unsynced >= syncEvery {
			wantFsyncs, unsynced = wantFsyncs+1, 0
		}
		if seq%every == 0 {
			wantFsyncs, unsynced = wantFsyncs+1, 0
		}
	}

	for _, ring := range []int{1, 8, 256, 4096} {
		for _, workers := range []int{1, 2} {
			for _, durable := range []bool{false, true} {
				t.Run(fmt.Sprintf("ring%d/workers%d/durable=%v", ring, workers, durable), func(t *testing.T) {
					opts := replayOpts(man, false)
					opts.RingSize, opts.Workers, opts.ResolveEvery = ring, workers, 40
					reg := obs.New(nil, nil)
					var mon *Monitor
					if durable {
						d, err := OpenDurability(t.TempDir(), DurabilityOptions{SyncPolicy: SyncInterval, SyncEvery: syncEvery, Obs: reg})
						if err != nil {
							t.Fatal(err)
						}
						d.every = every
						mon = Recover(d, opts).Monitor
					} else {
						mon = New(opts)
					}
					feedFrom(mon, frames, 0)
					if got := marshalResults(t, mon.Drain()); !bytes.Equal(got, want) {
						t.Fatalf("replay diverged from batch:\nreplay:\n%s\nbatch:\n%s", got, want)
					}
					if !durable {
						return
					}
					m := reg.Metrics()
					if got := m.Counter("stream.wal_appends").Value(); got != int64(len(frames)) {
						t.Fatalf("stream.wal_appends = %d, want %d", got, len(frames))
					}
					if got := m.Counter("stream.wal_fsyncs").Value(); got != wantFsyncs {
						t.Fatalf("stream.wal_fsyncs = %d, want %d (per-frame appends)", got, wantFsyncs)
					}
					if got, want := m.Counter("stream.checkpoints_total").Value(), int64(len(frames)/every+1); got != want {
						t.Fatalf("stream.checkpoints_total = %d, want %d", got, want)
					}
				})
			}
		}
	}
}

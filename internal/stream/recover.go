package stream

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"csi/internal/core"
	"csi/internal/obs"
	"csi/internal/stream/crashpoint"
)

// crashpointHere marks a durability boundary for the crash-injection
// harness; disarmed it is one atomic load.
func crashpointHere(name string) { crashpoint.Here(name) }

// checkpointEvery is the checkpoint cadence: a checkpoint lands at the
// first quiescent point after this many WAL'd frames.
const checkpointEvery = 4096

// DurabilityOptions configures a state directory (csi-monitord -state-dir).
type DurabilityOptions struct {
	// SyncPolicy is SyncAlways, SyncInterval (default) or SyncNever.
	SyncPolicy string
	// SyncEvery is the fsync cadence in frames under SyncInterval
	// (default 256).
	SyncEvery int
	// SegmentBytes rotates WAL and commit-log segments at this size
	// (default 8 MiB).
	SegmentBytes int64
	// Obs receives the durability counters and gauges (stream.wal_*,
	// stream.checkpoint*, stream.recoveries_total); nil disables.
	Obs *obs.Tracer
}

func (o DurabilityOptions) withDefaults() DurabilityOptions {
	if o.SyncPolicy == "" {
		o.SyncPolicy = SyncInterval
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = defaultSyncEvery
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = defaultSegmentBytes
	}
	return o
}

// A checkpoint is one commit-log record (DESIGN.md §13), taken at a
// quiescent point — no flow finalizing, no commit slot outstanding — so the
// finalization sequence, the commit cursor and the closed set all follow
// from the committed results. It stores no packet: the flows live at Seq
// are rebuilt by re-tapping their WAL frames from First on, and each result
// is stored once, in the checkpoint that first covers it.
type checkpoint struct {
	Seq   uint64  `json:"seq"`   // last applied frame sequence
	First uint64  `json:"first"` // redo point: oldest live flow's first frame, Seq+1 when none is live
	VNow  float64 `json:"vnow"`  // virtual clock (max packet timestamp)
	// Results are those committed since the previous checkpoint. Recovery
	// concatenates them over the whole log.
	Results []Result `json:"results,omitempty"`
}

// recovery is what Recover hands New: the last checkpoint, carrying every
// committed result, and the WAL frames First..Seq it re-taps.
type recovery struct {
	ck     checkpoint
	frames []Frame
}

// Durability is a monitor's crash-safety layer over one state directory:
// the frame WAL plus a commit log of checkpoints (DESIGN.md §13).
// OpenDurability recovers whatever a previous process left behind; Recover
// seeds a monitor from it; the monitor then calls appendFrame before
// applying each new frame and writeCheckpoint at quiescent points.
//
// All append/checkpoint methods run on the monitor's control goroutine;
// Status is safe from any goroutine (the live /statusz plane).
type Durability struct {
	dir   string
	opts  DurabilityOptions
	w     *wal // frame WAL
	log   *wal // commit log: one record per checkpoint
	every int  // checkpoint cadence in frames (checkpointEvery)

	// Recovered state, consumed by Recover.
	ck        checkpoint  // last checkpoint, Results holding every restored result
	redo      []walRecord // WAL records from ck.First on
	baseSeq   uint64      // frames durable at open: max(checkpoint seq, WAL last seq)
	restored  int         // results carried in the commit log
	recovered bool        // open found prior durable state to recover
	warns     []core.Warning

	// mu guards the fields below (written by the control goroutine, read
	// by Status from the live plane).
	mu           sync.Mutex
	sinceSync    int // frames appended since the last fsync
	sinceCkpt    int // frames appended since the last checkpoint
	lastCkptSeq  uint64
	retainedFrom uint64 // redo point of the last checkpoint: the WAL is kept from here
	walBytes     int64
	failed       bool
	lastErr      string

	cWALBytes    *obs.Counter
	cWALAppends  *obs.Counter
	cWALFsyncs   *obs.Counter
	cWALErrors   *obs.Counter
	cCheckpoints *obs.Counter
	cRecoveries  *obs.Counter
	gCkptAge     *obs.Gauge
	gWALLag      *obs.Gauge
}

// OpenDurability opens (creating if needed) a state directory and recovers
// its contents: the last checkpoint that verifies, the WAL records from its
// redo point on, and structured warnings for any damage survived along the
// way. This is the durability layer's only directory enumeration; wal.go
// operates on the paths discovered here.
func OpenDurability(dir string, o DurabilityOptions) (*Durability, error) {
	o = o.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("stream: creating state dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("stream: listing state dir: %w", err)
	}
	var segPaths, logPaths []string
	for _, e := range entries {
		switch name := e.Name(); {
		case isSegName(walSegPrefix, name):
			segPaths = append(segPaths, filepath.Join(dir, name))
		case isSegName(logSegPrefix, name):
			logPaths = append(logPaths, filepath.Join(dir, name))
		}
	}
	sort.Strings(segPaths) // zero-padded seq: lexical == numeric
	sort.Strings(logPaths)

	reg := o.Obs.Metrics()
	d := &Durability{
		dir: dir, opts: o, every: checkpointEvery,
		cWALBytes:    reg.Counter("stream.wal_bytes"),
		cWALAppends:  reg.Counter("stream.wal_appends"),
		cWALFsyncs:   reg.Counter("stream.wal_fsyncs"),
		cWALErrors:   reg.Counter("stream.wal_errors"),
		cCheckpoints: reg.Counter("stream.checkpoints_total"),
		cRecoveries:  reg.Counter("stream.recoveries_total"),
		gCkptAge:     reg.Gauge("stream.checkpoint_age_frames"),
		gWALLag:      reg.Gauge("stream.wal_lag_frames"),
	}

	// The commit log: a torn or corrupt tail falls back to the last
	// checkpoint before the damage (salvage has already cut the rest).
	log, logRecs, torn, corrupt, err := openWAL(dir, logSegPrefix, logPaths, o.SegmentBytes)
	if err != nil {
		return nil, err
	}
	d.log = log
	d.warns = append(d.warns, salvageWarnings("checkpoint", torn, corrupt)...)
	ck := checkpoint{First: 1}
	checkpoints := 0
	for _, rec := range logRecs {
		var next checkpoint
		if err := json.Unmarshal(rec.payload, &next); err != nil {
			// CRC-clean but unparseable: corruption the checksum cannot
			// see. The checkpoints before it stand; the log behind it no
			// longer matches what replays, so degrade to non-durable.
			d.warns = append(d.warns, core.Warning{Code: "checkpoint_corrupt",
				Detail: fmt.Sprintf("checkpoint %d undecodable (%v); recovering from the one before", rec.seq, err)})
			d.fail(fmt.Errorf("stream: checkpoint %d undecodable", rec.seq))
			break
		}
		ck.Seq, ck.First, ck.VNow = next.Seq, next.First, next.VNow
		ck.Results = append(ck.Results, next.Results...)
		checkpoints++
	}

	w, recs, torn, corrupt, err := openWAL(dir, walSegPrefix, segPaths, o.SegmentBytes)
	if err != nil {
		return nil, err
	}
	d.w = w
	d.warns = append(d.warns, salvageWarnings("wal", torn, corrupt)...)

	// Redo starts at the checkpoint's redo point: records before it belong
	// to flows the checkpoint committed. From there the WAL must run without
	// a gap through the checkpoint (the live flows' frames) into the tail.
	redo := recs
	for len(redo) > 0 && redo[0].seq < ck.First {
		redo = redo[1:]
	}
	if (len(redo) > 0 && redo[0].seq != ck.First) || (ck.First <= ck.Seq && w.lastSeq < ck.Seq) {
		if checkpoints == 0 {
			// Nothing anchors a WAL that starts past frame 1: the prefix is
			// unrecoverable and silently wrong output is worse than
			// refusing.
			return nil, fmt.Errorf("stream: wal starts at seq %d with no usable checkpoint covering the prefix", redo[0].seq)
		}
		// Cannot arise from a crash, only from external damage: the
		// checkpoint's results are authoritative, the flows it left live
		// are lost with the WAL.
		d.warns = append(d.warns, core.Warning{Code: "wal_gap",
			Detail: fmt.Sprintf("checkpoint at seq %d redoes from seq %d but the wal does not cover it; dropping %d unanchored records", ck.Seq, ck.First, len(recs))})
		if err := w.truncateThrough(w.lastSeq); err != nil {
			return nil, err
		}
		redo = nil
		ck.First = ck.Seq + 1
	}
	// Finish a garbage collection a crash interrupted.
	if err := w.truncateThrough(ck.First - 1); err != nil {
		return nil, err
	}

	d.ck = ck
	d.redo = redo
	d.restored = len(ck.Results)
	d.baseSeq = ck.Seq
	if n := len(redo); n > 0 && redo[n-1].seq > d.baseSeq {
		d.baseSeq = redo[n-1].seq
	}
	d.lastCkptSeq = ck.Seq
	d.retainedFrom = ck.First
	d.walBytes = w.totalBytes()
	d.sinceCkpt = int(d.baseSeq - ck.Seq)
	if len(logRecs) > 0 || len(recs) > 0 || len(d.warns) > 0 {
		d.recovered = true
		d.cRecoveries.Inc()
	}
	d.cWALBytes.Add(d.walBytes)
	d.gCkptAge.Set(float64(d.sinceCkpt))
	d.gWALLag.Set(0)
	return d, nil
}

// salvageWarnings renders openWAL's damage report for one log ("wal" or
// "checkpoint") as structured warnings.
func salvageWarnings(log string, torn bool, corrupt *WALCorruptError) []core.Warning {
	switch {
	case corrupt != nil:
		return []core.Warning{{Code: log + "_corrupt", Detail: corrupt.Error()}}
	case torn:
		return []core.Warning{{Code: log + "_truncated_tail",
			Detail: "incomplete record at the " + log + " log tail dropped (crash mid-append); the valid prefix recovers"}}
	}
	return nil
}

// RestoredResults reports how many committed results the commit log
// carries — the daemon uses it to suppress re-emission of results already
// written before the crash.
func (d *Durability) RestoredResults() int { return d.restored }

// Warnings reports the damage survived during recovery (torn or corrupt
// commit-log and WAL tails salvaged, an unanchored WAL dropped).
func (d *Durability) Warnings() []core.Warning { return d.warns }

// fail degrades the layer to non-durable: the monitor keeps running (losing
// ingest over a full disk would turn a durability feature into an outage)
// but the condition is counted, surfaced on /statusz, and recovery from
// this directory is no longer promised.
func (d *Durability) fail(err error) {
	d.cWALErrors.Inc()
	d.mu.Lock()
	d.failed = true
	d.lastErr = err.Error()
	d.mu.Unlock()
}

func (d *Durability) isFailed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.failed
}

// appendFrame logs one accepted frame before the monitor applies it.
// Called by handleFrame on the control goroutine for every frame past
// baseSeq.
func (d *Durability) appendFrame(seq uint64, f *Frame) {
	if d.isFailed() {
		return
	}
	crashpointHere("wal.pre_append")
	payload, err := json.Marshal(f)
	if err != nil {
		d.fail(fmt.Errorf("stream: encoding wal frame: %w", err))
		return
	}
	n, err := d.w.append(seq, payload)
	if err != nil {
		d.fail(err)
		return
	}
	d.cWALBytes.Add(int64(n))
	d.cWALAppends.Inc()
	sync := d.opts.SyncPolicy == SyncAlways
	d.mu.Lock()
	d.walBytes += int64(n)
	d.sinceSync++
	d.sinceCkpt++
	if d.opts.SyncPolicy == SyncInterval && d.sinceSync >= d.opts.SyncEvery {
		sync = true
	}
	d.mu.Unlock()
	if sync {
		if err := d.w.sync(); err != nil {
			d.fail(err)
			return
		}
		d.cWALFsyncs.Inc()
		d.mu.Lock()
		d.sinceSync = 0
		d.mu.Unlock()
	}
	d.mu.Lock()
	d.gWALLag.Set(float64(d.sinceSync))
	d.gCkptAge.Set(float64(d.sinceCkpt))
	d.mu.Unlock()
	crashpointHere("wal.post_append")
}

// checkpointDue reports whether enough frames accumulated since the last
// checkpoint; the monitor then checkpoints at its next quiescent point.
func (d *Durability) checkpointDue() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return !d.failed && d.sinceCkpt >= d.every
}

// writeCheckpoint makes a checkpoint durable, then garbage-collects the WAL
// segments wholly before its redo point. The frame WAL is synced first: a
// checkpoint must never be durable ahead of the frames recovery re-taps
// from it. Control goroutine only.
func (d *Durability) writeCheckpoint(ck checkpoint) {
	if d.isFailed() {
		return
	}
	payload, err := json.Marshal(ck)
	if err != nil {
		d.fail(fmt.Errorf("stream: encoding checkpoint: %w", err))
		return
	}
	if err := d.w.sync(); err != nil {
		d.fail(err)
		return
	}
	d.cWALFsyncs.Inc()
	crashpointHere("checkpoint.pre_append")
	if _, err := d.log.append(d.log.lastSeq+1, payload); err != nil {
		d.fail(err)
		return
	}
	crashpointHere("checkpoint.post_append")
	if err := d.log.sync(); err != nil {
		d.fail(err)
		return
	}
	crashpointHere("checkpoint.post_sync")
	if err := d.w.truncateThrough(ck.First - 1); err != nil {
		d.fail(err)
		return
	}
	d.cCheckpoints.Inc()
	d.mu.Lock()
	d.lastCkptSeq = ck.Seq
	d.retainedFrom = ck.First
	d.sinceCkpt = 0
	d.sinceSync = 0
	d.walBytes = d.w.totalBytes()
	d.gCkptAge.Set(0)
	d.gWALLag.Set(0)
	d.mu.Unlock()
}

// close seals both logs (final fsync). Control goroutine only; idempotent.
func (d *Durability) close() {
	if err := d.w.close(); err != nil {
		d.fail(err)
	}
	if err := d.log.close(); err != nil {
		d.fail(err)
	}
}

// DurabilityStatus is the /statusz durability section.
type DurabilityStatus struct {
	Dir                 string `json:"dir"`
	SyncPolicy          string `json:"sync_policy"`
	SyncEvery           int    `json:"sync_every,omitempty"`
	WALBytes            int64  `json:"wal_bytes"`
	WALLagFrames        int    `json:"wal_lag_frames"`
	CheckpointAgeFrames int    `json:"checkpoint_age_frames"`
	LastCheckpointSeq   uint64 `json:"last_checkpoint_seq"`
	// WALRetainedFromSeq is the last checkpoint's redo point, the oldest
	// live flow's first frame: the WAL cannot be collected past it.
	WALRetainedFromSeq uint64 `json:"wal_retained_from_seq"`
	// Recoveries counts this process's recoveries from prior durable
	// state: 0 on a fresh start, 1 when the open salvaged anything (the
	// lifetime total across restarts is stream.recoveries_total scraped
	// externally).
	Recoveries       int    `json:"recoveries"`
	RestoredResults  int    `json:"restored_results,omitempty"`
	RecoveryWarnings int    `json:"recovery_warnings,omitempty"`
	Failed           bool   `json:"failed,omitempty"`
	LastError        string `json:"last_error,omitempty"`
}

// Status snapshots the durability state for the live /statusz page. Safe
// from any goroutine; reads no wall clock (ages are frame-based).
func (d *Durability) Status() any {
	d.mu.Lock()
	defer d.mu.Unlock()
	recoveries := 0
	if d.recovered {
		recoveries = 1
	}
	return DurabilityStatus{
		Dir:                 d.dir,
		SyncPolicy:          d.opts.SyncPolicy,
		SyncEvery:           d.opts.SyncEvery,
		WALBytes:            d.walBytes,
		WALLagFrames:        d.sinceSync,
		CheckpointAgeFrames: d.sinceCkpt,
		LastCheckpointSeq:   d.lastCkptSeq,
		WALRetainedFromSeq:  d.retainedFrom,
		Recoveries:          recoveries,
		RestoredResults:     d.restored,
		RecoveryWarnings:    len(d.warns),
		Failed:              d.failed,
		LastError:           d.lastErr,
	}
}

// Recovered is the outcome of seeding a monitor from a state directory.
type Recovered struct {
	// Monitor is live and has already re-applied the WAL tail.
	Monitor *Monitor
	// Resume is the number of input frames the durable state already
	// covers: a replay feed skips this many frames and continues.
	Resume uint64
	// Replayed is how many WAL tail frames were re-applied past the
	// checkpoint.
	Replayed int
	// RestoredResults is how many committed results the commit log
	// carried.
	RestoredResults int
	// Warnings is the damage survived during recovery.
	Warnings []core.Warning
}

// Recover starts a monitor seeded from the state directory: the checkpoint
// restores the committed results, the WAL frames from its redo point
// through its seq rebuild the flows it left live, then the WAL tail frames
// are re-applied through the normal ingest path (blocking — recovery never
// sheds). New frames append to the WAL as usual; tail frames do not (they
// are already in it).
func Recover(d *Durability, opts Options) *Recovered {
	// Decode before the monitor starts, so baseSeq is final before any
	// goroutine reads it.
	r := &recovery{ck: d.ck}
	var tail []Frame
	for _, rec := range d.redo {
		var f Frame
		if err := json.Unmarshal(rec.payload, &f); err != nil {
			// CRC-clean but unparseable: corruption the checksum cannot
			// see. Salvage stops here; the records behind it are
			// unanchored, and the on-disk log is no longer consistent
			// with what replays — degrade to non-durable.
			d.warns = append(d.warns, core.Warning{Code: "wal_corrupt",
				Detail: fmt.Sprintf("wal record seq %d undecodable (%v); dropping the rest of the wal", rec.seq, err)})
			d.baseSeq = max(rec.seq-1, d.ck.Seq)
			d.fail(fmt.Errorf("stream: wal record seq %d undecodable", rec.seq))
			break
		}
		if rec.seq <= d.ck.Seq {
			r.frames = append(r.frames, f)
		} else {
			tail = append(tail, f)
		}
	}
	d.redo = nil
	d.ck.Results = nil
	opts.Durable = d
	opts.restore = r
	m := New(opts)
	for _, f := range tail {
		m.ring <- f // pre-drain, control loop live: always delivered
	}
	return &Recovered{
		Monitor:         m,
		Resume:          d.baseSeq,
		Replayed:        len(tail),
		RestoredResults: d.restored,
		Warnings:        d.warns,
	}
}

// quiescentLocked reports whether the monitor is at a checkpoint-safe
// point: every finalization decision ever taken has already committed, so
// the entire finalization state is the results slice. Caller holds m.mu.
func (m *Monitor) quiescentLocked() bool {
	if len(m.uncommitted) > 0 || m.finalSeq != m.commitNext {
		return false
	}
	for _, fs := range m.flows {
		if fs.finalizing {
			return false
		}
	}
	return true
}

// checkpointLocked captures a checkpoint and marks its results as
// checkpointed. Caller holds m.mu and has verified quiescence; the results
// alias m.results, which only ever grows past them.
func (m *Monitor) checkpointLocked() checkpoint {
	ck := checkpoint{Seq: m.seq, First: m.seq + 1, VNow: m.vnow, Results: m.results[m.checkpointed:]}
	for _, fs := range m.flows {
		ck.First = min(ck.First, fs.firstSeq)
	}
	m.checkpointed = len(m.results)
	return ck
}

// restore seeds a just-constructed monitor (goroutines not yet started, so
// no locking) from a checkpoint. Re-tapping the WAL frames of the flows it
// left live rebuilds the identical capture.Trace an uninterrupted run held,
// and the derived counters (packets, bytes, lastTime, lastSeq) recompute to
// the values handleFrame accumulated originally. Frames of committed flows
// are skipped, and re-tapping takes no eviction or finalization decision.
func (m *Monitor) restore(r *recovery) {
	m.seq = r.ck.Seq
	m.vnow = r.ck.VNow
	m.results = append(m.results, r.ck.Results...)
	m.finalSeq = uint64(len(m.results))
	m.commitNext = m.finalSeq
	m.checkpointed = len(m.results)
	for _, res := range m.results {
		m.closed[res.Flow] = true
	}
	var buffered int64
	for i, f := range r.frames {
		if f.Close || m.closed[f.Flow] {
			continue
		}
		seq := r.ck.First + uint64(i)
		fs := m.flows[f.Flow]
		if fs == nil {
			fs = newFlow(f.Flow, seq)
			m.flows[f.Flow] = fs
			m.liveFlows++
		}
		v := f.Packet
		fs.lastSeq = seq
		fs.tap(v, v.Time)
		fs.packets++
		fs.bytes += frameBytes(&v)
		buffered += frameBytes(&v)
		if v.Time > fs.lastTime {
			fs.lastTime = v.Time
		}
	}
	m.gActive.Set(float64(m.liveFlows))
	m.gBuffer.Set(float64(buffered))
}

// maybeCheckpoint runs on the control loop after each event: when the
// durability layer is due and the monitor is quiescent, capture and persist
// a checkpoint. Never during drain — the final checkpoint owns that.
// Checkpoint *timing* is allowed to vary run to run (it depends on solve
// scheduling only through quiescence); the replayed output is a function
// of the frame sequence alone, so recovery from any checkpoint converges to
// identical bytes.
func (m *Monitor) maybeCheckpoint() {
	d := m.opts.Durable
	if d == nil || !d.checkpointDue() {
		return
	}
	m.mu.Lock()
	if m.draining || !m.quiescentLocked() {
		m.mu.Unlock()
		return
	}
	ck := m.checkpointLocked()
	m.mu.Unlock()
	d.writeCheckpoint(ck)
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"csi/internal/core"
	"csi/internal/obs"
	"csi/internal/obs/live"
	"csi/internal/session"
	"csi/internal/stream"
)

// replayConfig sizes a replay workload.
type replayConfig struct {
	design       session.Design
	flows        int
	flowSec      [2]float64 // flow lengths are drawn from this range
	arrivalSec   float64    // flow starts are spread over [0, arrivalSec)
	assetSec     float64
	rungs        []int // video ladder rungs (DefaultLadder indexes); nil = all six
	resolveEvery int
	cacheMB      int64
	durable      bool
	setupReps    int
	minReps      int
}

func sqScale(sc scale) replayConfig {
	c := replayConfig{
		design: session.SQ, flows: 80, flowSec: [2]float64{6, 14}, arrivalSec: 160, assetSec: 300,
		rungs: []int{0, 2, 4}, resolveEvery: 250, cacheMB: 64, setupReps: 3, minReps: 3,
	}
	if sc == tiny {
		c.flows, c.flowSec, c.assetSec, c.setupReps, c.minReps = 2, [2]float64{15, 25}, 120, 1, 1
	}
	return c
}

func shDurableScale(sc scale) replayConfig {
	c := replayConfig{
		design: session.SH, flows: 48, flowSec: [2]float64{4, 12}, arrivalSec: 120, assetSec: 300,
		cacheMB: 64, durable: true, setupReps: 3, minReps: 3,
	}
	if sc == tiny {
		c.flows, c.flowSec, c.assetSec, c.setupReps, c.minReps = 3, [2]float64{10, 30}, 120, 1, 1
	}
	return c
}

func runReplaySQ(env *runEnv) (*outcome, error) { return runReplay(env, sqScale(env.scale)) }

func runReplaySHDurable(env *runEnv) (*outcome, error) {
	return runReplay(env, shDurableScale(env.scale))
}

func replayInputs(env *runEnv, c replayConfig, setupDir string) (*inputs, error) {
	specs := flowSpecs(env.seed, c.flows, c.flowSec[0], c.flowSec[1], c.arrivalSec)
	return generate(c.design, c.assetSec, c.rungs, specs, true, setupDir)
}

// monitorOptions is csi-monitord's replay configuration for a workload.
func monitorOptions(in *inputs, c replayConfig, tracer *obs.Tracer, hc *core.HalfCache) stream.Options {
	return stream.Options{
		Manifest:     in.man,
		Params:       core.Params{MediaHost: in.man.Host, Mux: c.design == session.SQ, Degrade: true, HalfCache: hc},
		ShedPolicy:   stream.ShedBlock,
		ResolveEvery: c.resolveEvery,
		Workers:      solverWorkers(),
		Obs:          tracer,
	}
}

// rep is one measured replay.
type rep struct {
	traced bool
	wall   time.Duration // first Ingest to Drain returning
	frames int
	lags   []float64 // per flow, ms
	lines  [][]byte  // result lines in commit order

	// Traced replays only.
	decode, ingest, drain time.Duration
	stages                map[string][2]float64 // stage -> (seconds, entries), from /metrics
	statePeak, snapBytes  int64

	counters map[string]float64 // stream.* and core.halfcache.*, from the registries
	// Durable replays.
	stateFinal        int64
	restart, recover  time.Duration
	restored          int
	restartLines      [][]byte
	restartSolves     float64
	restartReplayed   int
	restartWarnings   int
	restartLinesError error
}

// runReplay measures replays of one packed frame stream through a
// stream.Monitor configured like csi-monitord -replay: decode the JSONL,
// Ingest every frame under ShedBlock, Drain. A traced run alternates
// untraced and traced replays.
func runReplay(env *runEnv, c replayConfig) (*outcome, error) {
	setupDir := ""
	if c.durable {
		setupDir = stateDirFor(env.workDir, "setup", 0)
	}
	in, err := setupMedian(c.setupReps, func() (*inputs, error) { return replayInputs(env, c, setupDir) })
	if err != nil {
		return nil, err
	}
	// The correctness reference: the offline batch pipeline over the same
	// frames, untimed, with a HalfCache of its own (a warm cache never
	// changes a result) so that no replay inherits its entries.
	want, ref, err := batchDigests(in.frames, monitorOptions(in, c, nil, core.NewHalfCache(c.cacheMB<<20)))
	if err != nil {
		return nil, err
	}
	if env.ref != nil {
		ref = env.ref
	}
	// Only the encoded stream and the manifest are needed from here on.
	flows := len(in.runs)
	in.frames, in.runs = nil, nil
	chk := &checker{ref: ref}
	out := &outcome{correct: true}
	var reps []*rep
	var ms0, ms1 runtime.MemStats
	rss := startRSS()
	runtime.ReadMemStats(&ms0)
	deadline := time.Now().Add(time.Duration(env.seconds * float64(time.Second)))
	for i := 0; ; i++ {
		if i >= c.minReps && !time.Now().Before(deadline) && (!env.traced || i%2 == 0) {
			break
		}
		traced := env.traced && i%2 == 1
		dir := ""
		if c.durable {
			dir = stateDirFor(env.workDir, "replay", i)
		}
		r, err := replayOnce(env, in, c, traced, dir)
		if err != nil {
			return nil, err
		}
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
		checkRep(env, chk, out, r, want, len(reps), c.durable)
		reps = append(reps, r)
	}
	runtime.ReadMemStats(&ms1)
	peakRSS := rss.peak()
	out.attempted, out.failed, out.problems = chk.attempted, chk.failed, append(out.problems, chk.problems...)
	out.ops = len(reps)
	summarise(out, in, flows, c.durable, reps, peakRSS)
	if out.layers != nil {
		out.layers["go.gc_cycles"] = float64(ms1.NumGC-ms0.NumGC) / float64(len(reps))
		out.layers["go.alloc_bytes_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(len(reps))
	}
	return out, nil
}

// checkRep runs the output checks on one replay: each flow's result line
// must be byte-identical to the batch reference and match the recorded
// digest; on a durable replay the clean restart must restore it too.
func checkRep(env *runEnv, chk *checker, out *outcome, r *rep, want [][]byte, repIndex int, durable bool) {
	if env.corrupt != nil && len(r.lines) > 0 {
		// Tests corrupt the first flow's result of a replay.
		var res stream.Result
		if err := json.Unmarshal(r.lines[0], &res); err == nil {
			env.corrupt(repIndex, &res)
			if line, err := resultLine(res); err == nil {
				r.lines[0] = line
			}
		}
	}
	same := compareLines(r.lines, want)
	var restartSame []bool
	if durable {
		restartSame = compareLines(r.restartLines, want)
	}
	for i := range want {
		var err error
		switch {
		case !same[i]:
			err = errors.New("result line differs from stream.Batch over the same frames")
		case durable && !restartSame[i]:
			err = errors.New("clean restart did not restore the result")
		}
		got := ""
		if i < len(r.lines) {
			got = digest(r.lines[i])
		}
		chk.op(i, got, err)
	}
	if extra := len(r.lines) - len(want); extra > 0 {
		chk.fail(fmt.Sprintf("monitor emitted %d results beyond the batch reference", extra))
		out.correct = false
	}
	if r.counters["stream.shed_total"] != 0 {
		out.correct = false
		out.problems = append(out.problems, "frames shed under ShedBlock")
	}
	if durable {
		if r.restored != len(want) || r.restartReplayed != 0 || r.restartSolves != 0 || r.restartWarnings != 0 {
			out.correct = false
			out.problems = append(out.problems, fmt.Sprintf(
				"clean restart: %d of %d results restored, %d frames replayed, %.0f solves, %d warnings",
				r.restored, len(want), r.restartReplayed, r.restartSolves, r.restartWarnings))
		}
		if r.restartLinesError != nil {
			out.correct = false
			out.problems = append(out.problems, r.restartLinesError.Error())
		}
	}
}

// replayOnce runs one replay and, for a durable one, the clean restart
// after it.
func replayOnce(env *runEnv, in *inputs, c replayConfig, traced bool, dir string) (*rep, error) {
	tracer := obs.New(nil, nil)
	hc := core.NewHalfCache(c.cacheMB << 20)
	opts := monitorOptions(in, c, tracer, hc)
	var mu sync.Mutex
	delivered := map[string]time.Time{}
	opts.OnResult = func(r stream.Result) {
		t := time.Now()
		mu.Lock()
		delivered[r.Flow] = t
		mu.Unlock()
	}
	r := &rep{traced: traced}
	var srv *live.Server
	if traced {
		var err error
		if srv, err = startLive(hc.Registry()); err != nil {
			return nil, err
		}
		defer stopLive(srv)
		opts.Live = srv
	}
	var mon *stream.Monitor
	if c.durable {
		d, err := stream.OpenDurability(dir, stream.DurabilityOptions{Obs: tracer})
		if err != nil {
			return nil, err
		}
		mon = stream.Recover(d, opts).Monitor
	} else {
		mon = stream.New(opts)
	}

	closedAt := map[string]time.Time{}
	snaps := map[string]int64{}
	fr := stream.NewFrameReader(bytes.NewReader(in.encoded))
	var readErr error
	start := time.Now()
	for {
		var t0 time.Time
		if traced {
			t0 = time.Now()
		}
		f, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			readErr = err
			break
		}
		var t1 time.Time
		if traced {
			t1 = time.Now()
			r.decode += t1.Sub(t0)
		}
		accepted := mon.Ingest(f)
		if traced || f.Close {
			t2 := time.Now()
			if traced {
				r.ingest += t2.Sub(t1)
			}
			if f.Close {
				closedAt[f.Flow] = t2
			}
		}
		if !accepted {
			readErr = fmt.Errorf("monitor refused frame %d", r.frames)
			break
		}
		r.frames++
		if traced && c.durable && r.frames%1024 == 0 {
			s := sampleDir(dir)
			r.statePeak = max(r.statePeak, s.bytes)
			for name, size := range s.snaps {
				snaps[name] = max(snaps[name], size)
			}
		}
	}
	t3 := time.Now()
	results := mon.Drain()
	end := time.Now()
	if readErr != nil {
		return nil, readErr
	}
	r.wall = end.Sub(start)
	if traced {
		r.drain = end.Sub(t3)
		for _, size := range snaps {
			r.snapBytes += size
		}
		stages, err := scrapeStages(srv.Addr())
		if err != nil {
			return nil, err
		}
		r.stages = stages
	}
	mu.Lock()
	defer mu.Unlock()
	for _, res := range results {
		line, err := resultLine(res)
		if err != nil {
			return nil, err
		}
		r.lines = append(r.lines, line)
		if t, ok := delivered[res.Flow]; ok {
			if c, ok := closedAt[res.Flow]; ok {
				r.lags = append(r.lags, max(0, ms(t.Sub(c))))
			}
		}
	}
	r.counters = counters(tracer.Metrics(), hc.Registry())
	if c.durable {
		final := sampleDir(dir)
		r.stateFinal = final.bytes
		r.statePeak = max(r.statePeak, final.bytes)
		if err := restart(r, in, c, dir); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// restart reopens a drained state directory the way a restarted daemon
// does, up to a live Monitor, then drains it and keeps its results.
func restart(r *rep, in *inputs, c replayConfig, dir string) error {
	tracer := obs.New(nil, nil)
	t0 := time.Now()
	d, err := stream.OpenDurability(dir, stream.DurabilityOptions{Obs: tracer})
	if err != nil {
		return err
	}
	t1 := time.Now()
	rec := stream.Recover(d, monitorOptions(in, c, tracer, nil))
	t2 := time.Now()
	r.restart, r.recover = t2.Sub(t0), t2.Sub(t1)
	r.restored, r.restartReplayed, r.restartWarnings = rec.RestoredResults, rec.Replayed, len(rec.Warnings)
	for _, res := range rec.Monitor.Drain() {
		line, err := resultLine(res)
		if err != nil {
			r.restartLinesError = err
			break
		}
		r.restartLines = append(r.restartLines, line)
	}
	r.restartSolves = counters(tracer.Metrics())["stream.solves_total"]
	return nil
}

// counters reads every counter and gauge of the given registries.
func counters(regs ...*obs.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, reg := range regs {
		if reg == nil {
			continue
		}
		snap := reg.Snapshot()
		for _, c := range snap.Counters {
			out[c.Name] = float64(c.Value)
		}
		for _, g := range snap.Gauges {
			if g.Set {
				out[g.Name] = g.Value
			}
		}
	}
	return out
}

// startLive starts a live ops plane on a free loopback port, the way
// csi-monitord -serve does, with extra (the HalfCache registry, or nil)
// rendered on its /metrics.
func startLive(extra *obs.Registry) (*live.Server, error) {
	return live.Start(live.Options{Addr: "127.0.0.1:0", Program: "csibench", Extra: []*obs.Registry{extra}})
}

// stopLive shuts a live ops plane down; its handlers are idle by then.
func stopLive(srv *live.Server) { _ = srv.Shutdown(2 * time.Second) }

// scrapeStages reads the per-stage Infer timings a live.Server recorded,
// from its /metrics page: csi_live_stage_seconds_<stage>_{sum,count}.
func scrapeStages(addr string) (map[string][2]float64, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("live /metrics: %s", resp.Status)
	}
	const prefix = "csi_live_stage_seconds_"
	stages := map[string][2]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || !strings.HasPrefix(name, prefix) {
			continue
		}
		name = strings.TrimPrefix(name, prefix)
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		if stage, ok := strings.CutSuffix(name, "_sum"); ok {
			s := stages[stage]
			s[0] = v
			stages[stage] = s
		} else if stage, ok := strings.CutSuffix(name, "_count"); ok {
			s := stages[stage]
			s[1] = v
			stages[stage] = s
		}
	}
	return stages, sc.Err()
}

// summarise turns the replays into the end-to-end metrics, the per-layer
// metrics and the report.
func summarise(out *outcome, in *inputs, flows int, durable bool, reps []*rep, peakRSS float64) {
	var rates, flowRates, lags, walls, restarts, finals []float64
	var tr []*rep
	for _, r := range reps {
		restarts = append(restarts, r.restart.Seconds())
		finals = append(finals, float64(r.stateFinal)/(1<<20))
		if r.traced {
			tr = append(tr, r)
			continue
		}
		rates = append(rates, float64(r.frames)/r.wall.Seconds())
		flowRates = append(flowRates, float64(len(r.lines))/r.wall.Seconds())
		lags = append(lags, r.lags...)
		walls = append(walls, ms(r.wall))
	}
	lagTail := tailOf(lags, blockSamples(flows))
	out.e2e = map[string]float64{
		"setup_s":            in.timing.total.Seconds(),
		"infer_per_s":        median(flowRates),
		"frames_per_s":       median(rates),
		"result_lag_p50_ms":  median(lags),
		"result_lag_tail_ms": lagTail.Value,
		"peak_rss_mb":        peakRSS,
	}
	report := map[string]any{
		"result_lag_tail":  lagTail,
		"sessions_redrawn": in.timing.redrawn,
		"flows":            flows,
		"frames":           reps[0].frames,
		"replays":          map[string]int{"untraced": len(walls), "traced": len(tr)},
		"replay_ms":        walls,
	}
	if durable {
		report["durable"] = map[string]float64{
			"restart_s":      median(restarts),
			"state_final_mb": median(finals),
		}
	}
	out.report = report
	if len(tr) == 0 {
		return
	}

	n := float64(len(tr))
	mean := func(f func(*rep) float64) float64 {
		t := 0.0
		for _, r := range tr {
			t += f(r)
		}
		return t / n
	}
	counter := func(name string) float64 { return mean(func(r *rep) float64 { return r.counters[name] }) }
	stage := func(s string, i int) float64 {
		v := mean(func(r *rep) float64 { return r.stages[s][i] })
		if i == 0 {
			return v * 1000
		}
		return v
	}
	wall := mean(func(r *rep) float64 { return ms(r.wall) })
	decode := mean(func(r *rep) float64 { return ms(r.decode) })
	ingest := mean(func(r *rep) float64 { return ms(r.ingest) })
	drain := mean(func(r *rep) float64 { return ms(r.drain) })
	unattributed := wall - decode - ingest - drain
	hits, misses := counter("core.halfcache.hits"), counter("core.halfcache.misses")
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	allReps := float64(len(reps))
	restartMean := func(f func(*rep) float64) float64 {
		t := 0.0
		for _, r := range reps {
			t += f(r)
		}
		return t / allReps
	}
	mb := func(b float64) float64 { return b / (1 << 20) }
	l := zeroLayers()
	setupLayers(l, in.timing)
	for k, v := range map[string]float64{
		"core.estimate_ms":           stage("estimate", 0),
		"core.estimate_calls":        stage("estimate", 1),
		"core.candidates_ms":         stage("candidates", 0),
		"core.candidates_calls":      stage("candidates", 1),
		"core.dp_ms":                 stage("dp", 0),
		"core.dp_calls":              stage("dp", 1),
		"core.halfcache.hits":        hits,
		"core.halfcache.misses":      misses,
		"core.halfcache.lookups":     hits + misses,
		"core.halfcache.hit_ratio":   ratio,
		"core.halfcache.bytes":       counter("core.halfcache.bytes"),
		"stream.decode_ms":           decode,
		"stream.decode_ns_per_frame": 1e6 * decode / float64(reps[0].frames),
		"stream.ingest_wait_ms":      ingest,
		"stream.drain_ms":            drain,
		"stream.frames_total":        counter("stream.frames_total"),
		"stream.solves_total":        counter("stream.solves_total"),
		"stream.solve_failures":      counter("stream.solve_failures"),
		"stream.shed_total":          counter("stream.shed_total"),
		"stream.wal_bytes":           counter("stream.wal_bytes"),
		"stream.wal_appends":         counter("stream.wal_appends"),
		"stream.wal_fsyncs":          counter("stream.wal_fsyncs"),
		"stream.snapshots_total":     counter("stream.snapshots_total"),
		"stream.snapshot_bytes":      mean(func(r *rep) float64 { return float64(r.snapBytes) }),
		"stream.state_peak_mb":       mb(mean(func(r *rep) float64 { return float64(r.statePeak) })),
		"stream.state_final_mb":      mb(restartMean(func(r *rep) float64 { return float64(r.stateFinal) })),
		"stream.restart_ms":          restartMean(func(r *rep) float64 { return ms(r.restart) }),
		"stream.recover_ms":          restartMean(func(r *rep) float64 { return ms(r.recover) }),
		"trace.overhead_pct":         100 * (wall/(sum(walls)/float64(len(walls))) - 1),
		"trace.unattributed_pct":     100 * unattributed / wall,
	} {
		l[k] = v
	}
	out.layers = l
	solve := stage("estimate", 0) + stage("candidates", 0) + stage("dp", 0)
	report["traced"] = map[string]any{
		"end_to_end":   "mean traced replay, first Ingest to Drain returning, ms",
		"traced_ms":    wall,
		"untraced_ms":  sum(walls) / float64(len(walls)),
		"overhead_pct": l["trace.overhead_pct"],
		"self_time_share_pct": map[string]float64{
			"stream.decode":      100 * decode / wall,
			"stream.ingest_wait": 100 * ingest / wall,
			"stream.drain":       100 * drain / wall,
			"unattributed":       100 * unattributed / wall,
		},
		"unattributed_is": "the ingest loop itself: close-frame bookkeeping, timing calls and state-directory sampling",
		"solver_share_pct": map[string]float64{
			"core.estimate":   100 * stage("estimate", 0) / wall,
			"core.candidates": 100 * stage("candidates", 0) / wall,
			"core.dp":         100 * stage("dp", 0) / wall,
		},
		"solver_share_is":      "solve stages run on the worker pool, concurrently with the caller, summed over workers; they show in the caller's time as ingest_wait and drain",
		"solve_ms_per_replay":  solve,
		"candidates_of_solves": 100 * stage("candidates", 0) / max(solve, 1e-9),
	}
}

// zeroLayers returns every per-layer metric at zero; a workload overwrites
// the ones its layers report, and the rest stay zero because the workload
// does not exercise that layer.
func zeroLayers() map[string]float64 {
	sp, err := loadSpec()
	if err != nil {
		panic(err) // spec.json is embedded; the tests parse it
	}
	l := make(map[string]float64, len(sp.PerLayer))
	for _, m := range sp.PerLayer {
		l[m.Name] = 0
	}
	return l
}

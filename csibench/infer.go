package main

import (
	"fmt"
	"runtime"
	"time"

	"csi/internal/capture"
	"csi/internal/core"
	"csi/internal/obs/live"
	"csi/internal/session"
	"csi/internal/stream"
)

// inferConfig sizes infer-sh-cold.
type inferConfig struct {
	captures   int
	sessionSec float64
	assetSec   float64
	setupReps  int
}

func inferScale(sc scale) inferConfig {
	if sc == tiny {
		return inferConfig{captures: 2, sessionSec: 60, assetSec: 120, setupReps: 1}
	}
	return inferConfig{captures: 6, sessionSec: 600, assetSec: 900, setupReps: 3}
}

func inferInputs(seed int64, c inferConfig) (*inputs, error) {
	specs := flowSpecs(seed, c.captures, c.sessionSec, c.sessionSec, 0)
	return generate(session.SH, c.assetSec, nil, specs, false, "")
}

// inferParams is csi-analyze's default configuration: HTTPS, no mux search,
// no HalfCache, no degradation ladder.
func inferParams(in *inputs) core.Params {
	return core.Params{MediaHost: in.man.Host}
}

// freshTrace shares a capture's packets under a new Trace whose ByConn
// memo is empty: a newly delivered capture.
func freshTrace(t *capture.Trace) *capture.Trace {
	return &capture.Trace{Packets: t.Packets, SNI: t.SNI, DNS: t.DNS, ServerIP: t.ServerIP}
}

// minAccuracy is the lowest best-sequence accuracy against the simulator's
// ground truth that counts as a correct SH inference. The paper reports
// ~100% for the HTTPS designs.
const minAccuracy = 0.95

// runInferSHCold measures one cold core.Infer per capture, round robin over
// the seed's captures, in a closed loop with one caller. A traced run
// alternates untraced and traced rounds; a traced call runs ByConn
// explicitly first, then Infer with the stage timer of a live.Server (the
// repository's one sanctioned wall-clock StageTimer), reading MemStats
// around both; the stage times come from the server's /metrics.
func runInferSHCold(env *runEnv) (*outcome, error) {
	c := inferScale(env.scale)
	in, err := setupMedian(c.setupReps, func() (*inputs, error) { return inferInputs(env.seed, c) })
	if err != nil {
		return nil, err
	}
	p := inferParams(in)
	n := len(in.runs)
	ref := env.ref
	if ref == nil {
		if ref, err = inferBatchDigests(in); err != nil {
			return nil, err
		}
	}
	chk := &checker{ref: ref}

	// Ground-truth accuracy of each capture's inference, measured once
	// before the loop and untimed (the inference is deterministic). A
	// capture whose best sequence misses the truth fails every operation
	// on it.
	accuracy := make([]float64, n)
	truthErr := make([]error, n)
	for i, r := range in.runs {
		inf, err := core.Infer(in.man, freshTrace(r.Trace), p)
		if err == nil {
			accuracy[i], _, err = inf.AccuracyRange(r.Truth)
		}
		if err == nil && accuracy[i] < minAccuracy {
			err = fmt.Errorf("best-sequence accuracy %.4f below %.2f", accuracy[i], minAccuracy)
		}
		truthErr[i] = err
	}

	var (
		untraced, traced        []float64 // call latency, ms
		roundRates, roundPkts   []float64 // per untraced round: captures/s, packets/s
		byconnMs, byconnBytes   float64
		inferBytes, inferAllocs float64
		ms0, ms1, ma, mb, mc    runtime.MemStats
	)
	var srv *live.Server
	if env.traced {
		if srv, err = startLive(nil); err != nil {
			return nil, err
		}
		defer stopLive(srv)
	}
	rss := startRSS()
	runtime.ReadMemStats(&ms0)
	deadline := time.Now().Add(time.Duration(env.seconds * float64(time.Second)))
	// Whole rounds over every capture; a traced run alternates untraced and
	// traced rounds and ends after a traced one.
	for round := 0; ; round++ {
		tracedRound := env.traced && round%2 == 1
		if round > 0 && !time.Now().Before(deadline) && (!env.traced || round%2 == 0) {
			break
		}
		var roundMs, packets float64
		for i, r := range in.runs {
			tr := freshTrace(r.Trace)
			var inf *core.Inference
			var err error
			if tracedRound {
				// The traced operation runs from before the first MemStats
				// read to after the last, so the tracing overhead counts
				// the reads' stop-the-world pauses too.
				start := time.Now()
				runtime.ReadMemStats(&ma)
				t0 := time.Now()
				tr.ByConn()
				t1 := time.Now()
				runtime.ReadMemStats(&mb)
				tp := p
				tp.Stages = srv.StageTimer()
				inf, err = core.Infer(in.man, tr, tp)
				runtime.ReadMemStats(&mc)
				traced = append(traced, ms(time.Since(start)))
				byconnMs += ms(t1.Sub(t0))
				byconnBytes += float64(mb.TotalAlloc - ma.TotalAlloc)
				inferBytes += float64(mc.TotalAlloc - mb.TotalAlloc)
				inferAllocs += float64(mc.Mallocs - mb.Mallocs)
			} else {
				t0 := time.Now()
				inf, err = core.Infer(in.man, tr, p)
				d := ms(time.Since(t0))
				untraced = append(untraced, d)
				roundMs += d
				packets += float64(len(r.Trace.Packets))
			}
			d, err := inferDigest(env, i, in, inf, err)
			if err == nil {
				err = truthErr[i]
			}
			chk.op(i, d, err)
		}
		if !tracedRound {
			roundRates = append(roundRates, float64(n)/(roundMs/1000))
			roundPkts = append(roundPkts, packets/(roundMs/1000))
		}
	}
	runtime.ReadMemStats(&ms1)
	peakRSS := rss.peak()

	ops := len(untraced) + len(traced)
	out := &outcome{
		attempted: chk.attempted, failed: chk.failed, correct: true,
		problems: chk.problems, ops: ops,
	}
	lagTail := tailOf(untraced, blockSamples(n))
	out.e2e = map[string]float64{
		"setup_s":            in.timing.total.Seconds(),
		"infer_per_s":        median(roundRates),
		"frames_per_s":       median(roundPkts),
		"result_lag_p50_ms":  median(untraced),
		"result_lag_tail_ms": lagTail.Value,
		"peak_rss_mb":        peakRSS,
	}
	report := map[string]any{
		"result_lag_tail":  lagTail,
		"sessions_redrawn": in.timing.redrawn,
		"captures":         n,
		"best_accuracy":    accuracy,
	}
	out.report = report
	if !env.traced {
		return out, nil
	}

	nt := float64(len(traced))
	stages, err := scrapeStages(srv.Addr())
	if err != nil {
		return nil, err
	}
	stage := func(s string) (float64, float64) { return 1000 * stages[s][0] / nt, stages[s][1] / nt }
	est, estN := stage("estimate")
	cand, candN := stage("candidates")
	dp, dpN := stage("dp")
	tracedMean := sum(traced) / nt
	untracedMean := sum(untraced) / float64(len(untraced))
	byconn := byconnMs / nt
	unattributed := tracedMean - byconn - est - cand - dp
	out.layers = zeroLayers()
	setupLayers(out.layers, in.timing)
	for k, v := range map[string]float64{
		"capture.byconn_ms":      byconn,
		"capture.byconn_bytes":   byconnBytes / nt,
		"core.estimate_ms":       est,
		"core.estimate_calls":    estN,
		"core.candidates_ms":     cand,
		"core.candidates_calls":  candN,
		"core.dp_ms":             dp,
		"core.dp_calls":          dpN,
		"core.infer_bytes":       inferBytes / nt,
		"core.infer_allocs":      inferAllocs / nt,
		"core.best_accuracy":     sum(accuracy) / float64(n),
		"go.gc_cycles":           float64(ms1.NumGC-ms0.NumGC) / float64(ops),
		"go.alloc_bytes_per_op":  float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(ops),
		"trace.overhead_pct":     100 * (tracedMean/untracedMean - 1),
		"trace.unattributed_pct": 100 * unattributed / tracedMean,
	} {
		out.layers[k] = v
	}
	report["traced"] = map[string]any{
		"end_to_end":   "mean traced operation: MemStats reads, ByConn, Infer, ms",
		"traced_ms":    tracedMean,
		"untraced_ms":  untracedMean,
		"overhead_pct": 100 * (tracedMean/untracedMean - 1),
		"self_time_share_pct": map[string]float64{
			"capture.byconn":  100 * byconn / tracedMean,
			"core.estimate":   100 * est / tracedMean,
			"core.candidates": 100 * cand / tracedMean,
			"core.dp":         100 * dp / tracedMean,
			"unattributed":    100 * unattributed / tracedMean,
		},
		"unattributed_is": "Infer outside its stages (manifest validation, the smallest-chunk scan, result assembly) and the tracing's own MemStats reads; GC assists are spread over every layer",
		"gc_cpu_fraction": ms1.GCCPUFraction,
		"calls":           map[string]int{"traced": len(traced), "untraced": len(untraced)},
	}
	return out, nil
}

// inferDigest renders one inference as the result line csi-monitord would
// write for it and returns its digest, applying the test corruption hook.
func inferDigest(env *runEnv, i int, in *inputs, inf *core.Inference, err error) (string, error) {
	if err != nil {
		return "", err
	}
	r := stream.NewResult(in.names[i], stream.ReasonClose, len(in.runs[i].Trace.Packets), inf, nil, nil, in.man)
	if env.corrupt != nil {
		env.corrupt(i, &r)
	}
	line, err := resultLine(r)
	if err != nil {
		return "", err
	}
	return digest(line), nil
}

// inferBatchDigests is the reference for infer-sh-cold: each capture
// packed as a one-flow frame stream and run through stream.Batch, which
// taps the packets into a new Trace and runs the plain offline pipeline.
func inferBatchDigests(in *inputs) ([]string, error) {
	var out []string
	for i, r := range in.runs {
		frames := stream.Pack(map[string]*capture.Trace{in.names[i]: r.Trace})
		_, d, err := batchDigests(frames, stream.Options{Manifest: in.man, Params: inferParams(in)})
		if err != nil {
			return nil, err
		}
		out = append(out, d...)
	}
	return out, nil
}

// setupLayers fills the set-up layer metrics from the median set-up.
func setupLayers(l map[string]float64, st setupTiming) {
	l["media.encode_ms"] = ms(st.encode)
	l["session.run_ms"] = st.sessionMs()
	l["session.packets"] = st.packetsPerSession()
	l["stream.pack_ms"] = ms(st.pack)
	l["stream.encode_frames_ms"] = ms(st.encodeFrames)
}

// Command csibench is the repository's benchmark. It generates a workload's
// inputs from a seed, drives the program only through its exported API
// (core.Infer, capture.(*Trace).ByConn, the stream monitor and its
// durability layer), checks every output, and prints the end-to-end metrics
// (--trace 0) or the per-layer metrics of a traced run (--trace 1).
//
// Usage, from the repository root:
//
//	bash csibench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The lines before it give the
// environment and the run report. spec.json describes every workload and
// metric.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"

	"csi/internal/stream"
)

//go:embed spec.json
var specFile []byte

// spec mirrors the parts of spec.json the program uses.
type spec struct {
	Workloads []struct {
		Name   string `json:"name"`
		Caches string `json:"caches"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec() (*spec, error) {
	var s spec
	if err := json.Unmarshal(specFile, &s); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	return &s, nil
}

// scale sizes a workload's inputs: full for the benchmark, tiny for tests.
type scale string

const (
	full scale = "full"
	tiny scale = "tiny"
)

// buildDir is where run.sh builds the benchmark binary; runs keep their
// working directories (state directories) under it too.
const buildDir = ".bench_build"

// runEnv is what every workload receives.
type runEnv struct {
	seed    int64
	seconds float64
	traced  bool
	scale   scale
	ref     []string // recorded digests for this workload and seed; nil if none
	workDir string   // working directory inside the checkout (state directories)
	// corrupt, when set, alters the result of operation op before it is
	// checked; tests use it to prove that a wrong output is counted.
	corrupt func(op int, r *stream.Result)
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	correct           bool // run-level checks (batch identity, shedding, restart) passed
	problems          []string
	e2e               map[string]float64
	layers            map[string]float64
	report            map[string]any
	ops               int // operations measured
}

var workloads = map[string]func(*runEnv) (*outcome, error){
	"infer-sh-cold":     runInferSHCold,
	"replay-sq-resolve": runReplaySQ,
	"replay-sh-durable": runReplaySHDurable,
}

func main() {
	workload := flag.String("workload", "", "workload to run (see spec.json)")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	record := flag.String("record-reference", "", fmt.Sprintf("instead of measuring, write the digests of every workload's outputs for seeds 0..%d to this file", referenceSeeds-1))
	flag.Parse()

	var lines []string
	var err error
	if *record != "" {
		err = recordReferences(*record)
	} else {
		lines, err = run(*workload, *seed, *seconds, *trace == 1, full)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "csibench:", err)
		os.Exit(1)
	}
	for _, line := range lines {
		fmt.Println(line)
	}
}

// run measures one workload and returns the output lines, the result
// object last.
func run(workload string, seed int64, seconds float64, traced bool, sc scale) ([]string, error) {
	fn, ok := workloads[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	if seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	sp, err := loadSpec()
	if err != nil {
		return nil, err
	}
	refs, err := loadReferences()
	if err != nil {
		return nil, err
	}
	env := &runEnv{seed: seed, seconds: seconds, traced: traced, scale: sc}
	if sc == full {
		env.ref = refs.lookup(workload, seed)
	}
	if env.workDir, err = makeWorkDir(); err != nil {
		return nil, err
	}
	defer os.RemoveAll(env.workDir)

	out, err := fn(env)
	if err != nil {
		return nil, err
	}
	return render(sp, workload, env, out)
}

// makeWorkDir creates this run's working directory under buildDir.
func makeWorkDir() (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(buildDir, "run-")
}

// render formats the environment header, the report and the result object.
func render(sp *spec, workload string, env *runEnv, out *outcome) ([]string, error) {
	wanted, got := sp.EndToEnd, out.e2e
	if env.traced {
		wanted, got = sp.PerLayer, out.layers
	}
	metrics := make(map[string]map[string]any, len(wanted))
	for _, m := range wanted {
		v, ok := got[m.Name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not measure %s", workload, m.Name)
		}
		metrics[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	for name := range got {
		if _, ok := metrics[name]; !ok {
			return nil, fmt.Errorf("workload %s measured %s, which spec.json does not list", workload, name)
		}
	}
	caches := ""
	for _, w := range sp.Workloads {
		if w.Name == workload {
			caches = w.Caches
		}
	}
	objs := []any{
		map[string]any{"env": environment(workload, caches, env, out)},
		map[string]any{"report": out.report},
	}
	if len(out.problems) > 0 {
		objs = append(objs, map[string]any{"problems": out.problems})
	}
	objs = append(objs, map[string]any{
		"correct":   out.correct && out.failed == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
	lines := make([]string, len(objs))
	for i, v := range objs {
		b, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		lines[i] = string(b)
	}
	return lines, nil
}

// environment is the header every run prints.
func environment(workload, caches string, env *runEnv, out *outcome) map[string]any {
	rev := "unknown (not built from a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	reference := "digests recorded from the seed commit"
	if env.ref == nil {
		reference = "none recorded for this seed and scale: outputs are checked against stream.Batch over the same inputs"
	}
	return map[string]any{
		"goos":            runtime.GOOS,
		"goarch":          runtime.GOARCH,
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"numcpu":          runtime.NumCPU(),
		"go_version":      runtime.Version(),
		"vcs_revision":    rev,
		"workload":        workload,
		"caches":          caches,
		"seed":            env.seed,
		"seconds":         env.seconds,
		"traced":          env.traced,
		"scale":           env.scale,
		"operations":      out.ops,
		"solver_workers":  solverWorkers(),
		"parallel_solves": solverWorkers() > 1,
		"reference":       reference,
	}
}

// solverWorkers is the monitor's solve pool width: one per usable CPU. At
// GOMAXPROCS=1 solves run one at a time, and the report says so rather
// than claiming parallelism.
func solverWorkers() int {
	return min(runtime.GOMAXPROCS(0), runtime.NumCPU())
}

package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"csi/internal/stream"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string                     `json:"command"`
	Paths      []string                     `json:"paths"`
	RunSeconds int                          `json:"run_seconds"`
	Workloads  []struct{ Name, Why string } `json:"workloads"`
	EndToEnd   []metricSpec                 `json:"end_to_end"`
	PerLayer   []metricSpec                 `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchmark(t)
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.EndToEnd, sp.EndToEnd) {
		t.Errorf("end_to_end differs:\nBENCHMARK.json %+v\nspec.json      %+v", b.EndToEnd, sp.EndToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, sp.PerLayer) {
		t.Errorf("per_layer differs between BENCHMARK.json and spec.json")
	}
	var bw, sw, run []string
	for _, w := range b.Workloads {
		bw = append(bw, w.Name)
	}
	for _, w := range sp.Workloads {
		sw = append(sw, w.Name)
	}
	for name := range workloads {
		run = append(run, name)
	}
	sort.Strings(run)
	sort.Strings(bw)
	sort.Strings(sw)
	if !reflect.DeepEqual(bw, run) || !reflect.DeepEqual(sw, run) {
		t.Errorf("workloads: BENCHMARK.json %v, spec.json %v, program %v", bw, sw, run)
	}
	if _, err := loadReferences(); err != nil {
		t.Error(err)
	}
}

// result is the last output line.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func lastResult(t *testing.T, lines []string) result {
	t.Helper()
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestTinyRuns runs every workload at tiny scale, untraced and traced: the
// output checks must pass, and the printed metrics must be exactly those
// BENCHMARK.json names, with its units.
func TestTinyRuns(t *testing.T) {
	b := loadBenchmark(t)
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			lines, err := run(name, 3, 0.2, traced, tiny)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			r := lastResult(t, lines)
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%v", name, traced, r.Correct, r.Attempted, r.Failed, lines)
			}
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json lists %d", name, traced, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s printed as %+v, want unit %s", name, traced, m.Name, got, m.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestCorruptedResultsFail alters one result per operation round and
// requires the checks to count it.
func TestCorruptedResultsFail(t *testing.T) {
	for name, fn := range workloads {
		dir, err := makeWorkDir()
		if err != nil {
			t.Fatal(err)
		}
		defer os.RemoveAll(dir)
		env := &runEnv{seed: 3, seconds: 0.2, scale: tiny, workDir: dir}
		env.corrupt = func(op int, r *stream.Result) {
			if op == 0 {
				r.Packets++ // a wrong packet count
				if len(r.Best) > 0 {
					r.Best[0].Audio = !r.Best[0].Audio // and a wrong sequence
				}
			}
		}
		out, err := fn(env)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.failed == 0 || out.failed > out.attempted {
			t.Errorf("%s: corrupted run counted %d failures of %d attempted", name, out.failed, out.attempted)
		}
	}
}

// TestReferenceMismatchFails checks that an operation whose digest does
// not match its reference, or that has none, counts as failed.
func TestReferenceMismatchFails(t *testing.T) {
	c := &checker{ref: []string{"0000000000000000", "1111111111111111"}}
	c.op(0, "0000000000000000", nil)
	c.op(1, "2222222222222222", nil)
	c.op(2, "2222222222222222", nil) // beyond the reference
	if c.attempted != 3 || c.failed != 2 {
		t.Errorf("attempted=%d failed=%d, want 3 and 2", c.attempted, c.failed)
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 40; i++ {
		xs = append(xs, float64(i))
	}
	if got := tailOf(xs, 40); got.Value != 30 || got.Percentile != 75 || got.Blocks != 1 {
		t.Errorf("tailOf(1..40) = %+v, want value 30 at p75", got)
	}
	// Three blocks whose tails are 30, 70 and 110: the median block wins,
	// and the partial fourth block is dropped.
	for i := 41; i <= 125; i++ {
		xs = append(xs, float64(i))
	}
	if got := tailOf(xs, 40); got.Value != 70 || got.Blocks != 3 || got.Samples != 125 {
		t.Errorf("tailOf(1..125) = %+v, want the middle block's 70", got)
	}
	if got := tailOf(xs[:5], 40); got.Value != 5 || got.Percentile != 100 {
		t.Errorf("tailOf(1..5) = %+v, want the maximum", got)
	}
	if got := blockSamples(24); got != 48 {
		t.Errorf("blockSamples(24) = %d, want 48", got)
	}
}

package main

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of xs (0 for an empty slice). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the tail latency the benchmark reports. Within a block of
// consecutive samples it is the highest order statistic that still has at
// least ten samples above it; the reported value is the median of that
// statistic over the run's blocks, so one burst of contention from other
// tenants of the machine moves one block, not the figure. A block with
// ten or fewer samples has no such statistic: its maximum stands in, at
// percentile 100, and the report shows it.
type tail struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
	Blocks     int     `json:"blocks"`
}

// blockSamples is the smallest multiple of perOp (samples one operation
// yields) that holds at least 40 samples: blocks of that size put the tail
// statistic at about the 75th percentile.
func blockSamples(perOp int) int {
	perOp = max(perOp, 1)
	return perOp * ((40 + perOp - 1) / perOp)
}

// tailOf computes the tail over consecutive blocks of size samples; a
// trailing partial block is dropped unless it is the only one.
func tailOf(xs []float64, size int) tail {
	var vals, pcts []float64
	for i := 0; i+size <= len(xs) || (i == 0 && len(xs) > 0); i += size {
		b := append([]float64(nil), xs[i:min(i+size, len(xs))]...)
		sort.Float64s(b)
		n := len(b)
		if n <= 10 {
			vals, pcts = append(vals, b[n-1]), append(pcts, 100)
			continue
		}
		// Rank n-10 (1-based) has exactly ten samples above it.
		vals, pcts = append(vals, b[n-11]), append(pcts, 100*float64(n-10)/float64(n))
	}
	return tail{Value: median(vals), Percentile: median(pcts), Samples: len(xs), Blocks: len(vals)}
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// rssMB reads the process's resident set (VmRSS) in MiB; 0 when /proc is
// unavailable.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmRSS:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// rssSampler records the peak resident set while the measured loop runs,
// sampling every 10 ms. Set-up and the correctness reference run before it
// starts, and their garbage is collected and returned to the system first,
// so the peak is the workload's own.
type rssSampler struct {
	stop chan struct{}
	done chan float64
}

func startRSS() *rssSampler {
	runtime.GC()
	debug.FreeOSMemory()
	s := &rssSampler{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		peak := rssMB()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				peak = max(peak, rssMB())
			case <-s.stop:
				s.done <- max(peak, rssMB())
				return
			}
		}
	}()
	return s
}

// peak stops the sampler and returns the peak in MiB.
func (s *rssSampler) peak() float64 {
	close(s.stop)
	return <-s.done
}

// dirSample is one look at a state directory from outside the monitor.
type dirSample struct {
	bytes int64
	snaps map[string]int64 // snapshot file name -> size
}

// sampleDir sums the sizes of the regular files in dir and lists its
// snapshot files. Files that vanish between listing and stat (a pruned
// snapshot, a renamed temp file) are skipped.
func sampleDir(dir string) dirSample {
	s := dirSample{snaps: map[string]int64{}}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return s
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil || !info.Mode().IsRegular() {
			continue
		}
		s.bytes += info.Size()
		if filepath.Ext(e.Name()) == ".snap" {
			s.snaps[e.Name()] = info.Size()
		}
	}
	return s
}

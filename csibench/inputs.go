package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"csi/internal/capture"
	"csi/internal/media"
	"csi/internal/netem"
	"csi/internal/session"
	"csi/internal/stream"
)

// sessionSpec is one simulated streaming session to generate.
type sessionSpec struct {
	name    string
	sec     float64 // session length
	start   float64 // capture time of the session's start (replays)
	meanBps float64 // mean of the cellular bandwidth trace
	seed    int64   // bandwidth trace and player seed
	redrawn int     // times simulate drew a new seed
}

// maxRedraws bounds simulate's retries.
const maxRedraws = 8

// simulate runs one session. A session in which the player never received
// a chunk (a lost handshake or first request that the simulator does not
// retry leaves a capture of a few hundred packets and no chunk request) is
// not a streaming session to infer: simulate draws the next seed from
// sp.seed and runs it again, counting the redraw in sp.redrawn and in the
// run report.
func simulate(d session.Design, man *media.Manifest, sp *sessionSpec) (*session.Result, error) {
	for {
		res, err := session.Run(session.Config{
			Design:   d,
			Manifest: man,
			Bandwidth: netem.GenerateCellular(netem.CellularConfig{
				Seed: sp.seed, MeanBps: sp.meanBps, Variability: 0.25,
			}),
			Duration: sp.sec,
			Seed:     sp.seed,
		})
		if err != nil {
			return nil, fmt.Errorf("simulating %s: %w", sp.name, err)
		}
		if len(res.Run.Truth) > 0 {
			return res, nil
		}
		if sp.redrawn == maxRedraws {
			return nil, fmt.Errorf("simulating %s: no chunk delivered in %d sessions", sp.name, maxRedraws+1)
		}
		sp.redrawn++
		sp.seed = rand.New(rand.NewSource(sp.seed)).Int63n(1 << 40)
	}
}

// inputs is everything a workload measures, generated from its seed.
type inputs struct {
	man  *media.Manifest
	runs []*capture.Run
	// names[i] is runs[i]'s flow name (replays).
	names []string
	// frames is the packed frame stream (replays; dropped once the
	// reference and the encoding exist) and encoded its JSONL wire form.
	frames  []stream.Frame
	encoded []byte

	timing setupTiming
}

// setupTiming is one set-up's wall time, total and per layer.
type setupTiming struct {
	total, encode, pack, encodeFrames time.Duration
	sessions                          []time.Duration
	packets                           []int
	redrawn                           int // sessions simulated again; see simulate
}

// sessionMs and packetsPerSession summarise the simulator's share.
func (st setupTiming) sessionMs() float64 {
	var t []float64
	for _, d := range st.sessions {
		t = append(t, ms(d))
	}
	return median(t)
}

func (st setupTiming) packetsPerSession() float64 {
	var t []float64
	for _, p := range st.packets {
		t = append(t, float64(p))
	}
	return median(t)
}

// ladder returns the video ladder made of the given DefaultLadder rungs
// (nil keeps the default six-rung ladder).
func ladder(rungs []int) []media.Rung {
	if rungs == nil {
		return nil
	}
	out := make([]media.Rung, len(rungs))
	for i, r := range rungs {
		out[i] = media.DefaultLadder[r]
	}
	return out
}

// assetSeed fixes the encoded asset: it is the service's catalogue, the
// same whatever the workload seed, which draws only the traffic. Chunk
// sizes of a seeded asset move a workload's packet count by up to a fifth
// from one seed to the next, which would swamp the run-to-run comparison.
const assetSeed = 23

// generate encodes one asset and simulates the given sessions over seeded
// cellular bandwidth traces. When pack is set it also interleaves the
// captures into one frame stream and encodes it as JSONL, the monitor's
// replay wire format. stateDir, when non-empty, is opened as an empty
// durable state directory, as a daemon does before its first frame.
func generate(d session.Design, assetSec float64, rungs []int, specs []sessionSpec, pack bool, stateDir string) (*inputs, error) {
	in := &inputs{}
	st := &in.timing
	start := time.Now()
	audio := 0
	if d.Separate() {
		audio = 1
	}
	t := time.Now()
	man, err := media.Encode(media.EncodeConfig{
		Name: "bench", Seed: assetSeed, DurationSec: assetSec, ChunkDur: 5,
		TargetPASR: 1.5, AudioTracks: audio, Ladder: ladder(rungs),
	})
	if err != nil {
		return nil, fmt.Errorf("encoding asset: %w", err)
	}
	st.encode = time.Since(t)
	in.man = man
	for _, sp := range specs {
		t := time.Now()
		res, err := simulate(d, man, &sp)
		if err != nil {
			return nil, err
		}
		st.sessions = append(st.sessions, time.Since(t))
		// Shift the capture to the session's start: a monitor sees
		// sessions arrive over time.
		for j := range res.Run.Trace.Packets {
			res.Run.Trace.Packets[j].Time += sp.start
		}
		st.packets = append(st.packets, len(res.Run.Trace.Packets))
		st.redrawn += sp.redrawn
		in.runs = append(in.runs, res.Run)
		in.names = append(in.names, sp.name)
	}
	if pack {
		t := time.Now()
		traces := make(map[string]*capture.Trace, len(in.runs))
		for i, r := range in.runs {
			traces[in.names[i]] = r.Trace
		}
		in.frames = stream.Pack(traces)
		st.pack = time.Since(t)
		t = time.Now()
		var buf bytes.Buffer
		if err := stream.WriteFrames(&buf, in.frames); err != nil {
			return nil, err
		}
		in.encoded = buf.Bytes()
		st.encodeFrames = time.Since(t)
	}
	if stateDir != "" {
		if _, err := stream.OpenDurability(stateDir, stream.DurabilityOptions{}); err != nil {
			return nil, err
		}
		// An empty state directory holds no file until the first frame, so
		// the unused Durability has nothing to close.
		if err := os.RemoveAll(stateDir); err != nil {
			return nil, err
		}
	}
	st.total = time.Since(start)
	return in, nil
}

// setupMedian generates the inputs reps times and returns the last
// generation with the timings of the median one. Generation is a pure
// function of the seed, so every repetition yields the same inputs; each is
// released and collected before the next starts.
func setupMedian(reps int, gen func() (*inputs, error)) (*inputs, error) {
	var in *inputs
	var timings []setupTiming
	for i := 0; i < reps; i++ {
		in = nil
		runtime.GC()
		var err error
		if in, err = gen(); err != nil {
			return nil, err
		}
		timings = append(timings, in.timing)
	}
	sort.Slice(timings, func(a, b int) bool { return timings[a].total < timings[b].total })
	in.timing = timings[(len(timings)-1)/2]
	return in, nil
}

// flowSpecs draws n sessions of lengths in [lo, hi] seconds whose starts
// are spread over [0, arrivals) seconds. The workload's shape is fixed and
// the seed picks its detail, so that runs at different seeds measure
// comparable work: session i's length is drawn from its own 1/n slice of
// the range; its mean bandwidth is the i-th highest of n levels log-spaced
// from 3 to 12 Mbit/s (longer sessions get less bandwidth, which evens out
// their sizes); and its start falls in arrival slot 5i mod n (5 is prime to
// every n the benchmark uses, so long and short sessions interleave). The
// seed draws the lengths and starts within their slots and the bandwidth
// traces' and players' randomness.
func flowSpecs(seed int64, n int, lo, hi, arrivals float64) []sessionSpec {
	rng := rand.New(rand.NewSource(seed))
	specs := make([]sessionSpec, n)
	for i := range specs {
		sec := lo + (hi-lo)*(float64(i)+rng.Float64())/float64(n)
		start := arrivals * (float64((5*i)%n) + rng.Float64()) / float64(n)
		level := 1.0
		if n > 1 {
			level = float64(n-1-i) / float64(n-1)
		}
		specs[i] = sessionSpec{
			name:    fmt.Sprintf("flow-%02d", i),
			sec:     math.Round(sec),
			start:   math.Round(start*1000) / 1000,
			meanBps: 3e6 * math.Pow(4, level),
			seed:    rng.Int63n(1 << 40),
		}
	}
	return specs
}

// stateDirFor names a fresh state directory under root.
func stateDirFor(root string, tag string, i int) string {
	return filepath.Join(root, fmt.Sprintf("%s-%d", tag, i))
}

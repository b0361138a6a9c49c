package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"csi/internal/stream"
)

// The output checks. None of them is timed: each runs after the measured
// call returns, on data the call produced.

// resultLine renders one result exactly as csi-monitord writes it.
func resultLine(r stream.Result) ([]byte, error) {
	var buf bytes.Buffer
	if err := stream.WriteResults(&buf, []stream.Result{r}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// digest is the recorded form of one result: the first 16 hex digits of
// the SHA-256 of its result line.
func digest(line []byte) string {
	h := sha256.Sum256(line)
	return hex.EncodeToString(h[:8])
}

// referenceFile holds the per-operation digests recorded from the seed
// commit, by workload and seed: for infer-sh-cold one digest per capture,
// for the replays one per flow in commit order.
//
//go:embed reference.json
var referenceFile []byte

type references map[string]map[string][]string

func loadReferences() (references, error) {
	var refs references
	if err := json.Unmarshal(referenceFile, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return refs, nil
}

// lookup returns the recorded digests for a full-scale run of workload at
// seed, or nil when that seed was never recorded.
func (r references) lookup(workload string, seed int64) []string {
	return r[workload][strconv.FormatInt(seed, 10)]
}

// checker counts operations and their failures against reference digests,
// one per operation index: the digests recorded from the seed commit when
// the seed was recorded, else those of the batch pipeline's output over
// the same inputs, computed in this run.
type checker struct {
	ref []string

	attempted, failed int
	problems          []string
}

// op records one attempted operation with index i: err is a failure to
// produce a result, got its digest.
func (c *checker) op(i int, got string, err error) {
	c.attempted++
	switch {
	case err != nil:
		c.fail(fmt.Sprintf("operation %d: %v", i, err))
	case i >= len(c.ref):
		c.fail(fmt.Sprintf("operation %d: no reference", i))
	case c.ref[i] != got:
		c.fail(fmt.Sprintf("operation %d: digest %s, reference %s", i, got, c.ref[i]))
	}
}

// fail records one failed operation.
func (c *checker) fail(msg string) {
	c.failed++
	if len(c.problems) < 20 {
		c.problems = append(c.problems, msg)
	}
}

// batchDigests renders the batch pipeline's results over frames and
// returns their result lines and digests.
func batchDigests(frames []stream.Frame, opts stream.Options) ([][]byte, []string, error) {
	var lines [][]byte
	var digests []string
	for _, r := range stream.Batch(frames, opts) {
		line, err := resultLine(r)
		if err != nil {
			return nil, nil, err
		}
		lines = append(lines, line)
		digests = append(digests, digest(line))
	}
	return lines, digests, nil
}

// compareLines checks a monitor's result lines against the batch
// reference, line by line: the repository's replay == batch gate, run from
// outside. It returns, per reference line, whether the monitor matched it.
func compareLines(got, want [][]byte) []bool {
	ok := make([]bool, len(want))
	for i := range want {
		ok[i] = i < len(got) && bytes.Equal(got[i], want[i])
	}
	return ok
}

// referenceSeeds is how many seeds, from 0, reference.json covers.
const referenceSeeds = 40

// recordReferences writes the digests of every workload's outputs at full
// scale for seeds 0..referenceSeeds-1: the stream.Batch result lines over each
// capture (infer-sh-cold) or over the packed frame stream (replays). Run it on the commit whose
// outputs are the reference.
func recordReferences(path string) error {
	refs := references{}
	for name := range workloads {
		refs[name] = map[string][]string{}
	}
	replays := map[string]replayConfig{
		"replay-sq-resolve": sqScale(full),
		"replay-sh-durable": shDurableScale(full),
	}
	for s := 0; s < referenceSeeds; s++ {
		seed := int64(s)
		key := strconv.Itoa(s)
		in, err := inferInputs(seed, inferScale(full))
		if err != nil {
			return err
		}
		if refs["infer-sh-cold"][key], err = inferBatchDigests(in); err != nil {
			return err
		}
		for name, c := range replays {
			in, err := replayInputs(&runEnv{seed: seed}, c, "")
			if err != nil {
				return err
			}
			if _, refs[name][key], err = batchDigests(in.frames, monitorOptions(in, c, nil, nil)); err != nil {
				return err
			}
		}
		fmt.Fprintf(os.Stderr, "csibench: recorded seed %d\n", seed)
	}
	b, err := json.MarshalIndent(refs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

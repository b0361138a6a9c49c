#!/bin/sh
# check.sh — the single pre-merge gate (tier-1+ verify).
#
# Runs, in order:
#   1. go build ./...            everything compiles
#   2. go vet ./...              stock vet
#   3. csi-vet -strict-ignores    repo-specific determinism/correctness rules
#                                (incl. interprocedural taint + concurrency),
#                                failing on stale suppressions; archives the
#                                machine-readable report as csi-vet.json
#   4. go test -race ./...       full test suite under the race detector
#   5. traced quickstart         csi-run + csi-analyze with -trace-out/-metrics,
#                                diffed byte-for-byte against testdata/obs/
#
# Any failure aborts the gate. Run from anywhere inside the repository.
# `check.sh -quick` trims the crash-recovery matrix to its two
# highest-value points; every other gate runs in full either way.
set -eu

cd "$(dirname "$0")/.."

QUICK=0
[ "${1:-}" = "-quick" ] && QUICK=1

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== csi-vet ./... (strict ignores; JSON archived as csi-vet.json)"
# The JSON report (findings + stale suppressions + the audited suppression
# inventory) is committed at the repo root so CI reviews diff findings
# structurally instead of parsing text. It is regenerated here on every
# gate run; commit the refreshed file when the inventory legitimately
# changes.
go run ./cmd/csi-vet -strict-ignores -format json ./... > csi-vet.json

echo "== go test -race ./..."
# Explicit per-package timeout: the race detector costs ~10x on the
# inference-heavy packages, which puts internal/core near the default
# 10-minute limit on small (single-core CI) machines.
go test -race -timeout 30m ./...

echo "== core bench smoke (1 iteration)"
# One iteration of each mux candidate-search benchmark pair (parallel kernel
# vs serial reference) so the Go benchmarks cannot rot without failing the
# gate.
go test -run='^$' -bench='^Benchmark(MuxCandidateSearch|WindowStats)(Serial)?$' \
    -benchtime=1x ./internal/core > /dev/null

echo "== traced quickstart vs committed obs goldens"
# The same fixed-seed pipeline the TestObsGoldenDeterminism fixture runs,
# but through the real binaries: encode -> stream -> infer, with tracing
# on. Byte-identity against testdata/obs/ proves the CLI wiring, the JSON
# round-trips, and the obs determinism contract end to end. Regenerate the
# goldens with `go test -run TestObsGoldenDeterminism -update .` after an
# intended change.
obstmp=$(mktemp -d)
trap 'rm -rf "$obstmp"' EXIT
go run ./cmd/csi-encode -pasr 1.5 -duration 300 -audio -seed 7 -name golden -o "$obstmp/man.json" > /dev/null
go run ./cmd/csi-run -manifest "$obstmp/man.json" -design SH -bandwidth 4 -duration 90 -seed 7 \
    -o "$obstmp/run.json" -trace-out "$obstmp/run.trace.json" -metrics "$obstmp/run.metrics.txt" > /dev/null
cmp "$obstmp/run.trace.json" testdata/obs/session.trace.json
cmp "$obstmp/run.metrics.txt" testdata/obs/session.metrics.txt
go run ./cmd/csi-analyze -manifest "$obstmp/man.json" -run "$obstmp/run.json" \
    -trace-out "$obstmp/infer.trace.jsonl" -metrics "$obstmp/infer.metrics.txt" > /dev/null
cmp "$obstmp/infer.trace.jsonl" testdata/obs/infer.trace.jsonl
cmp "$obstmp/infer.metrics.txt" testdata/obs/infer.metrics.txt
# The JSONL event log must render as a timeline without error.
go run ./cmd/csi-trace -timeline "$obstmp/infer.trace.jsonl" > /dev/null

echo "== live ops plane smoke (-serve)"
# csi-paper serves /metrics, /statusz, /healthz etc. while the timing
# experiment runs; livesmoke.go validates the Prometheus exposition and the
# status document against a live process. Then the traced quickstart reruns
# WITH -serve and must stay byte-identical to the committed goldens: the ops
# plane only reads snapshots of the application registry, so serving can
# never perturb a deterministic export.
go build -o "$obstmp/csi-paper" ./cmd/csi-paper
rm -f "$obstmp/serve.addr"
"$obstmp/csi-paper" -scale quick -serve 127.0.0.1:0 -serve-addr-file "$obstmp/serve.addr" timing \
    > /dev/null 2>&1 &
paper_pid=$!
i=0
while [ ! -s "$obstmp/serve.addr" ] && [ "$i" -lt 40 ]; do sleep 0.25; i=$((i+1)); done
go run scripts/livesmoke.go "$(cat "$obstmp/serve.addr")"
wait "$paper_pid"
go run ./cmd/csi-run -manifest "$obstmp/man.json" -design SH -bandwidth 4 -duration 90 -seed 7 \
    -serve 127.0.0.1:0 -o "$obstmp/run2.json" \
    -trace-out "$obstmp/run2.trace.json" -metrics "$obstmp/run2.metrics.txt" > /dev/null 2>&1
cmp "$obstmp/run2.json" "$obstmp/run.json"
cmp "$obstmp/run2.trace.json" testdata/obs/session.trace.json
cmp "$obstmp/run2.metrics.txt" testdata/obs/session.metrics.txt
go run ./cmd/csi-analyze -manifest "$obstmp/man.json" -run "$obstmp/run.json" \
    -serve 127.0.0.1:0 \
    -trace-out "$obstmp/infer2.trace.jsonl" -metrics "$obstmp/infer2.metrics.txt" > /dev/null 2>&1
cmp "$obstmp/infer2.trace.jsonl" testdata/obs/infer.trace.jsonl
cmp "$obstmp/infer2.metrics.txt" testdata/obs/infer.metrics.txt

echo "== golden byte-identity with the process half-cache enabled"
# The inference must not change when the process-wide half-enumeration
# cache (DESIGN.md §11) is switched on: rerun the traced quickstart
# analysis with -half-cache-mb and require byte-identity against the same
# committed goldens. (The SQ warm-vs-cold-vs-disabled contract — identical
# candidates, truncation points and accuracy ranges across sessions
# sharing one cache — is pinned by the TestInferHalfCache* and
# TestHalfCache* tests, which ran under -race above.)
go run ./cmd/csi-analyze -manifest "$obstmp/man.json" -run "$obstmp/run.json" \
    -half-cache-mb 64 \
    -trace-out "$obstmp/infer3.trace.jsonl" -metrics "$obstmp/infer3.metrics.txt" > /dev/null
cmp "$obstmp/infer3.trace.jsonl" testdata/obs/infer.trace.jsonl
cmp "$obstmp/infer3.metrics.txt" testdata/obs/infer.metrics.txt

echo "== repository benchmark tests (csibench)"
# csibench is a nested module (not covered by go test ./... above): tiny
# runs of every workload must pass their output checks and print exactly
# BENCHMARK.json's metrics, so the benchmark cannot rot without failing the
# gate.
(cd csibench && go test ./... > /dev/null)

echo "== capture decoder fuzz smoke"
# A few seconds of coverage-guided fuzzing over each run decoder. The static
# seed corpora under internal/capture/testdata/fuzz/ always replay as part of
# `go test`; this smoke additionally exercises the mutation engine so a
# decoder panic cannot land without tripping the gate.
go test -run='^$' -fuzz='^FuzzReadJSON$' -fuzztime=5s ./internal/capture > /dev/null
go test -run='^$' -fuzz='^FuzzReadBinary$' -fuzztime=5s ./internal/capture > /dev/null

echo "== fault spec parser fuzz smoke"
# Same treatment for the -faults flag grammar: the seeded corpus replays in
# go test; the smoke exercises the mutation engine against the parser's
# no-panic / finite-values / canonical-roundtrip contract.
go test -run='^$' -fuzz='^FuzzParseSpec$' -fuzztime=5s ./internal/faults > /dev/null

echo "== fault injection byte determinism vs committed goldens"
# Same seed + same impairment spec must give byte-identical impaired runs
# through the real binary, and the degraded inference over an impaired
# capture must match the committed goldens byte for byte (regenerate with
# `go test -run TestFaultGoldenDeterminism -update .`).
faultspec="loss=0.01,dup=0.005,cross=1,seed=11"
go run ./cmd/csi-run -manifest "$obstmp/man.json" -design SH -bandwidth 4 -duration 90 -seed 7 \
    -faults "$faultspec" -o "$obstmp/fault1.json" > /dev/null 2>&1
go run ./cmd/csi-run -manifest "$obstmp/man.json" -design SH -bandwidth 4 -duration 90 -seed 7 \
    -faults "$faultspec" -o "$obstmp/fault2.json" > /dev/null 2>&1
cmp "$obstmp/fault1.json" "$obstmp/fault2.json"
go run ./cmd/csi-analyze -manifest "$obstmp/man.json" -run "$obstmp/run.json" -faults "$faultspec" \
    -trace-out "$obstmp/fault.trace.jsonl" -metrics "$obstmp/fault.metrics.txt" > /dev/null
cmp "$obstmp/fault.trace.jsonl" testdata/obs/fault.infer.trace.jsonl
cmp "$obstmp/fault.metrics.txt" testdata/obs/fault.infer.metrics.txt

echo "== streaming monitor replay byte-identity"
# The daemon's replay mode must reproduce the offline batch pipeline byte
# for byte over the same frame stream (DESIGN.md §12): pack two recorded
# runs (clean + impaired) into one interleaved recording, run it through
# the incremental monitor (provisional solves every 500 packets) and
# through the batch reference, and compare outputs bit for bit.
go run ./cmd/csi-monitord -pack -o "$obstmp/frames.jsonl" "$obstmp/run.json" "$obstmp/fault1.json"
go run ./cmd/csi-monitord -manifest "$obstmp/man.json" -resolve-every 500 \
    -replay "$obstmp/frames.jsonl" -o "$obstmp/replay.jsonl"
go run ./cmd/csi-monitord -manifest "$obstmp/man.json" \
    -batch "$obstmp/frames.jsonl" -o "$obstmp/batch.jsonl"
cmp "$obstmp/replay.jsonl" "$obstmp/batch.jsonl"

echo "== streaming monitor eviction smoke (tiny flow table)"
# With a one-slot flow table the second flow's arrival evicts the first to
# a partial result carrying the structured flow_evicted warning — the
# robustness envelope degrades, never crashes.
go run ./cmd/csi-monitord -manifest "$obstmp/man.json" -max-flows 1 \
    -replay "$obstmp/frames.jsonl" -o "$obstmp/evict.jsonl"
grep -q 'flow_evicted' "$obstmp/evict.jsonl"

echo "== crash-recovery matrix (kill -> recover -> byte-identical)"
# Durability gate (DESIGN.md §13): each named crashpoint in
# internal/stream/crashpoint marks a durability boundary; killing the
# daemon there (CSI_CRASHPOINT, exit 86) and restarting against the same
# -state-dir must reproduce the uninterrupted replay byte for byte. First
# the baseline: a durable uninterrupted run must itself match the
# non-durable replay — -state-dir can never perturb output. Under -quick
# only the two highest-value points run (a mid-stream WAL append and the
# durable-checkpoint boundary); the full matrix covers all eight.
go build -o "$obstmp/csi-monitord" ./cmd/csi-monitord
n=$(wc -l < "$obstmp/frames.jsonl")
"$obstmp/csi-monitord" -manifest "$obstmp/man.json" -resolve-every 500 \
    -state-dir "$obstmp/durable-clean" \
    -replay "$obstmp/frames.jsonl" -o "$obstmp/durable.jsonl" 2> /dev/null
cmp "$obstmp/durable.jsonl" "$obstmp/replay.jsonl"
crashpoints="wal.pre_append@$((n / 3)) wal.post_append@$((n / 2)) checkpoint.pre_append checkpoint.post_append checkpoint.post_sync gc.post_remove commit.pre_emit drain.pre_checkpoint"
if [ "$QUICK" = 1 ]; then
    crashpoints="wal.post_append@$((n / 2)) checkpoint.post_sync"
fi
for pt in $crashpoints; do
    sdir="$obstmp/crash-$(echo "$pt" | tr '.@' '--')"
    rc=0
    CSI_CRASHPOINT="$pt" "$obstmp/csi-monitord" -manifest "$obstmp/man.json" -resolve-every 500 \
        -state-dir "$sdir" \
        -replay "$obstmp/frames.jsonl" -o "$sdir.out" > /dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 86 ]; then
        echo "crashpoint $pt: expected exit 86 from the armed run, got $rc" >&2
        exit 1
    fi
    "$obstmp/csi-monitord" -manifest "$obstmp/man.json" -resolve-every 500 \
        -state-dir "$sdir" \
        -replay "$obstmp/frames.jsonl" -o "$sdir.out" 2> /dev/null
    cmp "$sdir.out" "$obstmp/replay.jsonl"
done

echo "== WAL record salvage fuzz smoke"
# The WAL scanner against arbitrary segment bytes: salvage must never
# panic, never misclassify a torn tail as corruption, and whatever it
# keeps must re-encode to exactly the valid prefix it reported. Seeds
# mirror the crash matrix's real damage shapes (minimization capped).
go test -run='^$' -fuzz='^FuzzWALRecord$' -fuzztime=5s -fuzzminimizetime=10s \
    ./internal/stream > /dev/null

echo "== stream ingest fuzz smoke"
# The frame decoder and the monitor's ingest/evict/solve machinery under a
# deliberately tiny budget: truncated packets, interleaved flows,
# out-of-order timestamps and mid-handshake eviction must never panic. The
# static corpus under internal/stream/testdata/fuzz/ replays in go test;
# the smoke exercises the mutation engine (minimization capped so a new
# interesting input cannot stall the gate).
go test -run='^$' -fuzz='^FuzzStreamIngest$' -fuzztime=5s -fuzzminimizetime=10s \
    ./internal/stream > /dev/null

echo "== bounded inference smoke (tiny work budget)"
# A one-step work budget must truncate the inference into a *partial*
# result — exit 0, a structured deadline_exceeded warning on stdout —
# never a hard error (DESIGN.md §10). Uses the quickstart run from above.
go run ./cmd/csi-analyze -manifest "$obstmp/man.json" -run "$obstmp/run.json" \
    -work-budget 1 > "$obstmp/budget.out"
grep -q 'deadline_exceeded' "$obstmp/budget.out"

echo "== degradation sweep smoke"
# One tiny sweep (1 video x 1 trace, clean + one loss level) end to end; the
# full curve is `csi-paper faults`.
go test -run='^TestFaultSweepSmoke$' -count=1 ./internal/experiments > /dev/null

echo "check.sh: all gates passed"

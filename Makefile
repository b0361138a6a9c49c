# Developer entry points. `make check` is the single pre-merge gate.

.PHONY: check build test vet race bench

check:
	./scripts/check.sh

build:
	go build ./...

test:
	go test ./...

vet:
	go vet ./...
	go run ./cmd/csi-vet -strict-ignores ./...

race:
	go test -race ./...

# The repository benchmark (csibench/, declared in BENCHMARK.json): every
# workload end to end, one process each, as a table of metrics.
bench:
	python3 csibench/report.py

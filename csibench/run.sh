#!/usr/bin/env bash
# Builds the csibench binary from the checkout's sources and runs it with
# the given arguments. Run from the repository root:
#
#   bash csibench/run.sh --workload infer-sh-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache) stays under
# .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd "$here" && go build -o "$build/csibench" .)
exec "$build/csibench" "$@"

#!/usr/bin/env bash
# Builds the layered benchmark from source and runs it. Run from the
# root of the repository:
#
#   bash perfbench/run.sh --workload distribute --seed 1 --seconds 20 --trace 0
#
# Every build and run artefact (Go build cache, temporary files, the
# binary, the Chrome trace of a traced run) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/go-path" "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" --out-dir "$build" "$@"

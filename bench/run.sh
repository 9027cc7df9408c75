#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from source and
# runs it with the arguments given.
#
#   bash bench/run.sh --workload kernel_table1 --seed 1 --seconds 8 --trace 0
#
# Run from the root of a checkout. Everything the build and the run write
# stays inside the checkout: the Go build cache and the binary under
# .bench_build/, results and scratch state under bench/results/.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

# HOME too: the go command keeps its telemetry counters under the user's
# configuration directory.
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" TMPDIR="$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOENV=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off

# go build is a no-op when nothing changed, so every run pays it.
go build -C "$here" -o "$build/sbst-bench" . >&2
exec "$build/sbst-bench" -out "$here/results" "$@"

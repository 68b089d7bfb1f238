#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument goes to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload wire_steady --seed 1 --seconds 5 --trace 0
#
# The Go build cache and scratch space, the binary and durable_churn's
# write-ahead logs all live under .bench_build in the current directory;
# nothing is fetched.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=

(cd "$bench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --dir "$out" "$@"

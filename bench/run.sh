#!/usr/bin/env bash
# Builds megbench from source and runs it with the given arguments. Run
# it from the repository root:
#
#   bash bench/run.sh --workload batch-cold --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build and module caches, the binary,
# the result log and traces.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd bench && go build -o "$out/megbench" ./megbench)
exec "$out/megbench" "$@"

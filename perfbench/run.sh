#!/usr/bin/env bash
# Builds onionctl, onionserve and the benchmark from the checkout in the
# current directory, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload topn-deep --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it writes (Go build cache,
# binaries, corpora, data directories, traces) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [ ! -f go.mod ] || [ ! -d cmd/onionctl ] || [ ! -d cmd/onionserve ]; then
	echo "run.sh: run from the repository root (no go.mod, cmd/onionctl or cmd/onionserve here)" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/config/go/telemetry" "$out/tmp"
# With telemetry on, every go command forks a detached sidecar process
# that outlives it; switch it off so the build leaves nothing running.
echo off >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= \
	XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"

go build -o "$out/bin/" ./cmd/onionctl ./cmd/onionserve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --bin "$out/bin" --work "$out" "$@"

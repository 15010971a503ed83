#!/usr/bin/env bash
# Builds the rilperf benchmark from source and runs one workload.
# Run from the repository root:
#
#   bash rilperf/run.sh --workload attack-c7552 --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the repository: the Go build cache, the binary and the work files.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f rilperf/go.mod ]; then
    echo "rilperf: run from the repository root; the repo's sources are not here" >&2
    exit 2
fi
out="$PWD/.bench_build/rilperf"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its user settings and telemetry counters under
# the user config directory; point that inside the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd rilperf && go build -o "$out/rilperf" .)
exec "$out/rilperf" --work-dir "$out/work" "$@"

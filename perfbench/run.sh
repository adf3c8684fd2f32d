#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in,
# then runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload sim-fleet --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the Go tool's own config and
# telemetry files stay under .bench_build/ in the checkout. Without the
# repository's sources next to perfbench/ the build fails and the script
# exits non-zero before printing a result.
set -euo pipefail
root=$(pwd -P)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
	GOFLAGS=-buildvcs=false
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
sha=unknown
if top=$(git rev-parse --show-toplevel 2>/dev/null) && [ "$top" = "$root" ]; then
	sha=$(git rev-parse HEAD)
fi
PERFBENCH_GIT_SHA=$sha exec "$build/perfbench" "$@"

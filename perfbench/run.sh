#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it with the given arguments:
#
#   bash perfbench/run.sh --workload sim-table2 --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and every temporary file stay under
# .bench_build/ in the current directory, which must be the repository root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off \
	GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

#!/usr/bin/env bash
# Builds hdivexplorerd and the benchmark runner from this checkout, then
# runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-warm --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .perfbench/ in the
# checkout: the Go build cache, the binaries, per-run working files and
# the result artifacts. Build output goes to stderr, so the last line of
# stdout is the runner's JSON result.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/hdivexplorerd" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (need go.mod, cmd/hdivexplorerd and perfbench/)" >&2
	exit 2
fi

out="$root/.perfbench"
mkdir -p "$out/bin" "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS= CGO_ENABLED=0

go build -o "$out/bin/hdivexplorerd" ./cmd/hdivexplorerd >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" "$@"

#!/usr/bin/env bash
# run.sh builds the serving benchmark from source and runs it, passing
# its arguments through. Run it from anywhere inside a checkout:
#
#	bash servebench/run.sh --workload warm --seed 1 --seconds 35 --trace 0
#
# The Go build cache, temporary files, the go command's configuration
# and telemetry directory (XDG_CONFIG_HOME) and the binary stay under
# .bench_build/servebench in the checkout, so a run writes nothing
# outside it and needs no network.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build/servebench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go build -o "$out/servebench" ./servebench
exec "$out/servebench" "$@"

#!/usr/bin/env bash
# Builds the benchmark harness from the checkout's sources and runs it.
#
#   bash dbtbench/run.sh --workload fig16|traced|serve --seed N --seconds S --trace 0|1
#
# Run from the checkout root. Everything the build and the run write (Go
# build cache, temp files, the harness binary, span dumps, the serve
# workload's artifact store) stays under .bench_build/ in the checkout.
# Without the repository's Go sources next to dbtbench/ the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local

if ! (cd "$root/dbtbench" && go build -o "$out/dbtbench" .) >&2; then
	echo "dbtbench: build failed (the benchmark needs the repository sources)" >&2
	exit 1
fi
cd "$root"
exec "$out/dbtbench" --out "$out" "$@"

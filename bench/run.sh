#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build at the checkout root
# (build cache included, so nothing is written outside the checkout) and
# runs it from that root with the arguments given.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$out/punobench" .) >&2
cd "$root"
exec "$out/punobench" "$@"

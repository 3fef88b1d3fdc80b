#!/usr/bin/env bash
# Builds the fodperf benchmark from the checkout it sits in and runs it.
# Run from the repository root:
#
#   bash fodperf/run.sh --workload warm-read --seed 1 --seconds 12 --trace 0
#
# Every build product and cache stays under .bench_build/ in the current
# directory. Without the repository around fodperf/ the build fails and
# the script exits non-zero before anything is measured.
set -euo pipefail

root="$PWD"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOTELEMETRY=off
export GOPROXY=off GOSUMDB=off GOENV=off

(cd "$root/fodperf" && go build -o "$out/fodperf" .) >&2
exec "$out/fodperf" -out "$out" "$@"

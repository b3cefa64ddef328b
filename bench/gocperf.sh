#!/usr/bin/env bash
# gocperf.sh — build gocperf from this checkout and run it once.
#
# Run from the repository root; every argument goes to gocperf:
#
#   bash bench/gocperf.sh --workload eq-cold --seed 1 --seconds 15 --trace 0
#
# The Go build cache, temporary files, the binary and the run's scratch
# data all live under .bench_build/ in the current directory, so nothing
# outside the checkout is written. The benchmark is its own module that
# builds against the repository through a relative replace, so it fails to
# build (and exits non-zero) anywhere but inside a full checkout.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off GOTOOLCHAIN=local

(cd bench && go build -o "$out/gocperf" ./cmd/gocperf)
exec "$out/gocperf" -workdir "$out/work" "$@"

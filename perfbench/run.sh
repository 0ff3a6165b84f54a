#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload batch-pipeline --seed 1 --seconds 50 --trace 0
#
# The binary, the Go build cache, the go command's temporary and config
# files and the run's journals all stay under .bench_build/ in the
# checkout. Without the repository's own module next to perfbench/ the
# build fails and the script exits non-zero.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
(
	cd "$root/perfbench"
	export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
		HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
		GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly GOTELEMETRY=off
	go build -o "$build/perfbench" .
)
exec "$build/perfbench" "$@"

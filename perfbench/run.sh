#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it. Run from the checkout root:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh compare OLD.jsonl NEW.jsonl
#
# Everything the build and the runs write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, CPU profiles and spans.
set -euo pipefail
root=$(pwd)
work="$root/.bench_build"
mkdir -p "$work/home" "$work/tmp"
export HOME="$work/home" XDG_CONFIG_HOME="$work/home/.config" XDG_CACHE_HOME="$work/home/.cache"
export GOCACHE="$work/gocache" GOPATH="$work/gopath" GOTMPDIR="$work/tmp" TMPDIR="$work/tmp"
export PPROF_TMPDIR="$work/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
export PERFBENCH_WORKDIR="$work"
(cd "$root/perfbench" && go build -o "$work/perfbench" .)
exec "$work/perfbench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload kernel-chan --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build at the root
# of the checkout: the Go build cache, the binary, temporary files (the Unix
# sockets of kernel-unix among them) and the spans of a traced run.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
# A relative TMPDIR keeps Unix socket paths short whatever the checkout path.
TMPDIR=.bench_build/tmp exec "$out/perfbench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. Build outputs,
# the Go build cache and the warehouses live under .bench_build/ in
# the current directory, which must be the repository root.
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" --dir "$out/perfbench-work" "$@"

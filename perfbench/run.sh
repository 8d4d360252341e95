#!/usr/bin/env bash
# run.sh — build the benchmark from source and run one workload.
#
# Usage (from the repository root):
#
#   bash perfbench/run.sh --workload table3-cold --seed 1 --seconds 10 --trace 0
#
# Every file the build writes (compiler cache, module cache, tool
# configuration, the binary) stays under .bench_build/ at the repository
# root, so the benchmark reads and writes nothing outside the checkout.
# See perfbench/README.md for the workloads and metrics.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export HOME="$out/home"
export GOTOOLCHAIN=local
export GOWORK=off
mkdir -p "$GOTMPDIR" "$XDG_CONFIG_HOME" "$HOME"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -work "$out/work" "$@"

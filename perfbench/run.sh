#!/usr/bin/env bash
# Builds perfbench from source and runs it: the repository benchmark.
#
#   bash perfbench/run.sh --workload corridor-1024 --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, span and profile artifacts, serve state) goes
# under $CARGO_TARGET_DIR (default .bench_build), so nothing is written
# outside the checkout. See perfbench/README.md.
set -euo pipefail

bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$(pwd)/$out" ;;
esac
mkdir -p "$out/tmp" "$out/config"

# A hermetic toolchain setup: no network, no user configuration, no
# writes to the home directory.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOWORK=off
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

go -C "$bench" build -o "$out/perfbench" .
exec "$out/perfbench" --out "$out" "$@"

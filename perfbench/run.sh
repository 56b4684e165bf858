#!/usr/bin/env bash
# Builds the benchmark harness from this checkout and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Every build and cache artifact stays under
# .bench_build/ in the current directory, and the Go toolchain is kept
# offline and away from the user's home directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/home" "$out/gocache" "$out/gopath" "$out/tmp"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export GOENV=off
export GOWORK=off
export GOTELEMETRY=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod

# Build output goes to stderr so the harness's last stdout line stays the
# result object.
go build -C "$root/perfbench" -o "$out/perfbench" . 1>&2
exec "$out/perfbench" "$@"

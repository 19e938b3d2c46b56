#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build and runs it with the
# given flags. Run from the repository root:
#
#   bash bench/run.sh --workload btree-silo --seed 1 --seconds 24 --trace 0
#
# Everything the build writes (binary, Go build cache, the go command's
# telemetry counters) stays under .bench_build in the current directory.
# The build needs the repository the bench module replaces with "..", so
# in a directory holding only the bench files it fails, and the script
# exits non-zero without a result.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0
go build -C bench -o "$out/silo-bench" .
exec "$out/silo-bench" "$@"

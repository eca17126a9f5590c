#!/usr/bin/env bash
# Builds the benchmark and the effpid server from the checkout it is run
# in, then runs one workload. Run it from the repository root:
#
#   bash effbench/run.sh --workload fig9-concrete --seed 1 --seconds 25 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off
cd "$root/effbench"
go build -o "$out/effbench" .
go build -o "$out/effpid" effpi/cmd/effpid
cd "$root"
exec "$out/effbench" --effpid "$out/effpid" "$@"

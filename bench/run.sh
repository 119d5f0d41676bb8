#!/usr/bin/env bash
# Builds the harness from source and runs it from the repository root:
#
#   bash bench/run.sh --workload query_novel --seed 1 --seconds 18 --trace 0
#
# Everything the build and the run leave behind (Go build cache, binaries,
# temp files, span files) goes under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/bench/go.mod" ]; then
	echo "run.sh: run me from the repository root (bash bench/run.sh ...)" >&2
	exit 2
fi
export GOCACHE="$root/.bench_build/gocache"
mkdir -p "$root/.bench_build/bin"
go build -C "$root/bench" -o "$root/.bench_build/bin/afjbench" .
exec "$root/.bench_build/bin/afjbench" "$@"

#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json "command"). Run it from
# the repository root:
#
#   bash bench/run.sh --workload serve_hit --seed 1 --seconds 12 --trace 0
#
# It builds bench/cmd/pi-bench (a package of module repro) and hands it
# the arguments; pi-bench then builds pi, pi-serve and pi-router from
# the checkout's source. Nothing is read or written outside the
# checkout: the go build cache, go's temporary files, the binaries and
# every run's state live under .bench_build/.
set -euo pipefail

root=$PWD
if [[ ! -f "$root/go.mod" || ! -d "$root/bench/cmd/pi-bench" ]]; then
  echo "bench/run.sh: run me from the repository root (no go.mod / bench here)" >&2
  exit 1
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local

go build -o "$build/bin/pi-bench" ./bench/cmd/pi-bench
exec "$build/bin/pi-bench" "$@"

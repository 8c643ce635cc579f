#!/usr/bin/env bash
# run.sh — build popprotod and popbench from this checkout, then run
# popbench with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload engine-count --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh -seed 7 -runs 3 -out bench/out       # every workload
#   bash bench/run.sh -compare A/results.json B/results.json
#
# Everything the build and the runs write stays under the build directory
# ($CARGO_TARGET_DIR if set, else .bench_build): the Go build cache, the
# two binaries, the result stores and the default output directory.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/popprotod ] || [ ! -f bench/go.mod ]; then
  echo "run.sh: run from the repository root (go.mod, cmd/popprotod and bench/ must be present)" >&2
  exit 2
fi

build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build="$PWD/$build" ;; esac
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/go-build"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -o "$build/popprotod" ./cmd/popprotod
go -C bench build -o "$build/popbench" ./popbench

exec "$build/popbench" -popprotod "$build/popprotod" -work "$build/popbench-work" "$@"

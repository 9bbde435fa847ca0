#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it
# with the given flags, from the checkout root:
#
#   bash bench/run.sh --workload cold_single --seed 1 --seconds 30 --trace 0
#
# Every build product (Go build cache, temporaries, the binary) stays under
# .bench_build/ in the checkout. The build fails, and so does this script,
# when the repository's sources are not next to bench/.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

(cd "$root/bench" && go build -o "$out/neurovec-bench" .)
cd "$root"
exec "$out/neurovec-bench" "$@"

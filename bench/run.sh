#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# checkout. Everything it writes — Go's build cache, the binary, DataDirs
# — stays under .bench_build/ in the checkout.
#
#   bash bench/run.sh --workload ingest-mem --seed 1 --seconds 15 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOPROXY=off
commit=unknown
if [ -e "$root/.git" ]; then
  commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
fi
(cd "$here" && go build -buildvcs=false -ldflags "-X main.commitID=$commit" -o "$build/bench" .)
cd "$root"
exec "$build/bench" -workdir "$build/work" "$@"

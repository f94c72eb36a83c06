#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in, then
# runs it. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload fig3 --seed 1 --seconds 30 --trace 0
#
# Every build and run artifact (Go build cache, binary, temporary stores,
# trace files) stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOENV=off GOFLAGS= CGO_ENABLED=0
unset HOSTNET_AUDIT
(cd "$root/perfbench" && go build -buildvcs=false -trimpath -o "$build/perfbench" .) >&2
exec "$build/perfbench" -root "$root" "$@"

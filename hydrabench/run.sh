#!/usr/bin/env bash
# Builds the hydra server binary and the benchmark program from the checkout
# this is run in, then runs it with the given arguments:
#
#   bash hydrabench/run.sh --workload serve_hot --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it builds, caches or writes
# stays under .bench_build/ in that root (Go build cache included), and it
# never reaches the network: the benchmark module depends only on the
# repository itself.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOPATH="$out/home/go"
export GOMODCACHE="$out/home/go/pkg/mod"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOFLAGS=
export GOENV=off

go build -o "$out/hydra" ./cmd/hydra
(cd "$root/hydrabench" && go build -o "$out/hydrabench" .)
exec "$out/hydrabench" -hydra "$out/hydra" -workdir "$out" "$@"

#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash e2ebench/run.sh --workload crowd-stream --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (compiler cache, binary) stays under
# .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -f e2ebench/go.mod ]]; then
	echo "e2ebench: run from the repository root (go.mod and e2ebench/go.mod must exist)" >&2
	exit 2
fi

out="$PWD/.bench_build/e2ebench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd e2ebench && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build and runs it with the
# given arguments, from the root of the checkout. The build cache, config
# and module directories stay inside .bench_build.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
(
	cd "$root/perfbench"
	GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOPROXY=off GOENV=off GOFLAGS= \
		go build -o "$out/perfbench" .
)
cd "$root"
exec "$out/perfbench" "$@"

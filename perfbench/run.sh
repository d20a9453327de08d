#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from
# the checkout root; every argument is passed through:
#
#   bash perfbench/run.sh --workload tune-fit --seed 1 --seconds 20 --trace 0
#
# The Go build cache, module cache, temporary files and the binary all
# live under .bench_build, so a run writes nothing outside the checkout.
# The build uses the local toolchain and never the network: the module
# has no dependency outside the repository.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/modcache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/modcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"

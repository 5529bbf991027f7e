#!/usr/bin/env bash
# Builds elmored and the benchmark harness from the source tree the
# command runs in, then runs the harness with the given arguments:
#
#   bash perfbench/run.sh --workload batch-corners --seed 1 --seconds 15 --trace 0
#
# Run it from the root of the repository. Build outputs, the Go build
# cache, scratch files and span traces all stay below $CARGO_TARGET_DIR
# (default .bench_build), inside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/elmored ]]; then
	echo "perfbench/run.sh: no elmore source tree in $PWD (go.mod, cmd/elmored)" >&2
	exit 1
fi

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out"

# The toolchain's caches and config go below $out; no network. Telemetry
# is switched off in that fresh config: otherwise the go command starts a
# detached (setsid) upload/crash-monitor child that outlives this script.
mkdir -p "$out/config/go/telemetry"
echo off >"$out/config/go/telemetry/mode"
build_env=(
	GOCACHE="$out/gocache"
	GOMODCACHE="$out/gomodcache"
	XDG_CONFIG_HOME="$out/config"
	GOTOOLCHAIN=local
	GOPROXY=off
	GOENV=off
	GOFLAGS=
)
env "${build_env[@]}" go build -o "$out/elmored" ./cmd/elmored >&2
(cd perfbench && env "${build_env[@]}" go build -o "$out/perfbench" .) >&2

exec "$out/perfbench" -bin "$out" "$@"

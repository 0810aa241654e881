#!/usr/bin/env bash
# Builds the benchmark and the mpd daemon from the sources of the checkout
# it is run in, then runs the benchmark with the given arguments. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash perfbench/run.sh --set 10 --seconds 10
#
# Everything it writes stays under .bench_build/perfbench in the checkout,
# the Go build cache included.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/mpd" ]; then
	echo "run.sh: no multiprefix module with cmd/mpd in $root; run it from the repository root" >&2
	exit 1
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config/go/telemetry" "$out/runs"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# With telemetry on (the default is local), the go command forks a detached
# sidecar that outlives it; turning it off keeps every process this script
# starts a child that ends before it does.
echo off >"$out/config/go/telemetry/mode"
# The program runs as shipped: default worker count and Auto calibration.
unset GOMAXPROCS MP_AUTOCAL

go build -o "$out/mpd" ./cmd/mpd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --mpd "$out/mpd" --out "$out/runs" "$@"

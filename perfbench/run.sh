#!/usr/bin/env bash
# Builds the benchmark and the tsyncd server from this checkout's sources,
# then runs the benchmark with the arguments given. Run it from the root
# of the checkout:
#
#   bash perfbench/run.sh --workload ring-clc --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and temporary file stays under .bench_build/
# in the checkout, and the go command is kept off the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" . && go build -o "$out/tsyncd" tsync/cmd/tsyncd)
exec "$out/perfbench" "$@"

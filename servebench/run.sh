#!/usr/bin/env bash
# Builds servebench from this checkout and runs it with the given
# arguments. Run from the repository root:
#
#   bash servebench/run.sh --workload point-read --seed 1 --seconds 36 --trace 0
#
# Build outputs, the Go build cache, the compiler's temporary files and
# span files go under $CARGO_TARGET_DIR (default .bench_build) inside
# the checkout. Go modules are never downloaded: the benchmark needs
# only the standard library and the adm module next to it.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config GOTMPDIR=$out/tmp \
	GOFLAGS=-mod=readonly GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOTELEMETRY=off
go -C servebench build -o "$out/servebench" .
exec "$out/servebench" --span-dir "$out" "$@"

#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs one workload. Run it from the repository root:
#
#   bash rffperf/run.sh --workload deep --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the go
# command's own config and telemetry, the binary) goes under
# $CARGO_TARGET_DIR, or .bench_build when unset.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$(pwd)/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/home"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=

(cd "$here" && go build -o "$out/rffperf" .)
exec "$out/rffperf" "$@"

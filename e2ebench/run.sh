#!/usr/bin/env bash
# Builds e2ebench from the source tree it sits in and runs it with the
# given arguments, e.g.
#
#   bash e2ebench/run.sh --workload oltp-point --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (the Go build cache and the binary) goes to
# .bench_build at the root of the tree. The run fails without printing a
# result when the repository's source is not next to this directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"

(cd "$here" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"

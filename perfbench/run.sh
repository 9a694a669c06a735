#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload paper-grid|fleet-cold \
#       --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ there: the Go build cache and temporary files, the
# binary, and the result stores of fleet-cold.
set -euo pipefail
root=$(pwd)
bench=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
# The build log goes to stderr; a failed build exits non-zero before
# anything is printed on stdout.
(cd "$bench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --work "$out/work" "$@"

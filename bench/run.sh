#!/bin/sh
# Builds pimperf from this checkout and runs it with the given flags, from
# the repository root:
#
#	bash bench/run.sh --workload suite-live --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and every scratch file stay under
# .bench_build/ at the repository root.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/bench" && go build -o "$build/pimperf" ./cmd/pimperf)
cd "$root"
exec "$build/pimperf" "$@"

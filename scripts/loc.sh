#!/bin/sh
# Prints the ROADMAP's design-size metric: non-test Go lines in the top-level
# files of the five core packages, one line per package, then their total.
#
#   scripts/loc.sh
set -eu

cd "$(dirname "$0")/.."

total=0
for dir in internal/device internal/cmdstream internal/streamopt internal/server pim; do
    n=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
    printf '%6d  %s\n' "$n" "$dir"
    total=$((total + n))
done
printf '%6d  total\n' "$total"

#!/bin/sh
# Prints the code-size metric of the element kernels: cmd/pimbench's binary
# size, its total text bytes, and the text bytes and symbol count of
# internal/kernels, from `go tool nm -size`.
#
#   scripts/textsize.sh [repo-dir]
#
# The binary is built into a temporary directory that is removed on exit.
# repo-dir defaults to the checkout holding this script.
set -eu

cd "${1:-$(dirname "$0")/..}"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/pimbench" ./cmd/pimbench
go tool nm -size "$tmp/pimbench" >"$tmp/nm"

printf '%10d  binary bytes\n' "$(wc -c <"$tmp/pimbench")"
awk '$3 == "T" || $3 == "t" { n += $2 } END { printf "%10d  text bytes\n", n }' "$tmp/nm"
awk '($3 == "T" || $3 == "t") && index($4, "pimeval/internal/kernels.") == 1 { n += $2; c++ }
    END { printf "%10d  internal/kernels text bytes in %d symbols\n", n, c }' "$tmp/nm"

#!/bin/sh
# Fails when any package other than internal/isa imports unsafe, in its
# package, in-package test or external test files. internal/isa holds the
# module's one unsafe view (byteView, Elems.Recast); everything else stays
# memory-safe Go.
#
#   scripts/unsafe.sh
set -eu

cd "$(dirname "$0")/.."

format='{{.ImportPath}}{{range .Imports}} {{.}}{{end}}{{range .TestImports}} {{.}}{{end}}{{range .XTestImports}} {{.}}{{end}}'
bad=$({ go list -f "$format" ./...; go -C bench list -f "$format" ./...; } |
    awk '$1 != "pimeval/internal/isa" { for (i = 2; i <= NF; i++) if ($i == "unsafe") { print $1; break } }')
if [ -n "$bad" ]; then
    echo "unsafe imported outside internal/isa:" >&2
    echo "$bad" >&2
    exit 1
fi
echo "unsafe is imported only by internal/isa"

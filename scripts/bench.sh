#!/bin/sh
# Benchmark runner: the pimperf harness (bench/, documented in
# bench/README.md). It builds pimperf from this checkout and passes every
# argument through, e.g.
#
#   scripts/bench.sh --workload replay-serial --seed 1 --seconds 10 --trace 0
#
# The micro-benchmarks behind the committed BENCH_*.json files run with the
# `go test -bench` commands EXPERIMENTS.md lists beside each table.
exec bash "$(dirname "$0")/../bench/run.sh" "$@"

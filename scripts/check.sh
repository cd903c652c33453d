#!/bin/sh
# Static-analysis gate: the checks CI runs before the test steps.
#
#   scripts/check.sh
#
# Runs go vet over the whole module, checks that only internal/isa imports
# unsafe (scripts/unsafe.sh), then runs staticcheck when the binary is
# available (CI installs it; offline development environments may not have
# it, so its absence is a warning rather than a failure).
set -eu

cd "$(dirname "$0")/.."

echo "==> go vet ./..."
go vet ./...

echo "==> unsafe stays in internal/isa"
sh scripts/unsafe.sh

if command -v staticcheck >/dev/null 2>&1; then
    echo "==> staticcheck ./..."
    staticcheck ./...
else
    echo "==> staticcheck not installed; skipping (CI runs it)"
fi

echo "==> benchmark harness tests (every workload at miniature scale)"
go -C bench test ./...

echo "==> optimizer differential battery (race)"
go test -race ./internal/streamopt/ ./internal/streamopt/difftest/

echo "==> pipelined-replay battery (race)"
go test -race -run 'TestPipelinedReplayBattery|TestReplayPipelined|TestReplayScopeErrors|TestPipelineSource|TestAsyncSink' ./benchmarks/suite/replaytest/ ./internal/cmdstream/

echo "==> server battery (race)"
go test -race ./internal/server/ ./internal/stats/ ./cmd/pimserved/ ./cmd/pimload/

echo "==> recovery battery (race, short)"
go test -race -short -run 'TestRecoveryBattery' ./benchmarks/suite/replaytest/
go test -race -run 'TestSnapshot|TestResume' ./internal/device/
go test -race ./internal/chaos/

echo "==> word-at-a-time kernels and the isa word view (race, checkptr)"
go test -race -run 'TestKernels|FuzzElementConversions' ./internal/kernels/ ./internal/isa/

echo "==> object storage width, recycling and fault bits (race)"
go test -race -run 'TestObjectStorage|TestFaultGolden|TestHostCopyConformance' ./internal/device/ ./internal/device/paralleltest/ ./pim/

echo "==> core package size (informational, see ROADMAP.md)"
sh scripts/loc.sh

echo "==> kernel code size (informational, see ROADMAP.md)"
sh scripts/textsize.sh

echo "OK"

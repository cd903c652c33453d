package pim

// This file surfaces the stream optimizer (internal/streamopt): recorded
// command streams can be rewritten into cheaper ones that replay to
// bit-identical data — same final object contents, same reduction results —
// with simulated latency and energy never higher than the original's
// (DESIGN.md §12).

import "pimeval/internal/streamopt"

// OptimizeConfig selects the optimizer passes (dead-code elimination,
// loop-invariant hoisting, locality scheduling, fusion). The zero value
// disables everything; AllPasses enables everything.
type OptimizeConfig = streamopt.Config

// OptimizeResult reports what the optimizer did: per-pass counters and the
// skip reason when a stream was declined (corrupting fault injection).
type OptimizeResult = streamopt.Result

// AllPasses returns an OptimizeConfig with every pass enabled.
func AllPasses() OptimizeConfig { return streamopt.All() }

// Optimize rewrites a recorded stream with every pass enabled. The input
// stream is never modified; the returned stream carries the applied pass
// names in its header (switching replay to by-ID allocation) and replays to
// bit-identical data at equal or lower simulated cost.
func Optimize(s *Stream) (*Stream, OptimizeResult, error) {
	return streamopt.Optimize(s, streamopt.All())
}

// OptimizeWith is Optimize under an explicit pass selection.
func OptimizeWith(s *Stream, cfg OptimizeConfig) (*Stream, OptimizeResult, error) {
	return streamopt.Optimize(s, cfg)
}

// OptimizeSource is OptimizeWith over a streaming source. Every enabled
// pass runs over one bounded window of records at a time, so the stream
// never materializes; work whose liveness or adjacency crosses a window
// boundary is left undone. The returned result is shared with the returned
// source and final once it has been drained.
func OptimizeSource(src StreamSource, cfg OptimizeConfig) (StreamSource, *OptimizeResult, error) {
	return streamopt.OptimizeSource(src, cfg)
}

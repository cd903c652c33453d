// Package streamopt is an optimizing pass pipeline over the command-stream
// IR (internal/cmdstream). It rewrites a recorded stream into a cheaper one
// that replays to bit-identical data: every live object's final contents and
// every reduction result are exactly those of the original stream, while the
// simulated latency and energy never increase (they drop whenever a pass
// finds work).
//
// Four passes run, each independently switchable:
//
//   - dead-code elimination: stores (copies, element-wise execs) whose result
//     is never observed are dropped, then alloc/free pairs of objects nothing
//     references are swept;
//   - hoisting: loop-invariant broadcast and scalar execs move out of
//     repeat.begin/repeat.end scopes, so they are charged once instead of
//     Repeat times;
//   - locality scheduling: provably independent records inside a scheduling
//     block reorder to follow def-use chains, bringing producers next to
//     their consumers (cost-neutral — the cost model is stateless — but it
//     feeds the fusion pass);
//   - fusion: adjacent element-wise pairs where the second record consumes
//     the first's destination collapse into one two-stage FormFused command,
//     eliminating the intermediate's write/read round on word-parallel
//     architectures.
//
// Correctness rests on a def-use analysis over object IDs (effects.go): the
// IR references whole objects, never aliased sub-ranges of different
// objects, so object identity is the complete aliasing story. The one
// partial-write case (copy.d2d.range) is modeled as use+def of its
// destination, which makes it a barrier for every pass.
package streamopt

import (
	"pimeval/internal/cmdstream"
)

// Config selects the passes Optimize runs. The zero value disables
// everything (Optimize returns an untouched copy); All enables everything.
type Config struct {
	DeadCode bool `json:"deadcode"`
	Hoist    bool `json:"hoist"`
	Schedule bool `json:"schedule"`
	Fuse     bool `json:"fuse"`
}

// All returns a Config with every pass enabled.
func All() Config {
	return Config{DeadCode: true, Hoist: true, Schedule: true, Fuse: true}
}

func (c Config) any() bool { return c.DeadCode || c.Hoist || c.Schedule || c.Fuse }

// names lists the enabled passes in pipeline order; it is what Optimize and
// OptimizeSource stamp into Header.Optimized.
func (c Config) names() []string {
	var n []string
	if c.DeadCode {
		n = append(n, "deadcode")
	}
	if c.Hoist {
		n = append(n, "hoist")
	}
	if c.Schedule {
		n = append(n, "schedule")
	}
	if c.Fuse {
		n = append(n, "fuse")
	}
	return n
}

// Result reports what the pipeline did.
type Result struct {
	// Eliminated counts records removed by dead-code elimination (dead
	// stores plus swept alloc/free pairs, including the cleanup run after
	// fusion).
	Eliminated int
	// Hoisted counts records moved out of repeat scopes.
	Hoisted int
	// Moved counts records the scheduler placed at a new position.
	Moved int
	// Fused counts record pairs collapsed into FormFused commands.
	Fused int
	// Skipped is non-empty when optimization was declined wholesale (the
	// stream records corrupting fault injection); the returned stream is an
	// unmodified copy.
	Skipped string
}

// Changed reports whether any pass modified the stream.
func (r Result) Changed() bool {
	return r.Eliminated+r.Hoisted+r.Moved+r.Fused > 0
}

// Optimize runs the enabled passes over s and returns a new stream; s is
// never modified. The whole stream is one unbounded window of the pass
// driver (run). The returned stream's header carries the enabled pass names
// in Optimized, switching replay to by-ID allocation.
//
// Streams recorded under corrupting fault injection are returned untouched
// with Result.Skipped set (see skipReason).
func Optimize(s *cmdstream.Stream, cfg Config) (*cmdstream.Stream, Result, error) {
	var res Result
	if err := s.Validate(); err != nil {
		return nil, res, err
	}
	out := &cmdstream.Stream{Header: s.Header}
	out.Records = append([]cmdstream.Record(nil), s.Records...)
	if !cfg.any() {
		return out, res, nil
	}
	if res.Skipped = skipReason(s.Header); res.Skipped != "" {
		return out, res, nil
	}
	out.Records = run(out.Records, cfg, &res)
	if res.Changed() {
		for i := range out.Records {
			out.Records[i].Seq = int64(i + 1)
		}
	}
	out.Header.Optimized = cfg.names()
	return out, res, nil
}

// skipReason returns why a stream with header h must not be optimized, or
// "" when it may be. Streams recorded under corrupting fault injection
// (transient flips, stuck bits, failed cores) are declined: injection is
// keyed by the per-scope write sequence, so eliding, reordering, or fusing
// writes would change which faults land where and break replay determinism.
// ECC-only configurations never alter data and stay fully optimizable.
func skipReason(h cmdstream.Header) string {
	if f := h.Faults; f != nil && (f.TransientBitRate > 0 || f.StuckBits > 0 || f.FailedCores > 0) {
		return "stream records corrupting fault injection (write-sequence keyed)"
	}
	return ""
}

// run is the pass driver: it applies the enabled passes to one window of
// records in pipeline order — deadcode, hoist, schedule, fuse, then (when
// both are enabled and fusion found work) a second deadcode sweep to collect
// the temporaries fusion orphans — and adds each pass's count to res. A
// window is the whole stream for Optimize and one bounded window for
// OptimizeSource. Every pass is sound on any window that closes outside a
// repeat scope: an object counts as live past the window's end, a
// scheduling block may always be split, and fusion never pairs records
// across the end.
func run(recs []cmdstream.Record, cfg Config, res *Result) []cmdstream.Record {
	var n int
	if cfg.DeadCode {
		recs, n = deadCode(recs)
		res.Eliminated += n
	}
	if cfg.Hoist {
		recs, n = hoist(recs)
		res.Hoisted += n
	}
	if cfg.Schedule {
		recs, n = schedule(recs)
		res.Moved += n
	}
	if cfg.Fuse {
		recs, n = fuse(recs)
		res.Fused += n
		if cfg.DeadCode && n > 0 {
			recs, n = deadCode(recs)
			res.Eliminated += n
		}
	}
	return recs
}

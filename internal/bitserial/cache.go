package bitserial

import (
	"sync"

	"pimeval/internal/isa"
)

// Memoizing compile cache for Build. Before it existed, every dispatched
// command recompiled its microprogram — thousands of micro-ops for a
// multiply or divide — both in the cost model and in every EvalElements
// cross-check. Programs are immutable once built (callers only read them),
// so one compilation per distinct (op, dt, materialized immediate) serves
// the whole process.

// buildKey identifies one compiled microprogram. The immediate participates
// only for the ops whose program depends on it: shifts (the amount selects
// which planes move) and broadcast (the value is baked into the SET ops).
// A shift amount is clamped to [0, dt.Bits()] first, as buildShift clamps
// it, so every out-of-range amount shares one entry and hostile amounts
// cannot grow the cache. A broadcast value is truncated to the type first,
// as buildBroadcast reads only its low dt.Bits() bits; the cost model, whose
// broadcast Counts do not depend on the value, compiles one fixed value per
// type, so only callers that evaluate broadcasts add entries.
type buildKey struct {
	op  isa.Op
	dt  isa.DataType
	imm int64
}

// buildResult carries the memoized outcome, including errors for ops that
// have no microprogram (reductions, copies) so they also resolve in one
// map hit.
type buildResult struct {
	p   *Program
	err error
}

var buildCache sync.Map // buildKey -> *buildResult

// BuildCached returns Build(op, dt, imm), memoized process-wide. The
// returned program is shared and must not be mutated. Concurrent first
// callers may race to compile the same key; the first stored result wins,
// and Build is deterministic, so every caller observes identical programs.
func BuildCached(op isa.Op, dt isa.DataType, imm int64) (*Program, error) {
	key := buildKey{op: op, dt: dt}
	switch op {
	case isa.OpShiftL, isa.OpShiftR:
		imm = min(max(imm, 0), int64(dt.Bits()))
		key.imm = imm
	case isa.OpBroadcast:
		imm = dt.Truncate(imm)
		key.imm = imm
	}
	if v, ok := buildCache.Load(key); ok {
		r := v.(*buildResult)
		return r.p, r.err
	}
	p, err := Build(op, dt, imm)
	v, _ := buildCache.LoadOrStore(key, &buildResult{p: p, err: err})
	r := v.(*buildResult)
	return r.p, r.err
}

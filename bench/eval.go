package bench

import (
	"fmt"
	"math/rand"
	"time"

	"pimeval/internal/bitserial"
	"pimeval/internal/isa"
	"pimeval/internal/kernels"
)

// evalWorkload's operation is one op x type pair: one wide and 250
// one-element EvalElements calls, each checked.
var evalWorkload = &Workload{
	Name: "microprogram-eval",
	Why:  "the bit-serial microprogram interpreter over 19 ops x 8 types, wide calls and one-element calls; the only workload that runs it",
	setup: func(o Options) (runner, error) {
		r := &evalRunner{wide: evalWide, narrow: evalNarrow}
		if o.Small {
			r.wide, r.narrow = 128, 4
		}
		rng := rand.New(rand.NewSource(o.Seed))
		for dt := isa.Int8; dt <= isa.UInt64; dt++ {
			r.operands[dt] = makeOperands(rng, dt, r.wide)
		}
		for op := isa.OpAdd; op <= isa.OpPopCount; op++ {
			for dt := isa.Int8; dt <= isa.UInt64; dt++ {
				p, err := bitserial.BuildCached(op, dt, evalShift)
				if err != nil {
					return nil, err
				}
				r.pairs = append(r.pairs, evalPair{op: op, dt: dt, prog: p})
			}
		}
		// Warm-up: one wide call per pair, checked.
		for _, p := range r.pairs {
			if err := r.call(p, 0, r.wide); err != nil {
				return nil, err
			}
		}
		return r, nil
	},
}

// Call shapes: wide calls span two 8192-lane interpreter batches (the
// pimasm -run shape), narrow calls evaluate one element at a time (the
// fuzz-target shape). Per pair and sweep: one wide call and evalNarrow
// narrow ones, so a sweep takes about two seconds and a run holds several.
const (
	evalWide   = 2 * bitserial.BatchWidth
	evalNarrow = 250
	evalShift  = 3 // shift amount
)

// operands are one element type's operand vectors: a, b, and a 0/1 mask
// for select.
type operands struct{ a, b, mask []int64 }

func makeOperands(rng *rand.Rand, dt isa.DataType, n int) operands {
	o := operands{a: make([]int64, n), b: make([]int64, n), mask: make([]int64, n)}
	for i := 0; i < n; i++ {
		o.a[i], o.b[i], o.mask[i] = dt.Truncate(rng.Int63()), dt.Truncate(rng.Int63()), rng.Int63()&1
	}
	return o
}

type evalPair struct {
	op   isa.Op
	dt   isa.DataType
	prog *bitserial.Program
}

type evalRunner struct {
	pairs        []evalPair
	operands     [isa.UInt64 + 1]operands
	wide, narrow int
}

func (r *evalRunner) close() {}

// args returns the pair's operand regions over elements [lo, hi), in the
// microprogram layout order.
func (r *evalRunner) args(p evalPair, lo, hi int) [][]int64 {
	o := r.operands[p.dt]
	switch p.op {
	case isa.OpNot, isa.OpAbs, isa.OpShiftL, isa.OpShiftR, isa.OpPopCount:
		return [][]int64{o.a[lo:hi]}
	case isa.OpSelect:
		return [][]int64{o.mask[lo:hi], o.a[lo:hi], o.b[lo:hi]}
	}
	return [][]int64{o.a[lo:hi], o.b[lo:hi]}
}

// reference computes the pair's outputs over [lo, hi) with the specialized
// element kernels the device dispatches.
func (r *evalRunner) reference(p evalPair, lo, hi int) []int64 {
	args := r.args(p, lo, hi)
	n := int64(hi - lo)
	dst := make([]int64, n)
	switch p.op {
	case isa.OpNot, isa.OpAbs, isa.OpPopCount:
		kernels.Unary(p.op, p.dt)(dst, args[0], 0, n)
	case isa.OpShiftL, isa.OpShiftR:
		kernels.Shift(p.op, p.dt)(dst, args[0], evalShift, 0, n)
	case isa.OpSelect:
		kernels.Select(dst, args[0], args[1], args[2], 0, n)
	default:
		kernels.Binary(p.op, p.dt)(dst, args[0], args[1], 0, n)
	}
	return dst
}

// call interprets the pair over [lo, hi) and checks every output element.
func (r *evalRunner) call(p evalPair, lo, hi int) error {
	got, err := bitserial.EvalElements(p.prog, p.dt.Bits(), hi-lo, r.args(p, lo, hi), 1)
	if err != nil {
		return err
	}
	return r.check(p, lo, hi, got)
}

func (r *evalRunner) check(p evalPair, lo, hi int, got []int64) error {
	want := r.reference(p, lo, hi)
	for i := range want {
		if p.dt.Truncate(got[i]) != p.dt.Truncate(want[i]) {
			return gateErr("%v.%v element %d: microprogram %d, kernels %d",
				p.op, p.dt, lo+i, p.dt.Truncate(got[i]), p.dt.Truncate(want[i]))
		}
	}
	return nil
}

// measure runs whole sweeps over every pair. Each call is timed alone for
// the per-layer metrics; checking follows it.
func (r *evalRunner) measure(m *meter) error {
	if m.lane != nil {
		r.timeBuild(m)
		m.restart()
	}
	opS := map[string][]float64{}
	var narrowUS []float64
	timed := func(p evalPair, lo, hi int) (time.Duration, error) {
		m.lane.Begin("bitserial.eval")
		t0 := time.Now()
		got, err := bitserial.EvalElements(p.prog, p.dt.Bits(), hi-lo, r.args(p, lo, hi), 1)
		dt := time.Since(t0)
		m.lane.End()
		if err == nil {
			m.lane.Begin("bench.verify")
			err = r.check(p, lo, hi, got)
			m.lane.End()
		}
		return dt, err
	}
	for req := int64(0); !m.done(); {
		sweep := map[string]float64{}
		for _, p := range r.pairs {
			req++
			m.lane.SetReq(req)
			m.lane.Begin("bench.op")
			t0 := time.Now()
			dt, err := timed(p, 0, r.wide)
			sweep[p.op.String()] += dt.Seconds()
			for i := 0; i < r.narrow && err == nil; i++ {
				dt, err = timed(p, i, i+1)
				narrowUS = append(narrowUS, float64(dt)/1e3)
			}
			m.lane.End()
			m.op(t0, err)
		}
		for op, s := range sweep {
			opS[op] = append(opS[op], s)
		}
	}
	if m.lane != nil {
		return nil
	}
	for op, s := range opS {
		m.set("bitserial.eval_s."+op, Median(s))
	}
	m.set("bitserial.call_us", Median(narrowUS))
	return nil
}

// timeBuild compiles every pair's microprogram uncached: the compile work
// BuildCached saves every later call, and that setup pays once.
func (r *evalRunner) timeBuild(m *meter) {
	t0 := time.Now()
	for _, p := range r.pairs {
		if _, err := bitserial.Build(p.op, p.dt, evalShift); err != nil {
			m.count(fmt.Errorf("build %v.%v: %w", p.op, p.dt, err))
		}
	}
	m.set("bitserial.build_ms", float64(time.Since(t0))/1e6)
}

// Package paralleltest is the differential test harness for the parallel
// sharded functional execution engine: for every command x data type x
// architecture it runs the serial reference engine (Workers=1) and the
// parallel engine (several worker counts) on identical deterministic inputs
// and asserts that output data, statistics, command traces, latency, and
// energy are bit-identical. This is the correctness proof behind the
// determinism guarantee documented in internal/device/parallel.go. The
// same script's outputs are also checked against the golden element oracle
// (kernels.Ref*) applied to the host inputs.
package paralleltest

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"pimeval/internal/device"
	"pimeval/internal/dram"
	"pimeval/internal/isa"
	"pimeval/internal/kernels"
)

var allTargets = []device.Target{
	device.TargetBitSerial,
	device.TargetFulcrum,
	device.TargetBankLevel,
	device.TargetAnalogBitSerial,
}

var allTypes = []isa.DataType{
	isa.Int8, isa.Int16, isa.Int32, isa.Int64,
	isa.UInt8, isa.UInt16, isa.UInt32, isa.UInt64,
}

// workerCounts are the parallel configurations differenced against the
// Workers=1 reference. They deliberately include counts that do not divide
// the shard count evenly.
var workerCounts = []int{2, 3, 8}

// nElems spans many per-core regions (DDR4 x1 rank has 4096 subarray-level
// cores) and is divisible by segLen for the segmented reduction.
const (
	nElems = 8192
	segLen = 512
)

// inputs builds a deterministic operand pair seeded with the arithmetic
// edge cases: zero divisors, MinInt/-1 pairs, extremes, and sign changes.
func inputs(dt isa.DataType, seed int64) (a, b []int64) {
	r := rand.New(rand.NewSource(seed))
	a = make([]int64, nElems)
	b = make([]int64, nElems)
	edges := []int64{0, 1, -1, math.MinInt64, math.MaxInt64, math.MinInt8, math.MaxUint8, -128, 127}
	for i := range a {
		switch i % 7 {
		case 0:
			a[i], b[i] = edges[i%len(edges)], edges[(i/2)%len(edges)]
		case 1:
			a[i], b[i] = r.Int63()-r.Int63(), 0 // division by zero
		case 2:
			a[i], b[i] = math.MinInt64, -1 // MinInt / -1 wraparound
		default:
			a[i], b[i] = r.Int63()-r.Int63(), r.Int63()-r.Int63()
		}
		a[i], b[i] = dt.Truncate(a[i]), dt.Truncate(b[i])
	}
	return a, b
}

// snapshot captures every observable of one scripted run.
type snapshot struct {
	Outputs  map[string][]int64
	Sums     map[string]int64
	SegSums  map[string][]int64
	Commands interface{}
	OpCounts map[string]int64
	Copies   interface{}
	HostNS   float64
	HostPJ   float64
	KernelNS float64
	KernelPJ float64
	Trace    string
}

// scriptSeed seeds the host inputs of runScript.
const scriptSeed = 42

// step is one element-wise command of the script: run dispatches it into
// dst (cond holds lt(a, b)), and ref is its golden result for one element
// of the host inputs.
type step struct {
	key string
	run func(d *device.Device, a, b, cond, dst device.ObjID) error
	ref func(a, b int64) int64
}

// script lists the element-wise commands runScript issues for dt, in order:
// every binary op in both forms, every unary op dt admits, both shifts at
// amounts below, at and past the width, select, and broadcast.
func script(dt isa.DataType) []step {
	var steps []step
	for _, op := range []isa.Op{
		isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpAnd, isa.OpOr,
		isa.OpXor, isa.OpXnor, isa.OpMin, isa.OpMax, isa.OpLt, isa.OpGt, isa.OpEq,
	} {
		steps = append(steps,
			step{"bin." + op.String(),
				func(d *device.Device, a, b, _, dst device.ObjID) error { return d.ExecBinary(op, a, b, dst) },
				func(a, b int64) int64 { return kernels.RefBinary(op, dt, a, b) }},
			step{"scalar." + op.String(),
				func(d *device.Device, a, _, _, dst device.ObjID) error { return d.ExecScalar(op, a, 3, dst) },
				func(a, _ int64) int64 { return kernels.RefBinary(op, dt, a, 3) }})
	}
	unaryOps := []isa.Op{isa.OpNot, isa.OpAbs, isa.OpPopCount}
	if dt.Bits() == 8 {
		unaryOps = append(unaryOps, isa.OpSbox, isa.OpSboxInv)
	}
	for _, op := range unaryOps {
		steps = append(steps, step{"un." + op.String(),
			func(d *device.Device, a, _, _, dst device.ObjID) error { return d.ExecUnary(op, a, dst) },
			func(a, _ int64) int64 { return kernels.RefUnary(op, dt, a) }})
	}
	for _, amount := range []int{0, 1, dt.Bits() - 1, dt.Bits(), dt.Bits() + 5} {
		for _, op := range []isa.Op{isa.OpShiftL, isa.OpShiftR} {
			steps = append(steps, step{fmt.Sprintf("%v.%d", op, amount),
				func(d *device.Device, a, _, _, dst device.ObjID) error { return d.ExecShift(op, a, amount, dst) },
				func(a, _ int64) int64 { return kernels.RefShift(op, dt, a, amount) }})
		}
	}
	return append(steps,
		step{"select",
			func(d *device.Device, a, b, cond, dst device.ObjID) error { return d.ExecSelect(cond, a, b, dst) },
			func(a, b int64) int64 {
				if kernels.RefBinary(isa.OpLt, dt, a, b) != 0 {
					return a
				}
				return b
			}},
		step{"broadcast",
			func(d *device.Device, _, _, _, dst device.ObjID) error { return d.Broadcast(dst, -99) },
			func(_, _ int64) int64 { return dt.Truncate(-99) }})
}

// runScript executes the full command script on a fresh device with the
// given worker count and returns the complete observable state.
func runScript(t *testing.T, tgt device.Target, dt isa.DataType, workers int) snapshot {
	t.Helper()
	d, err := device.New(device.Config{
		Target: tgt, Module: dram.DDR4(1), Functional: true, Workers: workers,
	})
	if err != nil {
		t.Fatalf("New(%v, workers=%d): %v", tgt, workers, err)
	}
	d.EnableTrace()

	av, bv := inputs(dt, scriptSeed)
	alloc := func(vals []int64) device.ObjID {
		id, err := d.Alloc(nElems, dt)
		if err != nil {
			t.Fatalf("%v/%v: Alloc: %v", tgt, dt, err)
		}
		if vals != nil {
			if err := d.CopyHostToDevice(id, vals); err != nil {
				t.Fatalf("%v/%v: Copy: %v", tgt, dt, err)
			}
		}
		return id
	}
	a, b, dst := alloc(av), alloc(bv), alloc(nil)
	cond := alloc(nil)
	if err := d.ExecBinary(isa.OpLt, a, b, cond); err != nil {
		t.Fatalf("lt for select mask: %v", err)
	}

	snap := snapshot{
		Outputs: make(map[string][]int64),
		Sums:    make(map[string]int64),
		SegSums: make(map[string][]int64),
	}
	for _, st := range script(dt) {
		if err := st.run(d, a, b, cond, dst); err != nil {
			t.Fatalf("%v/%v: %s: %v", tgt, dt, st.key, err)
		}
		out, err := d.CopyDeviceToHost(dst)
		if err != nil {
			t.Fatalf("%v/%v: read %s: %v", tgt, dt, st.key, err)
		}
		snap.Outputs[st.key] = out
	}

	for key, id := range map[string]device.ObjID{"a": a, "b": b} {
		sum, err := d.RedSum(id)
		if err != nil {
			t.Fatalf("%v/%v: redsum %s: %v", tgt, dt, key, err)
		}
		snap.Sums[key] = sum
		segs, err := d.RedSumSeg(id, segLen)
		if err != nil {
			t.Fatalf("%v/%v: redsum.seg %s: %v", tgt, dt, key, err)
		}
		snap.SegSums[key] = segs
	}

	st := d.Stats()
	snap.Commands = st.Commands()
	snap.OpCounts = st.OpCounts()
	snap.Copies = st.Copies()
	snap.HostNS, snap.HostPJ = st.Host().TimeNS, st.Host().EnergyPJ
	snap.KernelNS, snap.KernelPJ = st.Kernel().TimeNS, st.Kernel().EnergyPJ
	snap.Trace = d.TraceString()
	return snap
}

// checkOracle compares every output of a runScript snapshot with the golden
// oracle applied to the host inputs, and the reductions with plain wrapping
// sums of the inputs.
func checkOracle(t *testing.T, label string, dt isa.DataType, snap snapshot) {
	t.Helper()
	av, bv := inputs(dt, scriptSeed)
	for _, st := range script(dt) {
		got := snap.Outputs[st.key]
		if len(got) != nElems {
			t.Errorf("%s: output %q has %d elements, want %d", label, st.key, len(got), nElems)
			continue
		}
		for i := range got {
			if want := st.ref(av[i], bv[i]); got[i] != want {
				t.Errorf("%s: %s[%d] = %d, oracle(%d, %d) = %d", label, st.key, i, got[i], av[i], bv[i], want)
				break
			}
		}
	}
	for key, in := range map[string][]int64{"a": av, "b": bv} {
		var sum int64
		segs := make([]int64, nElems/segLen)
		for i, v := range in {
			sum += v
			segs[i/segLen] += v
		}
		if snap.Sums[key] != sum {
			t.Errorf("%s: RedSum(%s) = %d, want %d", label, key, snap.Sums[key], sum)
		}
		if !reflect.DeepEqual(snap.SegSums[key], segs) {
			t.Errorf("%s: RedSumSeg(%s) differs from the per-segment sums", label, key)
		}
	}
}

// bitsEqual compares floats bit-for-bit (NaN-safe, no epsilon).
func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// diff asserts two snapshots are bit-identical in every observable.
func diff(t *testing.T, label string, ref, got snapshot) {
	t.Helper()
	for key, want := range ref.Outputs {
		if !reflect.DeepEqual(got.Outputs[key], want) {
			t.Errorf("%s: output %q differs from serial reference", label, key)
		}
	}
	if !reflect.DeepEqual(got.Sums, ref.Sums) {
		t.Errorf("%s: RedSum differs: %v vs %v", label, got.Sums, ref.Sums)
	}
	if !reflect.DeepEqual(got.SegSums, ref.SegSums) {
		t.Errorf("%s: RedSumSeg differs", label)
	}
	if !reflect.DeepEqual(got.Commands, ref.Commands) {
		t.Errorf("%s: per-command stats differ:\n%v\nvs\n%v", label, got.Commands, ref.Commands)
	}
	if !reflect.DeepEqual(got.OpCounts, ref.OpCounts) {
		t.Errorf("%s: op-category counts differ", label)
	}
	if !reflect.DeepEqual(got.Copies, ref.Copies) {
		t.Errorf("%s: copy stats differ", label)
	}
	if !bitsEqual(got.HostNS, ref.HostNS) || !bitsEqual(got.HostPJ, ref.HostPJ) {
		t.Errorf("%s: host cost differs", label)
	}
	if !bitsEqual(got.KernelNS, ref.KernelNS) || !bitsEqual(got.KernelPJ, ref.KernelPJ) {
		t.Errorf("%s: kernel latency/energy differs: (%v,%v) vs (%v,%v)",
			label, got.KernelNS, got.KernelPJ, ref.KernelNS, ref.KernelPJ)
	}
	if got.Trace != ref.Trace {
		t.Errorf("%s: command trace differs", label)
	}
}

// TestParallelBitIdenticalToSerial is the differential proof: for every
// architecture and element type, the parallel engine at several worker
// counts reproduces the serial run (Workers=1) bit-for-bit across data,
// stats, trace, latency, and energy.
func TestParallelBitIdenticalToSerial(t *testing.T) {
	for _, tgt := range allTargets {
		for _, dt := range allTypes {
			t.Run(tgt.String()+"/"+dt.String(), func(t *testing.T) {
				t.Parallel()
				ref := runScript(t, tgt, dt, 1)
				if len(ref.Outputs) == 0 {
					t.Fatal("empty reference snapshot")
				}
				for _, w := range workerCounts {
					got := runScript(t, tgt, dt, w)
					diff(t, tgt.String()+"/"+dt.String()+"/workers="+string(rune('0'+w)), ref, got)
				}
			})
		}
	}
}

// TestKernelsBitIdenticalToReferenceEval is the differential proof for the
// specialized element kernels at the whole-device level: for every
// architecture and element type, every output of the script must equal the
// reference evaluation (the golden oracle kernels.Ref* applied to the host
// inputs), and RedSum/RedSumSeg must equal plain sums — serially and at the
// full worker pool.
func TestKernelsBitIdenticalToReferenceEval(t *testing.T) {
	for _, tgt := range allTargets {
		for _, dt := range allTypes {
			t.Run(tgt.String()+"/"+dt.String(), func(t *testing.T) {
				t.Parallel()
				for _, w := range []int{1, runtime.NumCPU()} {
					got := runScript(t, tgt, dt, w)
					checkOracle(t, fmt.Sprintf("%v/%v/kernels/workers=%d", tgt, dt, w), dt, got)
				}
			})
		}
	}
}

// TestParallelRepeatable runs the parallel engine twice with the same
// worker count and asserts run-to-run determinism (scheduling noise must
// not leak into any observable).
func TestParallelRepeatable(t *testing.T) {
	first := runScript(t, device.TargetFulcrum, isa.Int32, 8)
	second := runScript(t, device.TargetFulcrum, isa.Int32, 8)
	diff(t, "fulcrum/int32 repeat", first, second)
}

// TestWorkersResolve pins the knob semantics: 0 resolves to NumCPU (>= 1),
// explicit counts are honored.
func TestWorkersResolve(t *testing.T) {
	d, err := device.New(device.Config{Target: device.TargetFulcrum, Module: dram.DDR4(1), Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	if d.Workers() < 1 {
		t.Errorf("auto workers resolved to %d", d.Workers())
	}
	d, err = device.New(device.Config{Target: device.TargetFulcrum, Module: dram.DDR4(1), Workers: 5})
	if err != nil {
		t.Fatal(err)
	}
	if d.Workers() != 5 {
		t.Errorf("Workers = %d, want 5", d.Workers())
	}
}

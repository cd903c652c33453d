package device

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"pimeval/internal/cmdstream"
	"pimeval/internal/isa"
	"pimeval/internal/kernels"
)

// fusedShapes enumerates every stage-form combination the optimizer can
// emit, with concrete ops covering arithmetic, logic, and the fusable
// unary set.
type fusedShape struct {
	name         string
	form1, form2 cmdstream.Form
	op1, op2     isa.Op
	s1, s2       int64
}

var fusedShapes = []fusedShape{
	{"binary+unary", cmdstream.FormBinary, cmdstream.FormUnary, isa.OpSub, isa.OpAbs, 0, 0},
	{"binary+scalar", cmdstream.FormBinary, cmdstream.FormScalar, isa.OpAdd, isa.OpMul, 0, 3},
	{"scalar+binary", cmdstream.FormScalar, cmdstream.FormBinary, isa.OpMul, isa.OpAdd, 5, 0},
	{"scalar+scalar", cmdstream.FormScalar, cmdstream.FormScalar, isa.OpAdd, isa.OpXor, -7, 0x55},
	{"scalar+unary", cmdstream.FormScalar, cmdstream.FormUnary, isa.OpSub, isa.OpPopCount, 9, 0},
}

// fusedInputs builds edge-heavy operand vectors for a data type: extremes,
// zero, minus one, then seeded randoms.
func fusedInputs(dt isa.DataType, n int64) (a, b []int64) {
	var lo, hi int64
	if dt.Signed() {
		hi = 1<<(dt.Bits()-1) - 1
		lo = -hi - 1
	} else {
		lo, hi = 0, dt.Truncate(-1)
	}
	seedA := []int64{lo, hi, 0, -1, 1, lo + 1, hi - 1, 42}
	seedB := []int64{hi, lo, -1, 0, lo, 2, hi, -3}
	rng := rand.New(rand.NewSource(7))
	a = make([]int64, n)
	b = make([]int64, n)
	for i := int64(0); i < n; i++ {
		if i < int64(len(seedA)) {
			a[i], b[i] = seedA[i], seedB[i]
		} else {
			a[i], b[i] = dt.Truncate(rng.Int63()), dt.Truncate(rng.Int63())
		}
	}
	return a, b
}

// runSequential executes the two-stage pair through a materialized
// intermediate on a fresh device and returns the dst data plus the kernel
// cost of the two execs.
func runSequential(t *testing.T, tgt Target, dt isa.DataType, sh fusedShape, a, b []int64) ([]int64, float64, float64) {
	t.Helper()
	d := newDev(t, tgt)
	n := int64(len(a))
	ao, _ := d.Alloc(n, dt)
	bo, _ := d.Alloc(n, dt)
	to, _ := d.Alloc(n, dt)
	do, _ := d.Alloc(n, dt)
	if err := d.CopyHostToDevice(ao, a); err != nil {
		t.Fatal(err)
	}
	if err := d.CopyHostToDevice(bo, b); err != nil {
		t.Fatal(err)
	}
	var err error
	if sh.form1 == cmdstream.FormBinary {
		err = d.ExecBinary(sh.op1, ao, bo, to)
	} else {
		err = d.ExecScalar(sh.op1, ao, sh.s1, to)
	}
	if err != nil {
		t.Fatalf("stage 1: %v", err)
	}
	switch sh.form2 {
	case cmdstream.FormUnary:
		err = d.ExecUnary(sh.op2, to, do)
	case cmdstream.FormScalar:
		err = d.ExecScalar(sh.op2, to, sh.s2, do)
	default:
		err = d.ExecBinary(sh.op2, to, bo, do)
	}
	if err != nil {
		t.Fatalf("stage 2: %v", err)
	}
	got, err := d.CopyDeviceToHost(do)
	if err != nil {
		t.Fatal(err)
	}
	k := d.Stats().Kernel()
	return got, k.TimeNS, k.EnergyPJ
}

// TestExecFusedMatchesSequentialPair is the device-level fusion oracle:
// for every target, data type, and fused shape, the one-dispatch fused
// command must produce bit-identical dst data to the sequential two-kernel
// pair, and must never cost more on the architecture model.
func TestExecFusedMatchesSequentialPair(t *testing.T) {
	targets := append(append([]Target(nil), allTargets...), TargetAnalogBitSerial)
	dtypes := []isa.DataType{isa.Int8, isa.Int16, isa.Int32, isa.UInt8, isa.UInt32}
	const n = 64
	for _, tgt := range targets {
		for _, dt := range dtypes {
			for _, sh := range fusedShapes {
				a, b := fusedInputs(dt, n)
				want, seqT, seqE := runSequential(t, tgt, dt, sh, a, b)

				d := newDev(t, tgt)
				ao, _ := d.Alloc(n, dt)
				bo, _ := d.Alloc(n, dt)
				do, _ := d.Alloc(n, dt)
				if err := d.CopyHostToDevice(ao, a); err != nil {
					t.Fatal(err)
				}
				if err := d.CopyHostToDevice(bo, b); err != nil {
					t.Fatal(err)
				}
				err := d.ExecFused(cmdstream.Fused{
					Form1: sh.form1, Form2: sh.form2,
					Op1: sh.op1, Op2: sh.op2,
					A: ao, B: bo, Dst: do, S1: sh.s1, S2: sh.s2,
				})
				if err != nil {
					t.Fatalf("%v/%v/%s: ExecFused: %v", tgt, dt, sh.name, err)
				}
				got, err := d.CopyDeviceToHost(do)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%v/%v/%s: fused data differs from sequential pair\n got %v\nwant %v",
						tgt, dt, sh.name, got, want)
				}
				// Bit-serial targets price the fused command as the exact
				// sum of its two stages, but floating-point summation order
				// differs — compare with a relative epsilon.
				const eps = 1e-9
				k := d.Stats().Kernel()
				if k.TimeNS > seqT*(1+eps) || k.EnergyPJ > seqE*(1+eps) {
					t.Errorf("%v/%v/%s: fused cost (%.3f ns, %.3f pJ) exceeds sequential pair (%.3f ns, %.3f pJ)",
						tgt, dt, sh.name, k.TimeNS, k.EnergyPJ, seqT, seqE)
				}
			}
		}
	}
}

// TestExecFusedMatchesOracle checks every fused shape on every element type
// against the golden oracle composed per element, truncating between the
// stages (kernels.Ref* results are canonical, which is that truncation).
func TestExecFusedMatchesOracle(t *testing.T) {
	const n = 64
	for _, dt := range kernelTestTypes {
		for _, sh := range fusedShapes {
			a, b := fusedInputs(dt, n)
			want := make([]int64, n)
			for i := range want {
				mid := kernels.RefBinary(sh.op1, dt, a[i], sh.s1)
				if sh.form1 == cmdstream.FormBinary {
					mid = kernels.RefBinary(sh.op1, dt, a[i], b[i])
				}
				switch sh.form2 {
				case cmdstream.FormUnary:
					want[i] = kernels.RefUnary(sh.op2, dt, mid)
				case cmdstream.FormScalar:
					want[i] = kernels.RefBinary(sh.op2, dt, mid, sh.s2)
				default:
					want[i] = kernels.RefBinary(sh.op2, dt, mid, b[i])
				}
			}
			d := newDev(t, TargetFulcrum)
			ao, _ := d.Alloc(n, dt)
			bo, _ := d.Alloc(n, dt)
			do, _ := d.Alloc(n, dt)
			if err := d.CopyHostToDevice(ao, a); err != nil {
				t.Fatal(err)
			}
			if err := d.CopyHostToDevice(bo, b); err != nil {
				t.Fatal(err)
			}
			if err := d.ExecFused(cmdstream.Fused{
				Form1: sh.form1, Form2: sh.form2, Op1: sh.op1, Op2: sh.op2,
				A: ao, B: bo, Dst: do, S1: sh.s1, S2: sh.s2,
			}); err != nil {
				t.Fatalf("%v/%s: %v", dt, sh.name, err)
			}
			got, err := d.CopyDeviceToHost(do)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v/%s: fused command disagrees with the oracle\n   got %v\noracle %v",
					dt, sh.name, got, want)
			}
		}
	}
}

// TestExecFusedAliasedDst checks the optimizer's most common emission:
// the fused destination aliasing an input (dst == a), as produced when the
// second stage overwrote the intermediate in the original stream.
func TestExecFusedAliasedDst(t *testing.T) {
	const n = 16
	dt := isa.Int32
	a, b := fusedInputs(dt, n)
	want, _, _ := runSequential(t, TargetFulcrum, dt, fusedShapes[2], a, b)

	d := newDev(t, TargetFulcrum)
	ao, _ := d.Alloc(n, dt)
	bo, _ := d.Alloc(n, dt)
	if err := d.CopyHostToDevice(ao, a); err != nil {
		t.Fatal(err)
	}
	if err := d.CopyHostToDevice(bo, b); err != nil {
		t.Fatal(err)
	}
	sh := fusedShapes[2] // scalar+binary: dst = a*s1 + b
	if err := d.ExecFused(cmdstream.Fused{
		Form1: sh.form1, Form2: sh.form2, Op1: sh.op1, Op2: sh.op2,
		A: ao, B: bo, Dst: ao, S1: sh.s1, S2: sh.s2,
	}); err != nil {
		t.Fatal(err)
	}
	got, err := d.CopyDeviceToHost(ao)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("aliased dst: got %v want %v", got, want)
	}
}

func TestExecFusedValidation(t *testing.T) {
	d := newDev(t, TargetFulcrum)
	a, _ := d.Alloc(8, isa.Int32)
	b, _ := d.Alloc(8, isa.Int32)
	short, _ := d.Alloc(4, isa.Int32)
	dst, _ := d.Alloc(8, isa.Int32)
	cases := map[string]cmdstream.Fused{
		"bad stage1 form": {Form1: cmdstream.FormUnary, Form2: cmdstream.FormUnary,
			Op1: isa.OpNot, Op2: isa.OpAbs, A: a, Dst: dst},
		"non-binary stage1 op": {Form1: cmdstream.FormBinary, Form2: cmdstream.FormUnary,
			Op1: isa.OpNot, Op2: isa.OpAbs, A: a, B: b, Dst: dst},
		"non-fusable unary": {Form1: cmdstream.FormBinary, Form2: cmdstream.FormUnary,
			Op1: isa.OpAdd, Op2: isa.OpSbox, A: a, B: b, Dst: dst},
		"binary stage2 needs scalar stage1": {Form1: cmdstream.FormBinary, Form2: cmdstream.FormBinary,
			Op1: isa.OpAdd, Op2: isa.OpMul, A: a, B: b, Dst: dst},
		"bad stage2 form": {Form1: cmdstream.FormScalar, Form2: cmdstream.FormBroadcast,
			Op1: isa.OpAdd, Op2: isa.OpMul, A: a, Dst: dst},
		"shape mismatch": {Form1: cmdstream.FormBinary, Form2: cmdstream.FormUnary,
			Op1: isa.OpAdd, Op2: isa.OpAbs, A: a, B: short, Dst: dst},
	}
	for name, f := range cases {
		if err := d.ExecFused(f); err == nil {
			t.Errorf("%s: accepted", name)
		} else if !errors.Is(err, ErrBadArgument) && !errors.Is(err, ErrShapeMismatch) {
			t.Errorf("%s: unexpected error class: %v", name, err)
		}
	}
}

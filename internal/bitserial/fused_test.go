package bitserial

import (
	"testing"

	"pimeval/internal/isa"
	"pimeval/internal/kernels"
)

// runFused compiles the spec, loads the operand regions at the layout's row
// bases through a raw Engine (EvalElements assumes contiguous operands and
// cannot place the fused layout's detached B2 region), runs the program, and
// returns the truncated destination elements.
func runFused(t *testing.T, spec FusedSpec, a, b []int64) []int64 {
	t.Helper()
	fp, err := BuildFused(spec)
	if err != nil {
		t.Fatalf("BuildFused(%+v): %v", spec, err)
	}
	n := spec.DT.Bits()
	width := (len(a) + 63) / 64 * 64 // engine lanes come in 64-column words
	e := NewEngine(fp.Rows, width)
	tr := make([]int64, len(a))
	for i, v := range a {
		tr[i] = spec.DT.Truncate(v)
	}
	e.LoadVertical(fp.ABase, n, tr)
	if fp.B1Base >= 0 || fp.B2Base >= 0 {
		base := fp.B1Base
		if base < 0 {
			base = fp.B2Base
		}
		for i, v := range b {
			tr[i] = spec.DT.Truncate(v)
		}
		e.LoadVertical(base, n, tr)
	}
	if err := e.Run(fp.Program, 0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	got := e.ReadVertical(fp.DstBase, n, len(a))
	for i := range got {
		got[i] = spec.DT.Truncate(got[i])
	}
	return got
}

// fusedRef computes the expected two-stage composition per element with a
// truncate between the stages, composed from the golden oracle.
func fusedRef(spec FusedSpec, a, b []int64) []int64 {
	out := make([]int64, len(a))
	for i := range a {
		var t int64
		if spec.Scalar1 {
			t = kernels.RefBinary(spec.Op1, spec.DT, a[i], spec.S1)
		} else {
			t = kernels.RefBinary(spec.Op1, spec.DT, a[i], b[i])
		}
		switch {
		case spec.Scalar2:
			out[i] = kernels.RefBinary(spec.Op2, spec.DT, t, spec.S2)
		case spec.Binary2:
			out[i] = kernels.RefBinary(spec.Op2, spec.DT, t, b[i])
		default:
			out[i] = kernels.RefUnary(spec.Op2, spec.DT, t)
		}
	}
	return out
}

// TestFusedProgramsMatchComposition runs every fused shape — including
// multiply's scratch-heavy program as each stage and scalarized stages with
// negative immediates — over edge-value lanes and checks the microprogram
// against the oracle composition (fusedRef).
func TestFusedProgramsMatchComposition(t *testing.T) {
	dts := []isa.DataType{isa.Int8, isa.Int16, isa.Int32, isa.UInt8, isa.UInt32}
	specs := []FusedSpec{
		{Op1: isa.OpSub, Op2: isa.OpAbs},                                                 // binary+unary
		{Op1: isa.OpMul, Op2: isa.OpNot},                                                 // mul stage 1, scratch remap
		{Op1: isa.OpAdd, Op2: isa.OpMul, Scalar2: true, S2: -3},                          // binary+scalar
		{Op1: isa.OpMul, Op2: isa.OpAdd, Scalar1: true, S1: 5, Binary2: true},            // scalar+binary (AXPY)
		{Op1: isa.OpAdd, Op2: isa.OpXor, Scalar1: true, S1: -7, Scalar2: true, S2: 0x55}, // scalar+scalar
		{Op1: isa.OpSub, Op2: isa.OpPopCount, Scalar1: true, S1: 9},                      // scalar+unary
		{Op1: isa.OpMin, Op2: isa.OpMax, Scalar1: true, S1: 3, Scalar2: true, S2: -2},
	}
	for _, dt := range dts {
		vals := edgeValues(dt)
		// Pair every edge value of A against a rotation of the edge values
		// for B so extremes meet extremes.
		a := make([]int64, 0, len(vals)*2)
		b := make([]int64, 0, len(vals)*2)
		for i, v := range vals {
			a = append(a, v, vals[len(vals)-1-i])
			b = append(b, vals[(i+3)%len(vals)], v)
		}
		for _, spec := range specs {
			spec.DT = dt
			got := runFused(t, spec, a, b)
			want := fusedRef(spec, a, b)
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%v+%v %v lane %d (a=%d b=%d): got %d, want %d",
						spec.Op1, spec.Op2, dt, i, dt.Truncate(a[i]), dt.Truncate(b[i]), got[i], want[i])
					break
				}
			}
		}
	}
}

// TestBuildFusedRejectsIllegalShapes pins the two structural errors.
func TestBuildFusedRejectsIllegalShapes(t *testing.T) {
	if _, err := BuildFused(FusedSpec{Op1: isa.OpAdd, Op2: isa.OpMul, DT: isa.Int8, Binary2: true}); err == nil {
		t.Error("binary second stage without scalar first stage accepted")
	}
	if _, err := BuildFused(FusedSpec{Op1: isa.OpAdd, Op2: isa.OpMul, DT: isa.Int8,
		Scalar1: true, Scalar2: true, Binary2: true}); err == nil {
		t.Error("scalar+binary second stage accepted")
	}
}

// TestBuildFusedCachedKey checks memoization semantics: identical specs
// share one compiled program; an immediate on a NON-scalar stage does not
// fragment the cache (it is not baked into the program), while an immediate
// on a scalar stage does.
func TestBuildFusedCachedKey(t *testing.T) {
	base := FusedSpec{Op1: isa.OpSub, Op2: isa.OpAbs, DT: isa.Int16}
	p1, err := BuildFusedCached(base)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := BuildFusedCached(base)
	if p1.Program != p2.Program {
		t.Error("identical specs compiled twice")
	}
	noise := base
	noise.S1, noise.S2 = 42, -42 // neither stage is scalar: immediates ignored
	p3, _ := BuildFusedCached(noise)
	if p1.Program != p3.Program {
		t.Error("non-scalar immediates fragmented the fused cache")
	}
	sc := FusedSpec{Op1: isa.OpAdd, Op2: isa.OpMul, DT: isa.Int16, Scalar2: true, S2: 3}
	q1, err := BuildFusedCached(sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.S2 = 4
	q2, _ := BuildFusedCached(sc)
	if q1.Program == q2.Program {
		t.Error("distinct scalar immediates shared one baked program")
	}
}

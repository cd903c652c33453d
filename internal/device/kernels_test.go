package device

import (
	"math"
	"math/rand"
	"testing"

	"pimeval/internal/isa"
	"pimeval/internal/kernels"
)

// Differential proof for the specialized element kernels: every (op, form,
// element type) storage kernel (kernels.On) must be bit-identical to the
// golden oracle
// (kernels.RefBinary/RefUnary/RefShift) on vectors built from the
// arithmetic edge values — INT_MIN/-1, division by zero, shift amounts at
// and past the width, unsigned wraparound — plus seeded random operands.

// edgeValues are the treacherous operand values, truncated per type when
// vectors are built.
var edgeValues = []int64{
	0, 1, -1, 2, 3, -2,
	math.MinInt64, math.MaxInt64,
	math.MinInt32, math.MaxInt32, math.MinInt16, math.MaxInt16,
	math.MinInt8, math.MaxInt8,
	math.MaxUint8, math.MaxUint16, math.MaxUint32,
	0x5555_5555_5555_5555, -0x5555_5555_5555_5556, // alternating bit patterns
	1 << 31, 1 << 62,
}

// edgeVectors builds operand vectors for dt covering the full cross product
// of edge values (a gets each value repeated, b cycles) plus random tails.
func edgeVectors(dt isa.DataType, seed int64) (a, b []int64) {
	ne := len(edgeValues)
	n := ne*ne + 256
	a = make([]int64, n)
	b = make([]int64, n)
	for i := 0; i < ne*ne; i++ {
		a[i] = dt.Truncate(edgeValues[i/ne])
		b[i] = dt.Truncate(edgeValues[i%ne])
	}
	r := rand.New(rand.NewSource(seed))
	for i := ne * ne; i < n; i++ {
		a[i] = dt.Truncate(r.Int63() - r.Int63())
		b[i] = dt.Truncate(r.Int63() - r.Int63())
	}
	return a, b
}

var kernelTestTypes = []isa.DataType{
	isa.Int8, isa.Int16, isa.Int32, isa.Int64,
	isa.UInt8, isa.UInt16, isa.UInt32, isa.UInt64,
}

// TestKernelsBinaryMatchReference sweeps every element-wise binary kernel
// (and its scalar-broadcast twin) against kernels.RefBinary.
func TestKernelsBinaryMatchReference(t *testing.T) {
	ops := []isa.Op{
		isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpAnd, isa.OpOr,
		isa.OpXor, isa.OpXnor, isa.OpMin, isa.OpMax, isa.OpLt, isa.OpGt, isa.OpEq,
	}
	for _, dt := range kernelTestTypes {
		a, b := edgeVectors(dt, 7)
		n := int64(len(a))
		got := make([]int64, n)
		ea, eb, out := stored(dt, a), stored(dt, b), dt.MakeElems(n)
		for _, op := range ops {
			k := kernels.On(dt).Binary(op, dt)
			if k == nil {
				t.Fatalf("no kernel for %v.%v", op, dt)
			}
			k(out, ea, eb, 0, n)
			isa.LoadInts(out, got, 0)
			for i := int64(0); i < n; i++ {
				want := kernels.RefBinary(op, dt, a[i], b[i])
				if got[i] != want {
					t.Fatalf("%v.%v kernel(a=%d, b=%d) = %d, reference %d",
						op, dt, a[i], b[i], got[i], want)
				}
			}
			sk := kernels.On(dt).Scalar(op, dt)
			for _, s := range []int64{0, 1, -1, 3, math.MinInt64, math.MaxInt64, 255} {
				s := dt.Truncate(s)
				sk(out, ea, s, 0, n)
				isa.LoadInts(out, got, 0)
				for i := int64(0); i < n; i++ {
					want := kernels.RefBinary(op, dt, a[i], s)
					if got[i] != want {
						t.Fatalf("%v.%v scalar kernel(a=%d, s=%d) = %d, reference %d",
							op, dt, a[i], s, got[i], want)
					}
				}
			}
		}
	}
}

// TestKernelsUnaryMatchReference sweeps not/abs/popcount (and sbox at 8-bit
// widths) against kernels.RefUnary.
func TestKernelsUnaryMatchReference(t *testing.T) {
	for _, dt := range kernelTestTypes {
		a, _ := edgeVectors(dt, 11)
		n := int64(len(a))
		got := make([]int64, n)
		ea, out := stored(dt, a), dt.MakeElems(n)
		ops := []isa.Op{isa.OpNot, isa.OpAbs, isa.OpPopCount}
		if dt.Bits() == 8 {
			ops = append(ops, isa.OpSbox, isa.OpSboxInv)
		}
		for _, op := range ops {
			k := kernels.On(dt).Unary(op)
			if k == nil {
				t.Fatalf("no kernel for %v.%v", op, dt)
			}
			k(out, ea, 0, n)
			isa.LoadInts(out, got, 0)
			for i := int64(0); i < n; i++ {
				want := kernels.RefUnary(op, dt, a[i])
				if got[i] != want {
					t.Fatalf("%v.%v kernel(%d) = %d, reference %d", op, dt, a[i], got[i], want)
				}
			}
		}
	}
}

// TestKernelsShiftMatchReference sweeps both shifts at amounts below, at,
// and past the element width against kernels.RefShift.
func TestKernelsShiftMatchReference(t *testing.T) {
	for _, dt := range kernelTestTypes {
		a, _ := edgeVectors(dt, 13)
		n := int64(len(a))
		got := make([]int64, n)
		ea, out := stored(dt, a), dt.MakeElems(n)
		amounts := []int{0, 1, dt.Bits() / 2, dt.Bits() - 1, dt.Bits(), dt.Bits() + 1, 127}
		for _, op := range []isa.Op{isa.OpShiftL, isa.OpShiftR} {
			k := kernels.On(dt).Shift(op)
			if k == nil {
				t.Fatalf("no kernel for %v.%v", op, dt)
			}
			for _, amount := range amounts {
				k(out, ea, amount, 0, n)
				isa.LoadInts(out, got, 0)
				for i := int64(0); i < n; i++ {
					want := kernels.RefShift(op, dt, a[i], amount)
					if got[i] != want {
						t.Fatalf("%v.%v kernel(%d, amount=%d) = %d, reference %d",
							op, dt, a[i], amount, got[i], want)
					}
				}
			}
		}
	}
}

// TestKernelsSumMatchReference checks the storage-typed reduction kernel
// against direct serial accumulation of the canonical carriers.
func TestKernelsSumMatchReference(t *testing.T) {
	for _, dt := range kernelTestTypes {
		a, _ := edgeVectors(dt, 17)
		var want int64
		for _, v := range a {
			want += v
		}
		if got := kernels.On(dt).Sum(stored(dt, a), 0, int64(len(a))); got != want {
			t.Errorf("%v: Sum = %d, reference %d", dt, got, want)
		}
	}
}

// FuzzKernelBinary cross-checks the specialized element kernels against the
// oracle for arbitrary operands over every element type, on one-element
// storage (kernels.On). It runs every binary op (plain and
// scalar-broadcast) on (a, b), every unary op on a, and both shifts of a by
// b & 0x7F, which covers amounts below, at and past every width. The
// compares also write a destination of every other type, and select reads
// its condition a at every type. It is the kernel-path twin of
// FuzzEvalBinary.
func FuzzKernelBinary(f *testing.F) {
	seedPairs(f)
	f.Add(int64(-1), int64(64))  // shift amount == width of int64
	f.Add(int64(-2), int64(200)) // shift amount 72: past every width
	ops := []isa.Op{
		isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpAnd, isa.OpOr,
		isa.OpXor, isa.OpXnor, isa.OpMin, isa.OpMax, isa.OpLt, isa.OpGt, isa.OpEq,
	}
	f.Fuzz(func(t *testing.T, a, b int64) {
		amount := int(b & 0x7F)
		for _, dt := range fuzzTypes {
			ta, tb := dt.Truncate(a), dt.Truncate(b)
			k := kernels.On(dt)
			check := func(what string, got, want int64) {
				t.Helper()
				if got != want {
					t.Errorf("%s.%v(a=%d, b=%d, amount=%d) = %d, oracle %d", what, dt, ta, tb, amount, got, want)
				}
			}
			for _, op := range ops {
				want := kernels.RefBinary(op, dt, ta, tb)
				for _, out := range fuzzTypes {
					if out != dt && op != isa.OpLt && op != isa.OpGt && op != isa.OpEq {
						continue
					}
					dst := out.MakeElems(1)
					k.Binary(op, out)(dst, elem(dt, ta), elem(dt, tb), 0, 1)
					check(op.String()+" storage into "+out.String(), load(dst), want)
					k.Scalar(op, out)(dst, elem(dt, ta), tb, 0, 1)
					check(op.String()+" storage scalar into "+out.String(), load(dst), want)
				}
			}
			unary := []isa.Op{isa.OpNot, isa.OpAbs, isa.OpPopCount}
			if dt.Bits() == 8 {
				unary = append(unary, isa.OpSbox, isa.OpSboxInv)
			}
			for _, op := range unary {
				want := kernels.RefUnary(op, dt, ta)
				dst := dt.MakeElems(1)
				k.Unary(op)(dst, elem(dt, ta), 0, 1)
				check(op.String()+" storage", load(dst), want)
			}
			for _, op := range []isa.Op{isa.OpShiftL, isa.OpShiftR} {
				want := kernels.RefShift(op, dt, ta, amount)
				dst := dt.MakeElems(1)
				k.Shift(op)(dst, elem(dt, ta), amount, 0, 1)
				check(op.String()+" storage", load(dst), want)
			}
			for _, ct := range fuzzTypes {
				want := tb
				if ct.Truncate(a) != 0 {
					want = ta
				}
				dst := dt.MakeElems(1)
				k.Select(ct)(dst, elem(ct, a), elem(dt, ta), elem(dt, tb), 0, 1)
				check("select on "+ct.String(), load(dst), want)
			}
		}
	})
}

// elem returns one-element dt storage holding v.
func elem(dt isa.DataType, v int64) isa.Elems {
	return stored(dt, []int64{v})
}

// stored returns fresh dt storage holding v.
func stored(dt isa.DataType, v []int64) isa.Elems {
	e := dt.MakeElems(int64(len(v)))
	isa.StoreInts(e, 0, v)
	return e
}

// load returns the canonical value of one-element storage.
func load(e isa.Elems) int64 {
	var v [1]int64
	isa.LoadInts(e, v[:], 0)
	return v[0]
}

package device

import (
	"math"
	"testing"

	"pimeval/internal/bitserial"
	"pimeval/internal/isa"
	"pimeval/internal/kernels"
)

// The fuzz targets cross-check the golden element oracle (kernels.RefBinary
// and kernels.RefShift) against the bit-serial microprogram
// interpreter: both views of the same operation must agree after
// normalization, for arbitrary operands including the signed edge cases
// (division by zero, MinInt/-1, shift amounts at or past the element width).
//
// The interpreter's ReadVertical is zero-extended while the device holds
// canonical sign-extended values, so both sides are compared through
// dt.Truncate.

var fuzzTypes = []isa.DataType{
	isa.Int8, isa.Int16, isa.Int32, isa.Int64,
	isa.UInt8, isa.UInt16, isa.UInt32, isa.UInt64,
}

// crossCheck runs one (op, dtype) pair through both the oracle and
// the compiled microprogram and fails on any mismatch. Compilation goes
// through the memoized BuildCached — the fuzz loop would otherwise recompile
// the same microprograms on every input, and sharing the cache with the cost
// model also exercises it from the fuzzer's goroutines.
func crossCheck(t *testing.T, op isa.Op, dt isa.DataType, imm int64, want func(a, b int64) int64, a, b int64) {
	t.Helper()
	a, b = dt.Truncate(a), dt.Truncate(b)
	p, err := bitserial.BuildCached(op, dt, imm)
	if err != nil {
		t.Fatalf("Build(%v, %v): %v", op, dt, err)
	}
	operands := [][]int64{{a}}
	if op != isa.OpShiftL && op != isa.OpShiftR {
		operands = append(operands, []int64{b})
	}
	got, err := bitserial.EvalElements(p, dt.Bits(), 1, operands, 1)
	if err != nil {
		t.Fatalf("EvalElements(%v, %v): %v", op, dt, err)
	}
	ref := want(a, b)
	if dt.Truncate(got[0]) != dt.Truncate(ref) {
		t.Errorf("%v.%v(a=%d, b=%d, imm=%d): microprogram=%d, oracle=%d",
			op, dt, a, b, imm, dt.Truncate(got[0]), dt.Truncate(ref))
	}
}

// seedPairs are the known-treacherous operand pairs every fuzz target
// starts from.
func seedPairs(f *testing.F) {
	f.Add(int64(0), int64(0))
	f.Add(int64(1), int64(0))              // division by zero
	f.Add(int64(math.MinInt64), int64(-1)) // MinInt / -1 wraparound
	f.Add(int64(math.MinInt8), int64(-1))  // same at 8-bit width
	f.Add(int64(-1), int64(math.MaxInt64)) // all-ones vs max
	f.Add(int64(math.MaxInt64), int64(1))  // overflow on add
	f.Add(int64(math.MinInt64), int64(math.MinInt64))
	f.Add(int64(0x8000_0000), int64(0x7FFF_FFFF))
	f.Add(int64(-128), int64(127))
}

func FuzzEvalBinary(f *testing.F) {
	seedPairs(f)
	ops := []isa.Op{
		isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpAnd, isa.OpOr, isa.OpXor,
		isa.OpXnor, isa.OpMin, isa.OpMax, isa.OpLt, isa.OpGt, isa.OpEq,
	}
	f.Fuzz(func(t *testing.T, a, b int64) {
		for _, dt := range fuzzTypes {
			for _, op := range ops {
				op := op
				crossCheck(t, op, dt, 0, func(a, b int64) int64 {
					return kernels.RefBinary(op, dt, a, b)
				}, a, b)
			}
		}
	})
}

func FuzzEvalDiv(f *testing.F) {
	seedPairs(f)
	f.Fuzz(func(t *testing.T, a, b int64) {
		for _, dt := range fuzzTypes {
			dt := dt
			crossCheck(t, isa.OpDiv, dt, 0, func(a, b int64) int64 {
				return kernels.RefBinary(isa.OpDiv, dt, a, b)
			}, a, b)
		}
	})
}

func FuzzEvalShift(f *testing.F) {
	seedPairs(f)
	f.Add(int64(math.MinInt64), int64(63))
	f.Add(int64(-1), int64(64)) // amount == width: result is 0 (or -1 for signed right shift)
	f.Add(int64(-1), int64(200))
	f.Fuzz(func(t *testing.T, a, rawAmount int64) {
		amount := int(rawAmount & 0x7F) // 0..127 covers < width, == width, and beyond
		for _, dt := range fuzzTypes {
			for _, op := range []isa.Op{isa.OpShiftL, isa.OpShiftR} {
				op, dt := op, dt
				crossCheck(t, op, dt, int64(amount), func(a, _ int64) int64 {
					return kernels.RefShift(op, dt, a, amount)
				}, a, 0)
			}
		}
	})
}

package bitserial

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pimeval/internal/isa"
	"pimeval/internal/kernels"
)

// runOp executes the microprogram for op over the operand vectors using the
// functional engine and returns the destination elements. Operand regions
// follow the builder layout convention.
func runOp(t *testing.T, op isa.Op, dt isa.DataType, imm int64, operands ...[]int64) []int64 {
	t.Helper()
	p, err := Build(op, dt, imm)
	if err != nil {
		t.Fatalf("Build(%v,%v): %v", op, dt, err)
	}
	n := dt.Bits()
	count := 0
	for _, o := range operands {
		if len(o) > count {
			count = len(o)
		}
	}
	width := (count + 63) / 64 * 64
	if width == 0 {
		width = 64
	}
	e := NewEngine(p.Rows, width)
	for i, o := range operands {
		vals := make([]int64, len(o))
		for j, v := range o {
			vals[j] = dt.Truncate(v)
		}
		e.LoadVertical(i*n, n, vals)
	}
	if err := e.Run(p, 0); err != nil {
		t.Fatalf("Run(%v): %v", op, err)
	}
	out := e.ReadVertical(p.DstBase, n, count)
	for j := range out {
		out[j] = dt.Truncate(out[j]) // sign-extend the raw bits
	}
	return out
}

var binaryOpsUnderTest = []isa.Op{
	isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpAnd, isa.OpOr, isa.OpXor,
	isa.OpXnor, isa.OpMin, isa.OpMax, isa.OpLt, isa.OpGt, isa.OpEq,
}

var typesUnderTest = []isa.DataType{
	isa.Int8, isa.Int16, isa.Int32, isa.UInt8, isa.UInt16, isa.UInt32, isa.Int64, isa.UInt64,
}

// edgeValues returns boundary cases for the type.
func edgeValues(dt isa.DataType) []int64 {
	n := uint(dt.Bits())
	vals := []int64{0, 1, 2, 3, -1, -2, 5, 7, 100, -100}
	if n < 64 {
		vals = append(vals,
			int64(1)<<(n-1)-1,      // max signed
			-(int64(1) << (n - 1)), // min signed
			int64(1)<<n-1,          // all ones
			int64(1)<<(n-1),        // sign bit only
		)
	} else {
		vals = append(vals, int64(^uint64(0)>>1), -int64(^uint64(0)>>1)-1)
	}
	return vals
}

func TestBinaryMicroprogramsEdgeCases(t *testing.T) {
	for _, op := range binaryOpsUnderTest {
		for _, dt := range typesUnderTest {
			ev := edgeValues(dt)
			var as, bs []int64
			for _, a := range ev {
				for _, b := range ev {
					as = append(as, a)
					bs = append(bs, b)
				}
			}
			got := runOp(t, op, dt, 0, as, bs)
			for i := range as {
				want := kernels.RefBinary(op, dt, as[i], bs[i])
				if got[i] != want {
					t.Fatalf("%v.%v(%d, %d) = %d, want %d", op, dt, dt.Truncate(as[i]), dt.Truncate(bs[i]), got[i], want)
				}
			}
		}
	}
}

func TestBinaryMicroprogramsQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, op := range binaryOpsUnderTest {
		for _, dt := range []isa.DataType{isa.Int16, isa.UInt16, isa.Int32} {
			op, dt := op, dt
			f := func(a, b int64) bool {
				got := runOp(t, op, dt, 0, []int64{a}, []int64{b})
				return got[0] == kernels.RefBinary(op, dt, a, b)
			}
			cfg := &quick.Config{MaxCount: 60, Rand: rng}
			if err := quick.Check(f, cfg); err != nil {
				t.Errorf("%v.%v: %v", op, dt, err)
			}
		}
	}
}

func TestDivMicroprogramEdgeCases(t *testing.T) {
	for _, dt := range []isa.DataType{isa.Int8, isa.UInt8, isa.Int16, isa.UInt16} {
		ev := edgeValues(dt)
		var as, bs []int64
		for _, a := range ev {
			for _, b := range ev {
				as = append(as, a)
				bs = append(bs, b)
			}
		}
		got := runOp(t, isa.OpDiv, dt, 0, as, bs)
		for i := range as {
			want := kernels.RefBinary(isa.OpDiv, dt, as[i], bs[i])
			if got[i] != want {
				t.Fatalf("div.%v(%d, %d) = %d, want %d",
					dt, dt.Truncate(as[i]), dt.Truncate(bs[i]), got[i], want)
			}
		}
	}
}

func TestDivMicroprogramQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, dt := range []isa.DataType{isa.Int16, isa.UInt16} {
		dt := dt
		f := func(a, b int64) bool {
			got := runOp(t, isa.OpDiv, dt, 0, []int64{a}, []int64{b})
			return got[0] == kernels.RefBinary(isa.OpDiv, dt, a, b)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
			t.Errorf("div.%v: %v", dt, err)
		}
	}
}

// TestDivMostExpensiveMicroprogram confirms the restoring divider costs
// even more row operations than the multiplier.
func TestDivMostExpensiveMicroprogram(t *testing.T) {
	div, err := Build(isa.OpDiv, isa.Int32, 0)
	if err != nil {
		t.Fatal(err)
	}
	mul, err := Build(isa.OpMul, isa.Int32, 0)
	if err != nil {
		t.Fatal(err)
	}
	dc, mc := div.Counts(), mul.Counts()
	if dc.Reads+dc.Writes <= mc.Reads+mc.Writes {
		t.Errorf("div row ops (%d) should exceed mul (%d)", dc.Reads+dc.Writes, mc.Reads+mc.Writes)
	}
}

func TestUnaryMicroprograms(t *testing.T) {
	for _, dt := range typesUnderTest {
		vals := edgeValues(dt)
		for _, op := range []isa.Op{isa.OpNot, isa.OpAbs} {
			got := runOp(t, op, dt, 0, vals)
			for i, a := range vals {
				if want := kernels.RefUnary(op, dt, a); got[i] != want {
					t.Errorf("%v.%v(%d) = %d, want %d", op, dt, a, got[i], want)
				}
			}
		}
	}
}

func TestPopCountMicroprogram(t *testing.T) {
	for _, dt := range []isa.DataType{isa.UInt8, isa.Int16, isa.Int32} {
		vals := edgeValues(dt)
		got := runOp(t, isa.OpPopCount, dt, 0, vals)
		for i, a := range vals {
			if want := kernels.RefUnary(isa.OpPopCount, dt, a); got[i] != want {
				t.Errorf("popcount.%v(%d) = %d, want %d", dt, a, got[i], want)
			}
		}
	}
}

func TestShiftMicroprograms(t *testing.T) {
	for _, dt := range []isa.DataType{isa.Int8, isa.UInt8, isa.Int32, isa.UInt32} {
		vals := edgeValues(dt)
		for _, amount := range []int{0, 1, 3, dt.Bits() - 1, dt.Bits()} {
			for _, op := range []isa.Op{isa.OpShiftL, isa.OpShiftR} {
				got := runOp(t, op, dt, int64(amount), vals)
				for i, a := range vals {
					if want := kernels.RefShift(op, dt, a, amount); got[i] != want {
						t.Errorf("%v.%v(%d, %d) = %d, want %d", op, dt, a, amount, got[i], want)
					}
				}
			}
		}
	}
}

func TestSelectMicroprogram(t *testing.T) {
	dt := isa.Int32
	mask := []int64{1, 0, 1, 0, 1, 1, 0, 0}
	a := []int64{10, 20, 30, 40, -50, 60, -70, 80}
	b := []int64{-1, -2, -3, -4, -5, -6, -7, -8}
	got := runOp(t, isa.OpSelect, dt, 0, mask, a, b)
	for i := range mask {
		want := b[i]
		if mask[i] != 0 {
			want = a[i]
		}
		if got[i] != dt.Truncate(want) {
			t.Errorf("select[%d] = %d, want %d", i, got[i], want)
		}
	}
}

func TestBroadcastMicroprogram(t *testing.T) {
	for _, dt := range []isa.DataType{isa.Int8, isa.Int32, isa.UInt16} {
		for _, v := range edgeValues(dt) {
			p, err := Build(isa.OpBroadcast, dt, v)
			if err != nil {
				t.Fatalf("Build(broadcast): %v", err)
			}
			e := NewEngine(p.Rows, 128)
			if err := e.Run(p, 0); err != nil {
				t.Fatalf("Run: %v", err)
			}
			out := e.ReadVertical(0, dt.Bits(), 128)
			for j, got := range out {
				if dt.Truncate(got) != dt.Truncate(v) {
					t.Fatalf("broadcast.%v(%d) col %d = %d", dt, v, j, got)
				}
			}
		}
	}
}

func TestBuildUnsupportedOps(t *testing.T) {
	for _, op := range []isa.Op{isa.OpRedSum, isa.OpRedSumSeg, isa.OpCopyD2D} {
		if _, err := Build(op, isa.Int32, 0); err == nil {
			t.Errorf("Build(%v) succeeded, want error", op)
		}
	}
}

// TestMicroprogramComplexity checks the asymptotic shapes the paper relies
// on: adds are linear in bit width, multiplies quadratic, popcount
// log-linear (Section IV / Section VII).
func TestMicroprogramComplexity(t *testing.T) {
	rowOps := func(op isa.Op, dt isa.DataType) int {
		p, err := Build(op, dt, 0)
		if err != nil {
			t.Fatal(err)
		}
		c := p.Counts()
		return c.Reads + c.Writes
	}
	add16, add32 := rowOps(isa.OpAdd, isa.Int16), rowOps(isa.OpAdd, isa.Int32)
	if r := float64(add32) / float64(add16); r < 1.8 || r > 2.2 {
		t.Errorf("add row-op scaling 16->32 bits = %.2f, want ~2 (linear)", r)
	}
	mul16, mul32 := rowOps(isa.OpMul, isa.Int16), rowOps(isa.OpMul, isa.Int32)
	if r := float64(mul32) / float64(mul16); r < 3.4 || r > 4.6 {
		t.Errorf("mul row-op scaling 16->32 bits = %.2f, want ~4 (quadratic)", r)
	}
	if mul32 <= 10*add32 {
		t.Errorf("mul.int32 (%d row ops) should dwarf add.int32 (%d)", mul32, add32)
	}
	pop16, pop32 := rowOps(isa.OpPopCount, isa.Int16), rowOps(isa.OpPopCount, isa.Int32)
	if r := float64(pop32) / float64(pop16); r < 1.9 || r > 2.8 {
		t.Errorf("popcount row-op scaling 16->32 bits = %.2f, want ~2.2 (log-linear)", r)
	}
}

// TestRegisterBudget verifies no microprogram uses registers outside the
// architecture's four bit registers plus the sense-amp latch.
func TestRegisterBudget(t *testing.T) {
	ops := append([]isa.Op{isa.OpNot, isa.OpAbs, isa.OpPopCount, isa.OpSelect,
		isa.OpShiftL, isa.OpShiftR, isa.OpBroadcast}, binaryOpsUnderTest...)
	for _, op := range ops {
		p, err := Build(op, isa.Int32, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i, mo := range p.Ops {
			for _, r := range []Reg{mo.Dst, mo.A, mo.B, mo.C} {
				if r >= numRegs {
					t.Fatalf("%v op %d uses register %d beyond budget", op, i, r)
				}
			}
		}
	}
}

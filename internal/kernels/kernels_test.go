package kernels

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"pimeval/internal/isa"
)

var allTypes = []isa.DataType{
	isa.Int8, isa.Int16, isa.Int32, isa.Int64,
	isa.UInt8, isa.UInt16, isa.UInt32, isa.UInt64,
}

// The span harness runs a storage kernel on carriers: each operand is
// stored whole at its element type, the kernel runs on [lo, hi), and dst
// is loaded back whole, so a write outside the span shows as a changed
// element (truncated to the destination type, since it round-trips
// through storage). dstType is the destination's element type (compares
// may write another); a dst aliasing a aliases it in storage too. A nil
// kernel adapts to nil. Unlike the exported carrier adapters, which run a
// kernel on [0, hi-lo) of fresh storage, it hands the kernel the caller's
// span, so the tests see every kernel at an interior span.

func asBinary(k ElemsBinary, dt, dstType isa.DataType) BinaryKernel {
	if k == nil {
		return nil
	}
	return func(dst, a, b []int64, lo, hi int64) {
		ed := stored(dstType, dst)
		ea := ed
		if !sameSlice(a, dst) {
			ea = stored(dt, a)
		}
		k(ed, ea, stored(dt, b), lo, hi)
		isa.LoadInts(ed, dst, 0)
	}
}

func asScalar(k ElemsScalar, dt, dstType isa.DataType) func(dst, a []int64, s int64, lo, hi int64) {
	if k == nil {
		return nil
	}
	return func(dst, a []int64, s int64, lo, hi int64) {
		ed := stored(dstType, dst)
		ea := ed
		if !sameSlice(a, dst) {
			ea = stored(dt, a)
		}
		k(ed, ea, s, lo, hi)
		isa.LoadInts(ed, dst, 0)
	}
}

func asUnary(k ElemsUnary, dt isa.DataType) UnaryKernel {
	if k == nil {
		return nil
	}
	return func(dst, a []int64, lo, hi int64) {
		ed := stored(dt, dst)
		ea := ed
		if !sameSlice(a, dst) {
			ea = stored(dt, a)
		}
		k(ed, ea, lo, hi)
		isa.LoadInts(ed, dst, 0)
	}
}

func asShift(k ElemsShift, dt isa.DataType) ShiftKernel {
	if k == nil {
		return nil
	}
	return func(dst, a []int64, amount int, lo, hi int64) {
		ed := stored(dt, dst)
		ea := ed
		if !sameSlice(a, dst) {
			ea = stored(dt, a)
		}
		k(ed, ea, amount, lo, hi)
		isa.LoadInts(ed, dst, 0)
	}
}

// asSelect adapts a select whose condition has element type condType.
func asSelect(k ElemsSelect, condType, dt isa.DataType) func(dst, cond, a, b []int64, lo, hi int64) {
	return func(dst, cond, a, b []int64, lo, hi int64) {
		ed := stored(dt, dst)
		ec := ed
		if !sameSlice(cond, dst) {
			ec = stored(condType, cond)
		}
		k(ed, ec, stored(dt, a), stored(dt, b), lo, hi)
		isa.LoadInts(ed, dst, 0)
	}
}

// sameSlice reports whether a and b start at the same element.
func sameSlice(a, b []int64) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// dt's storage kernels under the span harness.

func binary(op isa.Op, dt isa.DataType) BinaryKernel {
	return asBinary(On(dt).Binary(op, dt), dt, dt)
}

func scalar(op isa.Op, dt isa.DataType) func(dst, a []int64, s int64, lo, hi int64) {
	return asScalar(On(dt).Scalar(op, dt), dt, dt)
}

func unary(op isa.Op, dt isa.DataType) UnaryKernel {
	return asUnary(On(dt).Unary(op), dt)
}

func shift(op isa.Op, dt isa.DataType) ShiftKernel {
	return asShift(On(dt).Shift(op), dt)
}

func fusedBinaryUnary(op1, op2 isa.Op, dt isa.DataType) BinaryKernel {
	return asBinary(On(dt).FusedBinaryUnary(op1, op2), dt, dt)
}

func fusedBinaryScalar(op1, op2 isa.Op, dt isa.DataType, s2 int64) BinaryKernel {
	return asBinary(On(dt).FusedBinaryScalar(op1, op2, s2), dt, dt)
}

func fusedScalarBinary(op1, op2 isa.Op, dt isa.DataType, s1 int64) BinaryKernel {
	return asBinary(On(dt).FusedScalarBinary(op1, op2, s1), dt, dt)
}

func fusedScalarScalar(op1, op2 isa.Op, dt isa.DataType, s1, s2 int64) UnaryKernel {
	return asUnary(On(dt).FusedScalarScalar(op1, op2, s1, s2), dt)
}

func fusedScalarUnary(op1, op2 isa.Op, dt isa.DataType, s1 int64) UnaryKernel {
	return asUnary(On(dt).FusedScalarUnary(op1, op2, s1), dt)
}

// TestRegistryComplete pins the dispatch contract: every op the device
// dispatches functionally resolves to a non-nil kernel for every element
// type, so the resolve-once path — the device's only functional path —
// never resolves a nil kernel. Compares resolve for every destination
// type and select for every condition type; no other op resolves for a
// destination of another type.
func TestRegistryComplete(t *testing.T) {
	binary := []isa.Op{
		isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpAnd, isa.OpOr,
		isa.OpXor, isa.OpXnor, isa.OpMin, isa.OpMax, isa.OpLt, isa.OpGt, isa.OpEq,
	}
	unary := []isa.Op{isa.OpNot, isa.OpAbs, isa.OpPopCount}
	for _, dt := range allTypes {
		for _, op := range binary {
			if Binary(op, dt) == nil {
				t.Errorf("Binary(%v, %v) = nil", op, dt)
			}
			if scalar(op, dt) == nil {
				t.Errorf("Scalar(%v, %v) = nil", op, dt)
			}
		}
		for _, op := range unary {
			if Unary(op, dt) == nil {
				t.Errorf("Unary(%v, %v) = nil", op, dt)
			}
		}
		for _, op := range []isa.Op{isa.OpShiftL, isa.OpShiftR} {
			if Shift(op, dt) == nil {
				t.Errorf("Shift(%v, %v) = nil", op, dt)
			}
		}
		wantSbox := dt.Bits() == 8
		for _, op := range []isa.Op{isa.OpSbox, isa.OpSboxInv} {
			if got := Unary(op, dt) != nil; got != wantSbox {
				t.Errorf("Unary(%v, %v) registered = %v, want %v", op, dt, got, wantSbox)
			}
		}
	}
	for _, dt := range allTypes {
		k := On(dt)
		for _, other := range allTypes {
			if k.Select(other) == nil {
				t.Errorf("On(%v).Select(%v) = nil", dt, other)
			}
			for _, op := range binary {
				wantKernel := other == dt || op == isa.OpLt || op == isa.OpGt || op == isa.OpEq
				if got := k.Binary(op, other) != nil; got != wantKernel {
					t.Errorf("On(%v).Binary(%v, %v) registered = %v, want %v", dt, op, other, got, wantKernel)
				}
				if got := k.Scalar(op, other) != nil; got != wantKernel {
					t.Errorf("On(%v).Scalar(%v, %v) registered = %v, want %v", dt, op, other, got, wantKernel)
				}
			}
		}
	}
}

// TestRegistryRejectsInvalid pins nil returns for out-of-range lookups and
// for ops outside each form.
func TestRegistryRejectsInvalid(t *testing.T) {
	if Binary(isa.Op(-1), isa.Int32) != nil || Binary(isa.OpAdd, isa.DataType(99)) != nil {
		t.Error("out-of-range lookup returned a kernel")
	}
	if Binary(isa.OpNot, isa.Int32) != nil {
		t.Error("unary op resolved as a binary kernel")
	}
	if Unary(isa.OpAdd, isa.Int32) != nil {
		t.Error("binary op resolved as a unary kernel")
	}
	if Shift(isa.OpAdd, isa.Int32) != nil {
		t.Error("binary op resolved as a shift kernel")
	}
	if On(isa.DataType(99)) != nil || On(isa.Int32).Binary(isa.Op(-1), isa.Int32) != nil ||
		On(isa.Int32).Binary(isa.OpAdd, isa.DataType(99)) != nil || On(isa.Int32).Select(isa.DataType(-1)) != nil {
		t.Error("out-of-range storage-typed lookup returned a kernel")
	}
	if On(isa.Int32).Unary(isa.OpAdd) != nil || On(isa.Int32).Shift(isa.OpNot) != nil {
		t.Error("storage-typed lookup resolved an op outside its form")
	}
}

// TestCanonicalContract spot-checks that kernels keep outputs canonical:
// truncated to the width, sign-extended for signed types, zero-extended for
// unsigned types (uint64 carries raw bits).
func TestCanonicalContract(t *testing.T) {
	canonical := func(dt isa.DataType, v int64) bool { return dt.Truncate(v) == v }
	cases := []struct {
		dt   isa.DataType
		a, b int64
	}{
		{isa.Int8, 127, 1},           // wrap to -128
		{isa.UInt8, 255, 1},          // wrap to 0
		{isa.Int32, -1 << 31, -1},    // MinInt32 * -1
		{isa.UInt64, -1, -1},         // raw-bit carrier
		{isa.Int16, 0x7FFF, 0x7FFF},  // mul overflow
		{isa.UInt32, 0xFFFF_FFFF, 2}, // high-bit products
	}
	ops := []isa.Op{isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpXnor, isa.OpNot}
	for _, c := range cases {
		for _, op := range ops {
			var out [1]int64
			if op == isa.OpNot {
				Unary(op, c.dt)(out[:], []int64{c.a}, 0, 1)
			} else {
				Binary(op, c.dt)(out[:], []int64{c.a}, []int64{c.b}, 0, 1)
			}
			if !canonical(c.dt, out[0]) {
				t.Errorf("%v.%v(%d, %d) = %d: not canonical", op, c.dt, c.a, c.b, out[0])
			}
		}
	}
}

// sumSeg is the int64 instantiation of the segmented-sum kernel, run over
// a as int64 storage.
func sumSeg(a []int64, lo, hi, segLen, seg0 int64, vals []int64) {
	On(isa.Int64).SumSeg(isa.Slice[int64](a), lo, hi, segLen, seg0, vals)
}

// TestSumSegSpansMidSegment checks the partial-segment accumulation used
// when shard boundaries cut segments.
func TestSumSegSpansMidSegment(t *testing.T) {
	a := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	// Whole-range reference: segments of 4 -> {10, 26}.
	whole := make([]int64, 2)
	sumSeg(a, 0, 8, 4, 0, whole)
	if whole[0] != 10 || whole[1] != 26 {
		t.Fatalf("sumSeg whole = %v", whole)
	}
	// Split at 6 (mid-segment): partials must merge to the same totals.
	p1 := make([]int64, 2) // span [0,6) overlaps segments 0..1
	sumSeg(a, 0, 6, 4, 0, p1)
	p2 := make([]int64, 1) // span [6,8) overlaps segment 1 only
	sumSeg(a, 6, 8, 4, 1, p2)
	if p1[0] != 10 || p1[1]+p2[0] != 26 {
		t.Errorf("mid-segment partials: %v + %v", p1, p2)
	}
}

// sumSegRef is the segmented sum's per-element definition.
func sumSegRef(a []int64, lo, hi, segLen, seg0 int64, vals []int64) {
	for i := lo; i < hi; i++ {
		vals[i/segLen-seg0] += a[i]
	}
}

// TestSumSegMatchesPerElement checks the segmented sum against its per-element
// definition over seeded random segment lengths, spans cut at random
// (mostly mid-segment) points, partials merged in span order, and values
// near ±2^63 so that the sums wrap.
func TestSumSegMatchesPerElement(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		segLen := 1 + rng.Int63n(300)
		n := 1 + rng.Int63n(4*segLen+500)
		a := make([]int64, n)
		for i := range a {
			switch rng.Intn(3) {
			case 0:
				a[i] = math.MaxInt64 - rng.Int63n(1000)
			case 1:
				a[i] = math.MinInt64 + rng.Int63n(1000)
			default:
				a[i] = rng.Int63() - rng.Int63()
			}
		}
		segs := (n + segLen - 1) / segLen
		want := make([]int64, segs)
		sumSegRef(a, 0, n, segLen, 0, want)

		cuts := []int64{0, n}
		for c := rng.Intn(6); c > 0; c-- {
			cuts = append(cuts, rng.Int63n(n+1))
		}
		sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
		got := make([]int64, segs)
		for s := 0; s+1 < len(cuts); s++ {
			lo, hi := cuts[s], cuts[s+1]
			if lo == hi {
				continue
			}
			seg0 := lo / segLen
			part := make([]int64, (hi-1)/segLen-seg0+1)
			ref := make([]int64, len(part))
			sumSeg(a, lo, hi, segLen, seg0, part)
			sumSegRef(a, lo, hi, segLen, seg0, ref)
			for k := range part {
				if part[k] != ref[k] {
					t.Fatalf("trial %d segLen %d span [%d,%d): partial %d = %d, want %d",
						trial, segLen, lo, hi, k, part[k], ref[k])
				}
				got[seg0+int64(k)] += part[k]
			}
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("trial %d segLen %d cuts %v: segment %d = %d, want %d",
					trial, segLen, cuts, k, got[k], want[k])
			}
		}
	}
}

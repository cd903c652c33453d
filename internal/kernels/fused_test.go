package kernels

import (
	"math/rand"
	"reflect"
	"testing"

	"pimeval/internal/isa"
)

// fusedBinaryOps and fusedUnaryOps are the stage-op universes the stream
// optimizer can combine (division excluded by the optimizer but legal here;
// the kernel layer accepts any registered pair).
var fusedBinaryOps = []isa.Op{
	isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpAnd, isa.OpOr,
	isa.OpXor, isa.OpXnor, isa.OpMin, isa.OpMax, isa.OpLt, isa.OpGt, isa.OpEq,
}
var fusedUnaryStageOps = []isa.Op{isa.OpNot, isa.OpAbs, isa.OpPopCount}

// edgeVec builds an edge-heavy canonical operand vector: width extremes,
// zero, ±1, then seeded randoms, all truncated to dt.
func edgeVec(dt isa.DataType, n int, seed int64) []int64 {
	edges := []int64{0, 1, -1, 2, -2}
	if dt.Signed() {
		hi := int64(1)<<(dt.Bits()-1) - 1
		edges = append(edges, hi, -hi-1, hi-1, -hi)
	} else {
		edges = append(edges, dt.Truncate(-1), dt.Truncate(-2))
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		if i < len(edges) {
			out[i] = dt.Truncate(edges[i])
		} else {
			out[i] = dt.Truncate(rng.Int63())
		}
	}
	return out
}

// sequentialGolden computes the two-stage result per element by composing
// the golden oracle, truncating between the stages (Ref* results are
// canonical) — the definition of what every fused kernel must reproduce
// bit-for-bit. form1Binary true = binary stage 1; form2: 0 unary, 1 scalar,
// 2 binary.
func sequentialGolden(op1, op2 isa.Op, dt isa.DataType,
	form1Binary bool, form2 int, a, b []int64, s1, s2 int64) []int64 {
	dst := make([]int64, len(a))
	for i := range a {
		mid := RefBinary(op1, dt, a[i], s1)
		if form1Binary {
			mid = RefBinary(op1, dt, a[i], b[i])
		}
		switch form2 {
		case 0:
			dst[i] = RefUnary(op2, dt, mid)
		case 1:
			dst[i] = RefBinary(op2, dt, mid, s2)
		default:
			dst[i] = RefBinary(op2, dt, mid, b[i])
		}
	}
	return dst
}

// TestFusedMatchesSequentialComposition sweeps every fused constructor over
// every type and a representative op matrix — including the three
// hand-specialized single-pass kernels (mul+add, add+max, sub+abs) — and
// requires bit-identity with the oracle's stage composition. n spans multiple
// fusedBlock chunks to exercise the composed kernels' blocking loop.
func TestFusedMatchesSequentialComposition(t *testing.T) {
	const n = fusedBlock + 37
	for _, dt := range allTypes {
		// Kernels take scalars already truncated (the dispatcher's contract).
		s1, s2 := dt.Truncate(3), dt.Truncate(-5)
		a := edgeVec(dt, n, 11)
		b := edgeVec(dt, n, 23)
		for _, op1 := range fusedBinaryOps {
			for _, op2 := range fusedUnaryStageOps {
				if k := fusedBinaryUnary(op1, op2, dt); k != nil {
					dst := make([]int64, n)
					k(dst, a, b, 0, n)
					want := sequentialGolden(op1, op2, dt, true, 0, a, b, s1, s2)
					if !reflect.DeepEqual(dst, want) {
						t.Errorf("FusedBinaryUnary(%v,%v,%v) diverges", op1, op2, dt)
					}
				}
				if k := fusedScalarUnary(op1, op2, dt, s1); k != nil {
					dst := make([]int64, n)
					k(dst, a, 0, n)
					want := sequentialGolden(op1, op2, dt, false, 0, a, b, s1, s2)
					if !reflect.DeepEqual(dst, want) {
						t.Errorf("FusedScalarUnary(%v,%v,%v) diverges", op1, op2, dt)
					}
				}
			}
			for _, op2 := range fusedBinaryOps {
				if k := fusedBinaryScalar(op1, op2, dt, s2); k != nil {
					dst := make([]int64, n)
					k(dst, a, b, 0, n)
					want := sequentialGolden(op1, op2, dt, true, 1, a, b, s1, s2)
					if !reflect.DeepEqual(dst, want) {
						t.Errorf("FusedBinaryScalar(%v,%v,%v) diverges", op1, op2, dt)
					}
				}
				if k := fusedScalarBinary(op1, op2, dt, s1); k != nil {
					dst := make([]int64, n)
					k(dst, a, b, 0, n)
					want := sequentialGolden(op1, op2, dt, false, 2, a, b, s1, s2)
					if !reflect.DeepEqual(dst, want) {
						t.Errorf("FusedScalarBinary(%v,%v,%v) diverges", op1, op2, dt)
					}
				}
				if k := fusedScalarScalar(op1, op2, dt, s1, s2); k != nil {
					dst := make([]int64, n)
					k(dst, a, 0, n)
					want := sequentialGolden(op1, op2, dt, false, 1, a, b, s1, s2)
					if !reflect.DeepEqual(dst, want) {
						t.Errorf("FusedScalarScalar(%v,%v,%v) diverges", op1, op2, dt)
					}
				}
			}
		}
	}
}

// TestFusedSpecializedRegistered pins that the hand-specialized single-pass
// kernels are registered (a missing entry would silently fall back to the
// composed form and hide a perf regression).
func TestFusedSpecializedRegistered(t *testing.T) {
	registered := map[isa.DataType]bool{
		isa.Int8:   specialized(native[isa.Int8].(*typed[int8]), true),
		isa.Int16:  specialized(native[isa.Int16].(*typed[int16]), true),
		isa.Int32:  specialized(native[isa.Int32].(*typed[int32]), true),
		isa.Int64:  specialized(native[isa.Int64].(*typed[int64]), true),
		isa.UInt8:  specialized(native[isa.UInt8].(*typed[uint8]), false),
		isa.UInt16: specialized(native[isa.UInt16].(*typed[uint16]), false),
		isa.UInt32: specialized(native[isa.UInt32].(*typed[uint32]), false),
		isa.UInt64: specialized(native[isa.UInt64].(*typed[uint64]), false),
	}
	for _, dt := range allTypes {
		if !registered[dt] {
			t.Errorf("%v: specialized fused kernels not registered", dt)
		}
	}
}

// specialized reports whether k holds scaled-add and add-max, and abs-diff
// exactly for signed types.
func specialized[T lane](k *typed[T], signed bool) bool {
	return k.scaledAdd != nil && k.addMax != nil && (k.absDiff != nil) == signed
}

// TestFusedNilForUnregisteredStage pins nil returns when either stage lacks
// a kernel. The device's validation rejects such pairs before it resolves a
// fused kernel, so a nil never reaches dispatch.
func TestFusedNilForUnregisteredStage(t *testing.T) {
	if On(isa.Int32).FusedBinaryUnary(isa.OpAdd, isa.OpSbox) != nil {
		t.Error("sbox fused for a non-8-bit type")
	}
	if On(isa.Int32).FusedBinaryUnary(isa.OpNot, isa.OpAbs) != nil {
		t.Error("unary op accepted as fused stage 1")
	}
	if On(isa.Int32).FusedScalarScalar(isa.OpAdd, isa.OpAbs, 0, 0) != nil {
		t.Error("unary op accepted as fused scalar stage 2")
	}
}

// FuzzFusedKernels drives random (op pair, type, shape, immediates, lanes)
// tuples through the fused constructors and cross-checks the sequential
// oracle composition — the executable form of the bit-identity contract.
func FuzzFusedKernels(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(2), uint8(0), int64(3), int64(-5), int64(7), int64(-1))
	f.Add(uint8(2), uint8(0), uint8(0), uint8(2), int64(127), int64(1), int64(-128), int64(255))
	f.Add(uint8(1), uint8(14), uint8(7), uint8(1), int64(-1), int64(-1), int64(1), int64(0))
	f.Fuzz(func(t *testing.T, op1b, op2b, dtb, shape uint8, s1, s2, v1, v2 int64) {
		op1 := fusedBinaryOps[int(op1b)%len(fusedBinaryOps)]
		dt := allTypes[int(dtb)%len(allTypes)]
		s1, s2 = dt.Truncate(s1), dt.Truncate(s2)
		a := edgeVec(dt, 40, v1)
		b := edgeVec(dt, 40, v2)
		a[0], b[0] = dt.Truncate(v1), dt.Truncate(v2)
		n := int64(len(a))
		dst := make([]int64, n)
		var want []int64
		switch shape % 5 {
		case 0:
			op2 := fusedUnaryStageOps[int(op2b)%len(fusedUnaryStageOps)]
			k := fusedBinaryUnary(op1, op2, dt)
			if k == nil {
				t.Skip()
			}
			k(dst, a, b, 0, n)
			want = sequentialGolden(op1, op2, dt, true, 0, a, b, s1, s2)
		case 1:
			op2 := fusedBinaryOps[int(op2b)%len(fusedBinaryOps)]
			k := fusedBinaryScalar(op1, op2, dt, s2)
			if k == nil {
				t.Skip()
			}
			k(dst, a, b, 0, n)
			want = sequentialGolden(op1, op2, dt, true, 1, a, b, s1, s2)
		case 2:
			op2 := fusedBinaryOps[int(op2b)%len(fusedBinaryOps)]
			k := fusedScalarBinary(op1, op2, dt, s1)
			if k == nil {
				t.Skip()
			}
			k(dst, a, b, 0, n)
			want = sequentialGolden(op1, op2, dt, false, 2, a, b, s1, s2)
		case 3:
			op2 := fusedBinaryOps[int(op2b)%len(fusedBinaryOps)]
			k := fusedScalarScalar(op1, op2, dt, s1, s2)
			if k == nil {
				t.Skip()
			}
			k(dst, a, 0, n)
			want = sequentialGolden(op1, op2, dt, false, 1, a, b, s1, s2)
		default:
			op2 := fusedUnaryStageOps[int(op2b)%len(fusedUnaryStageOps)]
			k := fusedScalarUnary(op1, op2, dt, s1)
			if k == nil {
				t.Skip()
			}
			k(dst, a, 0, n)
			want = sequentialGolden(op1, op2, dt, false, 0, a, b, s1, s2)
		}
		if !reflect.DeepEqual(dst, want) {
			t.Fatalf("fused diverges from sequential pair (op1=%v dt=%v shape=%d)\n got %v\nwant %v",
				op1, dt, shape%5, dst, want)
		}
	})
}

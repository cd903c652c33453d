// Fused two-stage kernels: the functional backend of the stream optimizer's
// operation fusion (internal/streamopt). A fused command applies two
// element-wise stages per lane and writes only the final result, eliminating
// the materialized intermediate of the sequential pair.
//
// Correctness contract: a fused kernel must be bit-identical to running the
// two stage kernels sequentially through a canonical-int64 intermediate. The
// generic composed kernels below get this for free by actually running the
// registered stage kernels block-by-block through a stack buffer; the
// hand-specialized single-pass kernels rely on the canonical round trip
// int64 → T → int64 being lossless, so keeping the intermediate in T instead
// of int64 cannot change the result (FuzzFusedKernels proves it over edge
// values). Aliasing (dst overlapping an input) is safe for the same reason
// it is in the sequential pair: lanes are index-aligned and each dst[i] is
// written after every read of index i.
package kernels

import "pimeval/internal/isa"

// fusedBlock is the stack-buffer span of the composed kernels: small enough
// to stay on the stack, large enough to amortize the two kernel calls.
const fusedBlock = 512

// fusedBinKey identifies a specialized two-stage kernel whose fused form
// takes two memory operands (binary+unary, binary+scalar, scalar+binary).
type fusedBinKey struct {
	op1, op2 isa.Op
	dt       isa.DataType
}

// Specialized single-pass constructors, registered at init. The int64
// arguments are the stage immediates (already truncated, the dispatcher's
// contract); shapes without an immediate ignore them.
var (
	fusedScalarBinaryTab map[fusedBinKey]func(s1 int64) BinaryKernel
	fusedBinaryUnaryTab  map[fusedBinKey]BinaryKernel
	fusedBinaryScalarTab map[fusedBinKey]func(s2 int64) BinaryKernel
)

// FusedBinaryUnary returns a kernel computing dst[i] = op2(a[i] op1 b[i]),
// or nil if either stage lacks a registered kernel.
func FusedBinaryUnary(op1, op2 isa.Op, dt isa.DataType) BinaryKernel {
	if k, ok := fusedBinaryUnaryTab[fusedBinKey{op1, op2, dt}]; ok {
		return k
	}
	k1, k2 := Binary(op1, dt), Unary(op2, dt)
	if k1 == nil || k2 == nil {
		return nil
	}
	return func(dst, a, b []int64, lo, hi int64) {
		var buf [fusedBlock]int64
		for blo := lo; blo < hi; blo += fusedBlock {
			bhi := min(blo+fusedBlock, hi)
			t := buf[:bhi-blo]
			k1(t, a[blo:bhi], b[blo:bhi], 0, bhi-blo)
			k2(dst[blo:bhi], t, 0, bhi-blo)
		}
	}
}

// FusedBinaryScalar returns a kernel computing dst[i] = (a[i] op1 b[i]) op2 s2.
func FusedBinaryScalar(op1, op2 isa.Op, dt isa.DataType, s2 int64) BinaryKernel {
	if mk, ok := fusedBinaryScalarTab[fusedBinKey{op1, op2, dt}]; ok {
		return mk(s2)
	}
	k1, k2 := Binary(op1, dt), Scalar(op2, dt)
	if k1 == nil || k2 == nil {
		return nil
	}
	return func(dst, a, b []int64, lo, hi int64) {
		var buf [fusedBlock]int64
		for blo := lo; blo < hi; blo += fusedBlock {
			bhi := min(blo+fusedBlock, hi)
			t := buf[:bhi-blo]
			k1(t, a[blo:bhi], b[blo:bhi], 0, bhi-blo)
			k2(dst[blo:bhi], t, s2, 0, bhi-blo)
		}
	}
}

// FusedScalarBinary returns a kernel computing dst[i] = (a[i] op1 s1) op2 b[i]
// — the AXPY shape when op1 = mul and op2 = add.
func FusedScalarBinary(op1, op2 isa.Op, dt isa.DataType, s1 int64) BinaryKernel {
	if mk, ok := fusedScalarBinaryTab[fusedBinKey{op1, op2, dt}]; ok {
		return mk(s1)
	}
	k1, k2 := Scalar(op1, dt), Binary(op2, dt)
	if k1 == nil || k2 == nil {
		return nil
	}
	return func(dst, a, b []int64, lo, hi int64) {
		var buf [fusedBlock]int64
		for blo := lo; blo < hi; blo += fusedBlock {
			bhi := min(blo+fusedBlock, hi)
			t := buf[:bhi-blo]
			k1(t, a[blo:bhi], s1, 0, bhi-blo)
			k2(dst[blo:bhi], t, b[blo:bhi], 0, bhi-blo)
		}
	}
}

// FusedScalarScalar returns a kernel computing dst[i] = (a[i] op1 s1) op2 s2.
func FusedScalarScalar(op1, op2 isa.Op, dt isa.DataType, s1, s2 int64) UnaryKernel {
	k1, k2 := Scalar(op1, dt), Scalar(op2, dt)
	if k1 == nil || k2 == nil {
		return nil
	}
	return func(dst, a []int64, lo, hi int64) {
		var buf [fusedBlock]int64
		for blo := lo; blo < hi; blo += fusedBlock {
			bhi := min(blo+fusedBlock, hi)
			t := buf[:bhi-blo]
			k1(t, a[blo:bhi], s1, 0, bhi-blo)
			k2(dst[blo:bhi], t, s2, 0, bhi-blo)
		}
	}
}

// FusedScalarUnary returns a kernel computing dst[i] = op2(a[i] op1 s1).
func FusedScalarUnary(op1, op2 isa.Op, dt isa.DataType, s1 int64) UnaryKernel {
	k1, k2 := Scalar(op1, dt), Unary(op2, dt)
	if k1 == nil || k2 == nil {
		return nil
	}
	return func(dst, a []int64, lo, hi int64) {
		var buf [fusedBlock]int64
		for blo := lo; blo < hi; blo += fusedBlock {
			bhi := min(blo+fusedBlock, hi)
			t := buf[:bhi-blo]
			k1(t, a[blo:bhi], s1, 0, bhi-blo)
			k2(dst[blo:bhi], t, 0, bhi-blo)
		}
	}
}

// scaledAddK is the single-pass AXPY kernel dst[i] = a[i]*s + b[i]. The
// intermediate stays in T; the canonical round trip makes this bit-identical
// to mulSK followed by addK.
func scaledAddK[T lane](s int64) BinaryKernel {
	y := T(s)
	return func(dst, a, b []int64, lo, hi int64) {
		dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
		a, b = a[:len(dst)], b[:len(dst)]
		for i := range dst {
			dst[i] = int64(T(a[i])*y + T(b[i]))
		}
	}
}

// absDiffK is the single-pass dst[i] = |a[i] - b[i]| for signed types
// (unsigned abs is the identity, so the composed fallback covers it).
func absDiffK[T signedLane](dst, a, b []int64, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		v := T(a[i]) - T(b[i])
		if v < 0 {
			v = -v
		}
		dst[i] = int64(v)
	}
}

// addMaxSK is the single-pass ReLU-style dst[i] = max(a[i]+b[i], s),
// replicating maxSK's write-the-original-operand semantics.
func addMaxSK[T lane](s int64) BinaryKernel {
	y := T(s)
	return func(dst, a, b []int64, lo, hi int64) {
		dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
		a, b = a[:len(dst)], b[:len(dst)]
		for i := range dst {
			if v := T(a[i]) + T(b[i]); v >= y {
				dst[i] = int64(v)
			} else {
				dst[i] = s
			}
		}
	}
}

func registerFusedLane[T lane](dt isa.DataType) {
	fusedScalarBinaryTab[fusedBinKey{isa.OpMul, isa.OpAdd, dt}] = scaledAddK[T]
	fusedBinaryScalarTab[fusedBinKey{isa.OpAdd, isa.OpMax, dt}] = addMaxSK[T]
}

func registerFusedSigned[T signedLane](dt isa.DataType) {
	fusedBinaryUnaryTab[fusedBinKey{isa.OpSub, isa.OpAbs, dt}] = absDiffK[T]
}

func init() {
	fusedScalarBinaryTab = make(map[fusedBinKey]func(int64) BinaryKernel)
	fusedBinaryUnaryTab = make(map[fusedBinKey]BinaryKernel)
	fusedBinaryScalarTab = make(map[fusedBinKey]func(int64) BinaryKernel)

	registerFusedLane[int8](isa.Int8)
	registerFusedLane[int16](isa.Int16)
	registerFusedLane[int32](isa.Int32)
	registerFusedLane[int64](isa.Int64)
	registerFusedLane[uint8](isa.UInt8)
	registerFusedLane[uint16](isa.UInt16)
	registerFusedLane[uint32](isa.UInt32)
	registerFusedLane[uint64](isa.UInt64)

	registerFusedSigned[int8](isa.Int8)
	registerFusedSigned[int16](isa.Int16)
	registerFusedSigned[int32](isa.Int32)
	registerFusedSigned[int64](isa.Int64)
}

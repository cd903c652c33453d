// Fused two-stage kernels: the functional backend of the stream optimizer's
// operation fusion (internal/streamopt). A fused command applies two
// element-wise stages per lane and writes only the final result, eliminating
// the materialized intermediate of the sequential pair.
//
// Correctness contract: a fused kernel must be bit-identical to running the
// two stage kernels sequentially through a materialized intermediate. The
// generic composed kernels below get this for free by actually running the
// registered stage kernels block-by-block through a stack buffer of the
// slice type; the hand-specialized single-pass kernels rely on the round
// trip through T being lossless, so keeping the intermediate in T instead
// of the slice type cannot change the result (FuzzFusedKernels proves it
// over edge values). Aliasing (dst overlapping an input) is safe for the
// same reason it is in the sequential pair: lanes are index-aligned and
// each dst[i] is written after every read of index i.
package kernels

import "pimeval/internal/isa"

// fusedBlock is the stack-buffer span of the composed kernels: small enough
// to stay on the stack, large enough to amortize the two kernel calls.
const fusedBlock = 512

// FusedBinaryUnary returns a kernel computing dst[i] = op2(a[i] op1 b[i]),
// or nil if either stage lacks a registered kernel.
func FusedBinaryUnary(op1, op2 isa.Op, dt isa.DataType) BinaryKernel {
	if !dt.Valid() {
		return nil
	}
	return BinaryKernel(canonical[dt].fusedBinaryUnary(op1, op2))
}

// FusedBinaryScalar returns a kernel computing dst[i] = (a[i] op1 b[i]) op2 s2.
func FusedBinaryScalar(op1, op2 isa.Op, dt isa.DataType, s2 int64) BinaryKernel {
	if !dt.Valid() {
		return nil
	}
	return BinaryKernel(canonical[dt].fusedBinaryScalar(op1, op2, s2))
}

// FusedScalarBinary returns a kernel computing dst[i] = (a[i] op1 s1) op2 b[i]
// — the AXPY shape when op1 = mul and op2 = add.
func FusedScalarBinary(op1, op2 isa.Op, dt isa.DataType, s1 int64) BinaryKernel {
	if !dt.Valid() {
		return nil
	}
	return BinaryKernel(canonical[dt].fusedScalarBinary(op1, op2, s1))
}

// FusedScalarScalar returns a kernel computing dst[i] = (a[i] op1 s1) op2 s2.
func FusedScalarScalar(op1, op2 isa.Op, dt isa.DataType, s1, s2 int64) UnaryKernel {
	if !dt.Valid() {
		return nil
	}
	return UnaryKernel(canonical[dt].fusedScalarScalar(op1, op2, s1, s2))
}

// FusedScalarUnary returns a kernel computing dst[i] = op2(a[i] op1 s1).
func FusedScalarUnary(op1, op2 isa.Op, dt isa.DataType, s1 int64) UnaryKernel {
	if !dt.Valid() {
		return nil
	}
	return UnaryKernel(canonical[dt].fusedScalarUnary(op1, op2, s1))
}

// The fused constructors over slice type S: a registered single-pass
// kernel when the stage pair has one, else the two stage kernels composed
// through a stack buffer of fusedBlock elements.

func (k *kernelSet[S]) fusedBinaryUnary(op1, op2 isa.Op) binaryFn[S] {
	if !op1.Valid() || !op2.Valid() {
		return nil
	}
	if op1 == isa.OpSub && op2 == isa.OpAbs && k.absDiff != nil {
		return k.absDiff
	}
	k1, k2 := k.binary[op1], k.unary[op2]
	if k1 == nil || k2 == nil {
		return nil
	}
	return func(dst, a, b []S, lo, hi int64) {
		var buf [fusedBlock]S
		for blo := lo; blo < hi; blo += fusedBlock {
			bhi := min(blo+fusedBlock, hi)
			t := buf[:bhi-blo]
			k1(t, a[blo:bhi], b[blo:bhi], 0, bhi-blo)
			k2(dst[blo:bhi], t, 0, bhi-blo)
		}
	}
}

func (k *kernelSet[S]) fusedBinaryScalar(op1, op2 isa.Op, s2 int64) binaryFn[S] {
	if !op1.Valid() || !op2.Valid() {
		return nil
	}
	if op1 == isa.OpAdd && op2 == isa.OpMax {
		return k.addMax(s2)
	}
	k1, k2 := k.binary[op1], k.scalar[op2]
	if k1 == nil || k2 == nil {
		return nil
	}
	return func(dst, a, b []S, lo, hi int64) {
		var buf [fusedBlock]S
		for blo := lo; blo < hi; blo += fusedBlock {
			bhi := min(blo+fusedBlock, hi)
			t := buf[:bhi-blo]
			k1(t, a[blo:bhi], b[blo:bhi], 0, bhi-blo)
			k2(dst[blo:bhi], t, s2, 0, bhi-blo)
		}
	}
}

func (k *kernelSet[S]) fusedScalarBinary(op1, op2 isa.Op, s1 int64) binaryFn[S] {
	if !op1.Valid() || !op2.Valid() {
		return nil
	}
	if op1 == isa.OpMul && op2 == isa.OpAdd {
		return k.scaledAdd(s1)
	}
	k1, k2 := k.scalar[op1], k.binary[op2]
	if k1 == nil || k2 == nil {
		return nil
	}
	return func(dst, a, b []S, lo, hi int64) {
		var buf [fusedBlock]S
		for blo := lo; blo < hi; blo += fusedBlock {
			bhi := min(blo+fusedBlock, hi)
			t := buf[:bhi-blo]
			k1(t, a[blo:bhi], s1, 0, bhi-blo)
			k2(dst[blo:bhi], t, b[blo:bhi], 0, bhi-blo)
		}
	}
}

func (k *kernelSet[S]) fusedScalarScalar(op1, op2 isa.Op, s1, s2 int64) unaryFn[S] {
	if !op1.Valid() || !op2.Valid() {
		return nil
	}
	k1, k2 := k.scalar[op1], k.scalar[op2]
	if k1 == nil || k2 == nil {
		return nil
	}
	return func(dst, a []S, lo, hi int64) {
		var buf [fusedBlock]S
		for blo := lo; blo < hi; blo += fusedBlock {
			bhi := min(blo+fusedBlock, hi)
			t := buf[:bhi-blo]
			k1(t, a[blo:bhi], s1, 0, bhi-blo)
			k2(dst[blo:bhi], t, s2, 0, bhi-blo)
		}
	}
}

func (k *kernelSet[S]) fusedScalarUnary(op1, op2 isa.Op, s1 int64) unaryFn[S] {
	if !op1.Valid() || !op2.Valid() {
		return nil
	}
	k1, k2 := k.scalar[op1], k.unary[op2]
	if k1 == nil || k2 == nil {
		return nil
	}
	return func(dst, a []S, lo, hi int64) {
		var buf [fusedBlock]S
		for blo := lo; blo < hi; blo += fusedBlock {
			bhi := min(blo+fusedBlock, hi)
			t := buf[:bhi-blo]
			k1(t, a[blo:bhi], s1, 0, bhi-blo)
			k2(dst[blo:bhi], t, 0, bhi-blo)
		}
	}
}

// scaledAddK is the single-pass AXPY kernel dst[i] = a[i]*s + b[i]. The
// intermediate stays in T; the lossless round trip makes this bit-identical
// to mulSK followed by addK.
func scaledAddK[S, T lane](s int64) binaryFn[S] {
	y := T(s)
	return func(dst, a, b []S, lo, hi int64) {
		dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
		a, b = a[:len(dst)], b[:len(dst)]
		for i := range dst {
			dst[i] = S(T(a[i])*y + T(b[i]))
		}
	}
}

// absDiffK is the single-pass dst[i] = |a[i] - b[i]| for signed types
// (unsigned abs is the identity, so the composed fallback covers it).
func absDiffK[S, T signedLane](dst, a, b []S, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		v := T(a[i]) - T(b[i])
		if v < 0 {
			v = -v
		}
		dst[i] = S(v)
	}
}

// addMaxSK is the single-pass ReLU-style dst[i] = max(a[i]+b[i], s),
// replicating maxSK's write-the-original-operand semantics.
func addMaxSK[S, T lane](s int64) binaryFn[S] {
	y, ys := T(s), S(s)
	return func(dst, a, b []S, lo, hi int64) {
		dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
		a, b = a[:len(dst)], b[:len(dst)]
		for i := range dst {
			if v := T(a[i]) + T(b[i]); v >= y {
				dst[i] = S(v)
			} else {
				dst[i] = ys
			}
		}
	}
}

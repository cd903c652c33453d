// Fused two-stage kernels: the functional backend of the stream optimizer's
// operation fusion (internal/streamopt). A fused command applies two
// element-wise stages per lane and writes only the final result, eliminating
// the materialized intermediate of the sequential pair.
//
// Correctness contract: a fused kernel must be bit-identical to running the
// two stage kernels sequentially through a materialized intermediate. The
// generic composed kernels below get this for free by actually running the
// registered stage kernels block-by-block through a stack buffer of the
// storage type; the hand-specialized single-pass kernels keep the
// intermediate in a T variable, which holds exactly what the buffer would
// (FuzzFusedKernels proves it over edge values). Aliasing (dst overlapping an input) is safe for the
// same reason it is in the sequential pair: lanes are index-aligned and
// each dst[i] is written after every read of index i.
package kernels

import "pimeval/internal/isa"

// fusedBlock is the stack-buffer span of the composed kernels: small enough
// to stay on the stack, large enough to amortize the two kernel calls.
const fusedBlock = 512

// The fused constructors: a registered single-pass kernel when the stage
// pair has one, else the two stage kernels composed through a stack buffer
// of fusedBlock elements, or nil if either stage lacks a kernel.
// FusedBinaryUnary computes dst[i] = op2(a[i] op1 b[i]), FusedBinaryScalar
// (a[i] op1 b[i]) op2 s2, FusedScalarBinary (a[i] op1 s1) op2 b[i] — the
// AXPY shape when op1 = mul and op2 = add — FusedScalarScalar
// (a[i] op1 s1) op2 s2, and FusedScalarUnary op2(a[i] op1 s1).

func (t *typed[T]) FusedBinaryUnary(op1, op2 isa.Op) ElemsBinary {
	if !op1.Valid() || !op2.Valid() {
		return nil
	}
	if op1 == isa.OpSub && op2 == isa.OpAbs && t.absDiff != nil {
		return onBinary(t.absDiff)
	}
	k1, k2 := t.binary[op1], t.unary[op2]
	if k1 == nil || k2 == nil {
		return nil
	}
	return onBinary(func(dst, a, b []T, lo, hi int64) {
		var buf [fusedBlock]T
		for blo := lo; blo < hi; blo += fusedBlock {
			bhi := min(blo+fusedBlock, hi)
			mid := buf[:bhi-blo]
			k1(mid, a[blo:bhi], b[blo:bhi], 0, bhi-blo)
			k2(dst[blo:bhi], mid, 0, bhi-blo)
		}
	})
}

func (t *typed[T]) FusedBinaryScalar(op1, op2 isa.Op, s2 int64) ElemsBinary {
	if !op1.Valid() || !op2.Valid() {
		return nil
	}
	if op1 == isa.OpAdd && op2 == isa.OpMax {
		return onBinary(t.addMax(s2))
	}
	k1, k2 := t.binary[op1], t.scalar[op2]
	if k1 == nil || k2 == nil {
		return nil
	}
	return onBinary(func(dst, a, b []T, lo, hi int64) {
		var buf [fusedBlock]T
		for blo := lo; blo < hi; blo += fusedBlock {
			bhi := min(blo+fusedBlock, hi)
			mid := buf[:bhi-blo]
			k1(mid, a[blo:bhi], b[blo:bhi], 0, bhi-blo)
			k2(dst[blo:bhi], mid, s2, 0, bhi-blo)
		}
	})
}

func (t *typed[T]) FusedScalarBinary(op1, op2 isa.Op, s1 int64) ElemsBinary {
	if !op1.Valid() || !op2.Valid() {
		return nil
	}
	if op1 == isa.OpMul && op2 == isa.OpAdd {
		return onBinary(t.scaledAdd(s1))
	}
	k1, k2 := t.scalar[op1], t.binary[op2]
	if k1 == nil || k2 == nil {
		return nil
	}
	return onBinary(func(dst, a, b []T, lo, hi int64) {
		var buf [fusedBlock]T
		for blo := lo; blo < hi; blo += fusedBlock {
			bhi := min(blo+fusedBlock, hi)
			mid := buf[:bhi-blo]
			k1(mid, a[blo:bhi], s1, 0, bhi-blo)
			k2(dst[blo:bhi], mid, b[blo:bhi], 0, bhi-blo)
		}
	})
}

func (t *typed[T]) FusedScalarScalar(op1, op2 isa.Op, s1, s2 int64) ElemsUnary {
	if !op1.Valid() || !op2.Valid() {
		return nil
	}
	k1, k2 := t.scalar[op1], t.scalar[op2]
	if k1 == nil || k2 == nil {
		return nil
	}
	return onUnary(func(dst, a []T, lo, hi int64) {
		var buf [fusedBlock]T
		for blo := lo; blo < hi; blo += fusedBlock {
			bhi := min(blo+fusedBlock, hi)
			mid := buf[:bhi-blo]
			k1(mid, a[blo:bhi], s1, 0, bhi-blo)
			k2(dst[blo:bhi], mid, s2, 0, bhi-blo)
		}
	})
}

func (t *typed[T]) FusedScalarUnary(op1, op2 isa.Op, s1 int64) ElemsUnary {
	if !op1.Valid() || !op2.Valid() {
		return nil
	}
	k1, k2 := t.scalar[op1], t.unary[op2]
	if k1 == nil || k2 == nil {
		return nil
	}
	return onUnary(func(dst, a []T, lo, hi int64) {
		var buf [fusedBlock]T
		for blo := lo; blo < hi; blo += fusedBlock {
			bhi := min(blo+fusedBlock, hi)
			mid := buf[:bhi-blo]
			k1(mid, a[blo:bhi], s1, 0, bhi-blo)
			k2(dst[blo:bhi], mid, 0, bhi-blo)
		}
	})
}

// scaledAddK is the single-pass AXPY kernel dst[i] = a[i]*s + b[i]. The
// intermediate stays in T, as mulSK would store it, so this is
// bit-identical to mulSK followed by addK.
func scaledAddK[T lane](s int64) binaryFn[T] {
	y := T(s)
	return func(dst, a, b []T, lo, hi int64) {
		dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
		a, b = a[:len(dst)], b[:len(dst)]
		for i := range dst {
			dst[i] = a[i]*y + b[i]
		}
	}
}

// absDiffK is the single-pass dst[i] = |a[i] - b[i]| for signed types
// (unsigned abs is the identity, so the composed fallback covers it).
func absDiffK[T signedLane](dst, a, b []T, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		v := a[i] - b[i]
		if v < 0 {
			v = -v
		}
		dst[i] = v
	}
}

// addMaxSK is the single-pass ReLU-style dst[i] = max(a[i]+b[i], s), as
// addK then maxSK store it.
func addMaxSK[T lane](s int64) binaryFn[T] {
	y := T(s)
	return func(dst, a, b []T, lo, hi int64) {
		dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
		a, b = a[:len(dst)], b[:len(dst)]
		for i := range dst {
			dst[i] = max(a[i]+b[i], y)
		}
	}
}

package kernels

import "pimeval/internal/isa"

// The storage-typed kernels: the device's entry points. Each is a body of
// this package instantiated at S = T, the element type's machine type, and
// wrapped to take objects' isa.Elems storage. The wrapper asserts each
// operand's concrete Slice type once per call — once per span — and the
// loop inside runs on the machine slices.

// ElemsBinary computes dst = a op b over elements [lo, hi) of storage.
type ElemsBinary func(dst, a, b isa.Elems, lo, hi int64)

// ElemsScalar computes dst = a op s over [lo, hi); s is already truncated.
type ElemsScalar func(dst, a isa.Elems, s int64, lo, hi int64)

// ElemsUnary computes dst = op a over [lo, hi).
type ElemsUnary func(dst, a isa.Elems, lo, hi int64)

// ElemsShift computes dst = a shifted by amount over [lo, hi).
type ElemsShift func(dst, a isa.Elems, amount int, lo, hi int64)

// ElemsSelect computes dst = cond != 0 ? a : b over [lo, hi).
type ElemsSelect func(dst, cond, a, b isa.Elems, lo, hi int64)

// Typed is one element type's kernels over its objects' storage. Operands
// are that type's storage, except the destination of a compare and the
// condition of a select, whose type is the method's argument. A nil kernel
// means the op has none at this type, as for the exported kernels.
type Typed interface {
	// Binary returns the kernel for op writing a dst-typed destination;
	// only compares admit a dst other than the operand type.
	Binary(op isa.Op, dst isa.DataType) ElemsBinary
	Scalar(op isa.Op, dst isa.DataType) ElemsScalar
	Unary(op isa.Op) ElemsUnary
	Shift(op isa.Op) ElemsShift
	// Select returns the select kernel taking a cond-typed condition.
	Select(cond isa.DataType) ElemsSelect
	Fill(dst isa.Elems, v int64, lo, hi int64)
	Sum(a isa.Elems, lo, hi int64) int64
	SumSeg(a isa.Elems, lo, hi, segLen, seg0 int64, vals []int64)
	FusedBinaryUnary(op1, op2 isa.Op) ElemsBinary
	FusedBinaryScalar(op1, op2 isa.Op, s2 int64) ElemsBinary
	FusedScalarBinary(op1, op2 isa.Op, s1 int64) ElemsBinary
	FusedScalarScalar(op1, op2 isa.Op, s1, s2 int64) ElemsUnary
	FusedScalarUnary(op1, op2 isa.Op, s1 int64) ElemsUnary
}

// native holds each element type's storage-typed kernels, filled at init.
var native [isa.NumTypes]Typed

// On returns the storage-typed kernels of element type dt, or nil for an
// invalid type.
func On(dt isa.DataType) Typed {
	if !dt.Valid() {
		return nil
	}
	return native[dt]
}

// typed is Typed for machine type T, element type dt. set holds the bodies
// at S = T; into holds, per element type, the kernels whose destination
// (compares) or condition (select) has that type, each instantiated at
// that type so no loop converts through a buffer. Lookups wrap set's
// kernels for storage in a closure made per call, that is per command, so
// the registry keeps few closures for the garbage collector to mark on
// every cycle.
type typed[T lane] struct {
	dt   isa.DataType
	set  kernelSet[T]
	into [isa.NumTypes]struct {
		binary func(op isa.Op) ElemsBinary
		scalar func(op isa.Op) ElemsScalar
		sel    ElemsSelect
	}
}

// register fills into for every element type and makes t dt's
// storage-typed kernels.
func (t *typed[T]) register(dt isa.DataType) {
	t.dt = dt
	into[int8, T](t, isa.Int8)
	into[int16, T](t, isa.Int16)
	into[int32, T](t, isa.Int32)
	into[int64, T](t, isa.Int64)
	into[uint8, T](t, isa.UInt8)
	into[uint16, T](t, isa.UInt16)
	into[uint32, T](t, isa.UInt32)
	into[uint64, T](t, isa.UInt64)
	native[dt] = t
}

// into registers the kernels of element type T whose destination or
// condition has machine type D, element type odt.
func into[D, T lane](t *typed[T], odt isa.DataType) {
	e := &t.into[odt]
	e.binary, e.scalar, e.sel = compareInto[D, T], compareScalarInto[D, T], selectOn[D, T]
}

// compareInto returns compare op over T operands writing a D-typed
// destination, or nil if op is not a compare.
func compareInto[D, T lane](op isa.Op) ElemsBinary {
	switch op {
	case isa.OpLt:
		return onBinary(ltK[D, T, T])
	case isa.OpGt:
		return onBinary(gtK[D, T, T])
	case isa.OpEq:
		return onBinary(eqK[D, T, T])
	}
	return nil
}

func compareScalarInto[D, T lane](op isa.Op) ElemsScalar {
	switch op {
	case isa.OpLt:
		return onScalar(ltSK[D, T, T])
	case isa.OpGt:
		return onScalar(gtSK[D, T, T])
	case isa.OpEq:
		return onScalar(eqSK[D, T, T])
	}
	return nil
}

// selectOn is select over S operands with a C-typed condition.
func selectOn[C, S lane](dst, cond, a, b isa.Elems, lo, hi int64) {
	selectK(dst.(isa.Slice[S]), cond.(isa.Slice[C]), a.(isa.Slice[S]), b.(isa.Slice[S]), lo, hi)
}

func onBinary[D, S lane](k func(dst []D, a, b []S, lo, hi int64)) ElemsBinary {
	if k == nil {
		return nil
	}
	return func(dst, a, b isa.Elems, lo, hi int64) {
		k(dst.(isa.Slice[D]), a.(isa.Slice[S]), b.(isa.Slice[S]), lo, hi)
	}
}

func onScalar[D, S lane](k func(dst []D, a []S, s int64, lo, hi int64)) ElemsScalar {
	if k == nil {
		return nil
	}
	return func(dst, a isa.Elems, s int64, lo, hi int64) {
		k(dst.(isa.Slice[D]), a.(isa.Slice[S]), s, lo, hi)
	}
}

func onUnary[S lane](k unaryFn[S]) ElemsUnary {
	if k == nil {
		return nil
	}
	return func(dst, a isa.Elems, lo, hi int64) {
		k(dst.(isa.Slice[S]), a.(isa.Slice[S]), lo, hi)
	}
}

func onShift[S lane](k shiftFn[S]) ElemsShift {
	if k == nil {
		return nil
	}
	return func(dst, a isa.Elems, amount int, lo, hi int64) {
		k(dst.(isa.Slice[S]), a.(isa.Slice[S]), amount, lo, hi)
	}
}

// Binary and Scalar resolve every compare through into, also at T itself,
// and any other op only for a T-typed destination.
func (t *typed[T]) Binary(op isa.Op, dst isa.DataType) ElemsBinary {
	switch {
	case !op.Valid() || !dst.Valid():
		return nil
	case isCompare(op):
		return t.into[dst].binary(op)
	case dst != t.dt:
		return nil
	}
	return onBinary[T, T](t.set.binary[op])
}

func (t *typed[T]) Scalar(op isa.Op, dst isa.DataType) ElemsScalar {
	switch {
	case !op.Valid() || !dst.Valid():
		return nil
	case isCompare(op):
		return t.into[dst].scalar(op)
	case dst != t.dt:
		return nil
	}
	return onScalar[T, T](t.set.scalar[op])
}

func (t *typed[T]) Unary(op isa.Op) ElemsUnary {
	if !op.Valid() {
		return nil
	}
	return onUnary[T](t.set.unary[op])
}

func (t *typed[T]) Shift(op isa.Op) ElemsShift {
	if !op.Valid() {
		return nil
	}
	return onShift[T](t.set.shift[op])
}

func (t *typed[T]) Select(cond isa.DataType) ElemsSelect {
	if !cond.Valid() {
		return nil
	}
	return t.into[cond].sel
}

// isCompare reports whether op writes a 0/1 mask, the one result a
// destination of another type may hold.
func isCompare(op isa.Op) bool {
	return op == isa.OpLt || op == isa.OpGt || op == isa.OpEq
}

func (t *typed[T]) Fill(dst isa.Elems, v int64, lo, hi int64) {
	fillK(dst.(isa.Slice[T]), v, lo, hi)
}

func (t *typed[T]) Sum(a isa.Elems, lo, hi int64) int64 {
	return sumK(a.(isa.Slice[T]), lo, hi)
}

func (t *typed[T]) SumSeg(a isa.Elems, lo, hi, segLen, seg0 int64, vals []int64) {
	sumSegK(a.(isa.Slice[T]), lo, hi, segLen, seg0, vals)
}

func (t *typed[T]) FusedBinaryUnary(op1, op2 isa.Op) ElemsBinary {
	return onBinary[T, T](t.set.fusedBinaryUnary(op1, op2))
}

func (t *typed[T]) FusedBinaryScalar(op1, op2 isa.Op, s2 int64) ElemsBinary {
	return onBinary[T, T](t.set.fusedBinaryScalar(op1, op2, s2))
}

func (t *typed[T]) FusedScalarBinary(op1, op2 isa.Op, s1 int64) ElemsBinary {
	return onBinary[T, T](t.set.fusedScalarBinary(op1, op2, s1))
}

func (t *typed[T]) FusedScalarScalar(op1, op2 isa.Op, s1, s2 int64) ElemsUnary {
	return onUnary[T](t.set.fusedScalarScalar(op1, op2, s1, s2))
}

func (t *typed[T]) FusedScalarUnary(op1, op2 isa.Op, s1 int64) ElemsUnary {
	return onUnary[T](t.set.fusedScalarUnary(op1, op2, s1))
}

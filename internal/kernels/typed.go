package kernels

import "pimeval/internal/isa"

// The storage-typed kernels: the device's entry points. Each is a body of
// this package instantiated at the element type's machine type T, or for a
// compare's destination and a select's operands at a width class, and
// wrapped to take objects' isa.Elems storage. The wrapper asserts each
// operand's concrete Slice type, or takes its same-width unsigned view,
// once per call — once per span — and the loop inside runs on the machine
// slices.

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
// means the op has none at this type.
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

// typed is Typed for machine type T, element type dt. A nil entry means
// the (op, type) pair is not a command the device dispatches; every pair
// it does dispatch has a kernel (TestRegistryComplete). The fused fields
// are the single-pass two-stage kernels (fused.go). into holds, per width
// class, the compares writing a destination of that width and the select
// taking a condition of that width. Lookups wrap the kernels for storage
// in a closure made per call, that is per command, so the registry keeps
// few closures for the garbage collector to mark on every cycle.
type typed[T lane] struct {
	dt     isa.DataType
	binary [isa.NumOps]binaryFn[T]
	scalar [isa.NumOps]scalarFn[T]
	unary  [isa.NumOps]unaryFn[T]
	shift  [isa.NumOps]shiftFn[T]

	scaledAdd func(s1 int64) binaryFn[T] // mul then add, scalar-binary
	addMax    func(s2 int64) binaryFn[T] // add then max, binary-scalar
	absDiff   binaryFn[T]                // sub then abs, signed types only

	into [numWidths]struct {
		binary func(op isa.Op) ElemsBinary
		scalar func(op isa.Op) ElemsScalar
		sel    ElemsSelect
	}
}

// into registers the compares of element type T writing a destination of
// width class D, and the select over data of T's width class U taking a
// condition of width class D; odt is an element type of D's width.
func into[D, U unsignedLane, T lane](t *typed[T], odt isa.DataType) {
	e := &t.into[widthClass(odt)]
	e.binary, e.scalar, e.sel = compareInto[D, T], compareScalarInto[D, T], selectOn[D, U]
}

// compareInto returns compare op over T operands writing a mask of width
// class D, or nil if op is not a compare.
func compareInto[D unsignedLane, T lane](op isa.Op) ElemsBinary {
	switch op {
	case isa.OpLt:
		return onMask(ltK[D, T])
	case isa.OpGt:
		return onMask(gtK[D, T])
	case isa.OpEq:
		return onMask(eqK[D, T])
	}
	return nil
}

func compareScalarInto[D unsignedLane, T lane](op isa.Op) ElemsScalar {
	switch op {
	case isa.OpLt:
		return onMaskScalar(ltSK[D, T])
	case isa.OpGt:
		return onMaskScalar(gtSK[D, T])
	case isa.OpEq:
		return onMaskScalar(eqSK[D, T])
	}
	return nil
}

// selectOn is select over data of width class D with a condition of width
// class C.
func selectOn[C, D unsignedLane](dst, cond, a, b isa.Elems, lo, hi int64) {
	selectK(isa.Unsigned[D](dst), isa.Unsigned[C](cond), isa.Unsigned[D](a), isa.Unsigned[D](b), lo, hi)
}

// onMask and onMaskScalar wrap a compare writing a D mask for storage: the
// destination, of any type of D's width, is reached through its unsigned
// view.
func onMask[D unsignedLane, T lane](k func(dst []D, a, b []T, lo, hi int64)) ElemsBinary {
	return func(dst, a, b isa.Elems, lo, hi int64) {
		k(isa.Unsigned[D](dst), a.(isa.Slice[T]), b.(isa.Slice[T]), lo, hi)
	}
}

func onMaskScalar[D unsignedLane, T lane](k func(dst []D, a []T, s int64, lo, hi int64)) ElemsScalar {
	return func(dst, a isa.Elems, s int64, lo, hi int64) {
		k(isa.Unsigned[D](dst), a.(isa.Slice[T]), s, lo, hi)
	}
}

// maskBinary and maskScalar adapt a compare writing a mask of width class
// U to write T elements of the same width, for the fused kernels' stages.
func maskBinary[U unsignedLane, T lane](k func(dst []U, a, b []T, lo, hi int64)) binaryFn[T] {
	return func(dst, a, b []T, lo, hi int64) {
		k(isa.Unsigned[U](isa.Slice[T](dst)), a, b, lo, hi)
	}
}

func maskScalar[U unsignedLane, T lane](k func(dst []U, a []T, s int64, lo, hi int64)) scalarFn[T] {
	return func(dst, a []T, s int64, lo, hi int64) {
		k(isa.Unsigned[U](isa.Slice[T](dst)), a, s, lo, hi)
	}
}

func onBinary[T lane](k binaryFn[T]) ElemsBinary {
	if k == nil {
		return nil
	}
	return func(dst, a, b isa.Elems, lo, hi int64) {
		k(dst.(isa.Slice[T]), a.(isa.Slice[T]), b.(isa.Slice[T]), lo, hi)
	}
}

func onScalar[T lane](k scalarFn[T]) ElemsScalar {
	if k == nil {
		return nil
	}
	return func(dst, a isa.Elems, s int64, lo, hi int64) {
		k(dst.(isa.Slice[T]), a.(isa.Slice[T]), s, lo, hi)
	}
}

func onUnary[T lane](k unaryFn[T]) ElemsUnary {
	if k == nil {
		return nil
	}
	return func(dst, a isa.Elems, lo, hi int64) {
		k(dst.(isa.Slice[T]), a.(isa.Slice[T]), lo, hi)
	}
}

func onShift[T lane](k shiftFn[T]) ElemsShift {
	if k == nil {
		return nil
	}
	return func(dst, a isa.Elems, amount int, lo, hi int64) {
		k(dst.(isa.Slice[T]), a.(isa.Slice[T]), amount, lo, hi)
	}
}

// Binary and Scalar resolve every compare through into, also at T itself,
// and any other op only for a T-typed destination.
func (t *typed[T]) Binary(op isa.Op, dst isa.DataType) ElemsBinary {
	switch {
	case !op.Valid() || !dst.Valid():
		return nil
	case isCompare(op):
		return t.into[widthClass(dst)].binary(op)
	case dst != t.dt:
		return nil
	}
	return onBinary(t.binary[op])
}

func (t *typed[T]) Scalar(op isa.Op, dst isa.DataType) ElemsScalar {
	switch {
	case !op.Valid() || !dst.Valid():
		return nil
	case isCompare(op):
		return t.into[widthClass(dst)].scalar(op)
	case dst != t.dt:
		return nil
	}
	return onScalar(t.scalar[op])
}

func (t *typed[T]) Unary(op isa.Op) ElemsUnary {
	if !op.Valid() {
		return nil
	}
	return onUnary(t.unary[op])
}

func (t *typed[T]) Shift(op isa.Op) ElemsShift {
	if !op.Valid() {
		return nil
	}
	return onShift(t.shift[op])
}

func (t *typed[T]) Select(cond isa.DataType) ElemsSelect {
	if !cond.Valid() {
		return nil
	}
	return t.into[widthClass(cond)].sel
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

// Package kernels provides the type-specialized element kernels behind the
// functional simulator's hot path. Every element-wise PIM command spends its
// simulated-workload wall-clock in a loop over the object's elements; a
// generic per-element evaluator would pay an op switch, a signedness branch,
// and a truncation per lane. The kernels here hoist all of that out of the
// loop: the dispatch pipeline resolves one kernel per (op, element type)
// once per command, and the kernel body is a tight slice loop whose
// truncation and signedness semantics are compiled in by Go generics —
// add/mul/and on power-of-two widths become mask-free native arithmetic on
// the width's machine type.
//
// Value representation contract (shared with internal/device): an element
// travels in one of two forms. In object storage (isa.Elems) it is its
// type's machine integer, exactly Bits() wide. At the host boundary and in
// the exported []int64 kernels below it is the canonical int64 carrier —
// truncated to the element width, sign-extended for signed types,
// zero-extended for unsigned types (uint64 carries its raw bits, so the
// int64 may be negative). Each kernel body is generic over the slice type S
// it reads and writes and the element type T whose semantics it applies:
// S(T(x)) truncates and re-extends, so one body serves both forms. The
// exported kernels instantiate it at S = int64 and the storage kernels
// (On) at S = T; the round trip int64 → T → int64 preserves exactly the
// canonical form, which is what makes the loops mask-free in both.
//
// The registry is total over the command set the device dispatches
// functionally: Binary/Scalar cover the 13 element-wise binary ops, Unary
// covers not/abs/popcount/sbox (sbox only at 8-bit widths), Shift covers
// both shifts (TestRegistryComplete pins this). The kernels are the only
// functional execution path. The golden semantics they must reproduce are
// written once, per element, in ref.go (RefBinary/RefUnary/RefShift); the
// differential tests and fuzz targets here, in internal/device and its
// paralleltest, and in the microprogram packages compare against them.
package kernels

import "pimeval/internal/isa"

// BinaryKernel computes dst[i] = op(a[i], b[i]) for i in [lo, hi).
// All slices carry canonical values; dst may alias a or b.
type BinaryKernel func(dst, a, b []int64, lo, hi int64)

// ScalarKernel computes dst[i] = op(a[i], s) for i in [lo, hi), with the
// scalar s already truncated to the operand type (the dispatcher's contract).
type ScalarKernel func(dst, a []int64, s int64, lo, hi int64)

// UnaryKernel computes dst[i] = op(a[i]) for i in [lo, hi).
type UnaryKernel func(dst, a []int64, lo, hi int64)

// ShiftKernel computes dst[i] = a[i] shifted by amount for i in [lo, hi).
// amount must be non-negative; amounts at or past the element width follow
// the hardware semantics (zero, or all-ones for arithmetic right shifts of
// negative values), which Go's shift operators provide natively.
type ShiftKernel func(dst, a []int64, amount int, lo, hi int64)

// lane is the set of element machine types kernels specialize over — the
// 8 PIM element types of isa.DataType — both as slice type S and as
// semantic type T.
type lane = isa.Lane

// signedLane and unsignedLane split the lanes for the ops whose semantics
// depend on signedness in ways the machine type alone does not express
// (division's all-ones quotient, abs).
type signedLane interface {
	int8 | int16 | int32 | int64
}

type unsignedLane interface {
	uint8 | uint16 | uint32 | uint64
}

// The kernel shapes over slice type S; at S = int64 they are the exported
// BinaryKernel, ScalarKernel, UnaryKernel and ShiftKernel.
type (
	binaryFn[S lane] func(dst, a, b []S, lo, hi int64)
	scalarFn[S lane] func(dst, a []S, s int64, lo, hi int64)
	unaryFn[S lane]  func(dst, a []S, lo, hi int64)
	shiftFn[S lane]  func(dst, a []S, amount int, lo, hi int64)
)

// kernelSet is one element type's kernels over slice type S. A nil entry
// means the (op, type) pair is not a command the device dispatches; every
// pair it does dispatch has a kernel (TestRegistryComplete). The fused
// fields are the single-pass two-stage kernels (fused.go).
type kernelSet[S lane] struct {
	binary [isa.NumOps]binaryFn[S]
	scalar [isa.NumOps]scalarFn[S]
	unary  [isa.NumOps]unaryFn[S]
	shift  [isa.NumOps]shiftFn[S]

	scaledAdd func(s1 int64) binaryFn[S] // mul then add, scalar-binary
	addMax    func(s2 int64) binaryFn[S] // add then max, binary-scalar
	absDiff   binaryFn[S]                // sub then abs, signed types only
}

// canonical holds every element type's kernels over int64 carriers: the
// exported kernels. native (typed.go) holds the same bodies over storage.
var canonical [isa.NumTypes]kernelSet[int64]

// Binary returns the specialized kernel for an element-wise binary op, or
// nil if none is registered.
func Binary(op isa.Op, dt isa.DataType) BinaryKernel {
	if !op.Valid() || !dt.Valid() {
		return nil
	}
	return BinaryKernel(canonical[dt].binary[op])
}

// Scalar returns the scalar-broadcast kernel for a binary op, or nil.
func Scalar(op isa.Op, dt isa.DataType) ScalarKernel {
	if !op.Valid() || !dt.Valid() {
		return nil
	}
	return ScalarKernel(canonical[dt].scalar[op])
}

// Unary returns the kernel for a unary op, or nil.
func Unary(op isa.Op, dt isa.DataType) UnaryKernel {
	if !op.Valid() || !dt.Valid() {
		return nil
	}
	return UnaryKernel(canonical[dt].unary[op])
}

// Shift returns the kernel for a shift op, or nil.
func Shift(op isa.Op, dt isa.DataType) ShiftKernel {
	if !op.Valid() || !dt.Valid() {
		return nil
	}
	return ShiftKernel(canonical[dt].shift[op])
}

// registerLane fills every signedness-neutral entry of k for element type
// T over slice type S: T carries the width, wraparound, and comparison
// semantics, so one generic body serves all 8 types in both forms.
func registerLane[S, T lane](k *kernelSet[S], dt isa.DataType) {
	k.binary[isa.OpAdd] = addK[S, T]
	k.binary[isa.OpSub] = subK[S, T]
	k.binary[isa.OpMul] = mulK[S, T]
	k.binary[isa.OpAnd] = andK[S, T]
	k.binary[isa.OpOr] = orK[S, T]
	k.binary[isa.OpXor] = xorK[S, T]
	k.binary[isa.OpXnor] = xnorK[S, T]
	k.binary[isa.OpMin] = minK[S, T]
	k.binary[isa.OpMax] = maxK[S, T]
	k.binary[isa.OpLt] = ltK[S, S, T]
	k.binary[isa.OpGt] = gtK[S, S, T]
	k.binary[isa.OpEq] = eqK[S, S, T]

	k.scalar[isa.OpAdd] = addSK[S, T]
	k.scalar[isa.OpSub] = subSK[S, T]
	k.scalar[isa.OpMul] = mulSK[S, T]
	k.scalar[isa.OpAnd] = andSK[S, T]
	k.scalar[isa.OpOr] = orSK[S, T]
	k.scalar[isa.OpXor] = xorSK[S, T]
	k.scalar[isa.OpXnor] = xnorSK[S, T]
	k.scalar[isa.OpMin] = minSK[S, T]
	k.scalar[isa.OpMax] = maxSK[S, T]
	k.scalar[isa.OpLt] = ltSK[S, S, T]
	k.scalar[isa.OpGt] = gtSK[S, S, T]
	k.scalar[isa.OpEq] = eqSK[S, S, T]

	k.unary[isa.OpNot] = notK[S, T]
	k.unary[isa.OpPopCount] = popcountK[S](dt.Bits())
	if dt.Bits() == 8 {
		k.unary[isa.OpSbox] = sboxK[S, T](&AESSbox)
		k.unary[isa.OpSboxInv] = sboxK[S, T](&AESSboxInv)
	}

	k.shift[isa.OpShiftL] = shlK[S, T]
	k.shift[isa.OpShiftR] = shrK[S, T]

	k.scaledAdd = scaledAddK[S, T]
	k.addMax = addMaxSK[S, T]
}

// registerSignedOps fills the signedness-dependent entries for a signed T.
func registerSignedOps[S, T signedLane](k *kernelSet[S]) {
	k.binary[isa.OpDiv] = divSK[S, T]
	k.scalar[isa.OpDiv] = divSSK[S, T]
	k.unary[isa.OpAbs] = absSK[S, T]
	k.absDiff = absDiffK[S, T]
}

// registerUnsignedOps fills the signedness-dependent entries for an
// unsigned T.
func registerUnsignedOps[S lane, T unsignedLane](k *kernelSet[S]) {
	k.binary[isa.OpDiv] = divUK[S, T]
	k.scalar[isa.OpDiv] = divUSK[S, T]
	k.unary[isa.OpAbs] = copyK[S]
}

// registerSigned and registerUnsigned instantiate element type T's bodies
// in both forms: over int64 carriers into canonical, over T into native.
func registerSigned[T signedLane](dt isa.DataType) {
	registerLane[int64, T](&canonical[dt], dt)
	registerSignedOps[int64, T](&canonical[dt])
	t := new(typed[T])
	registerLane[T, T](&t.set, dt)
	registerSignedOps[T, T](&t.set)
	t.register(dt)
}

func registerUnsigned[T unsignedLane](dt isa.DataType) {
	registerLane[int64, T](&canonical[dt], dt)
	registerUnsignedOps[int64, T](&canonical[dt])
	t := new(typed[T])
	registerLane[T, T](&t.set, dt)
	registerUnsignedOps[T, T](&t.set)
	t.register(dt)
}

func init() {
	registerSigned[int8](isa.Int8)
	registerSigned[int16](isa.Int16)
	registerSigned[int32](isa.Int32)
	registerSigned[int64](isa.Int64)
	registerUnsigned[uint8](isa.UInt8)
	registerUnsigned[uint16](isa.UInt16)
	registerUnsigned[uint32](isa.UInt32)
	registerUnsigned[uint64](isa.UInt64)
}

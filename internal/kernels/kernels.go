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
// Value representation contract (shared with internal/device): objects carry
// elements as canonical int64 values — truncated to the element width,
// sign-extended for signed types, zero-extended for unsigned types (uint64
// carries its raw bits, so the int64 may be negative). Kernels require
// canonical inputs and produce canonical outputs; the round trip
// int64 → T → int64 through the element's machine type T preserves exactly
// the canonical form, which is what makes the loops mask-free.
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
// 8 PIM element types of isa.DataType.
type lane interface {
	~int8 | ~int16 | ~int32 | ~int64 | ~uint8 | ~uint16 | ~uint32 | ~uint64
}

// signedLane and unsignedLane split the lanes for the ops whose semantics
// depend on signedness in ways the machine type alone does not express
// (division's all-ones quotient, abs).
type signedLane interface {
	~int8 | ~int16 | ~int32 | ~int64
}

type unsignedLane interface {
	~uint8 | ~uint16 | ~uint32 | ~uint64
}

// The dense kernel tables, filled at init. A nil entry means the (op, type)
// pair is not a command the device dispatches; every pair it does dispatch
// has a kernel (TestRegistryComplete).
var (
	binaryTab [isa.NumOps][isa.NumTypes]BinaryKernel
	scalarTab [isa.NumOps][isa.NumTypes]ScalarKernel
	unaryTab  [isa.NumOps][isa.NumTypes]UnaryKernel
	shiftTab  [isa.NumOps][isa.NumTypes]ShiftKernel
)

// Binary returns the specialized kernel for an element-wise binary op, or
// nil if none is registered.
func Binary(op isa.Op, dt isa.DataType) BinaryKernel {
	if !op.Valid() || !dt.Valid() {
		return nil
	}
	return binaryTab[op][dt]
}

// Scalar returns the scalar-broadcast kernel for a binary op, or nil.
func Scalar(op isa.Op, dt isa.DataType) ScalarKernel {
	if !op.Valid() || !dt.Valid() {
		return nil
	}
	return scalarTab[op][dt]
}

// Unary returns the kernel for a unary op, or nil.
func Unary(op isa.Op, dt isa.DataType) UnaryKernel {
	if !op.Valid() || !dt.Valid() {
		return nil
	}
	return unaryTab[op][dt]
}

// Shift returns the kernel for a shift op, or nil.
func Shift(op isa.Op, dt isa.DataType) ShiftKernel {
	if !op.Valid() || !dt.Valid() {
		return nil
	}
	return shiftTab[op][dt]
}

// registerLane fills every signedness-neutral table column for one element
// type: the machine type T carries the width, wraparound, and comparison
// semantics, so one generic body serves all 8 types.
func registerLane[T lane](dt isa.DataType) {
	binaryTab[isa.OpAdd][dt] = addK[T]
	binaryTab[isa.OpSub][dt] = subK[T]
	binaryTab[isa.OpMul][dt] = mulK[T]
	binaryTab[isa.OpAnd][dt] = andK[T]
	binaryTab[isa.OpOr][dt] = orK[T]
	binaryTab[isa.OpXor][dt] = xorK[T]
	binaryTab[isa.OpXnor][dt] = xnorK[T]
	binaryTab[isa.OpMin][dt] = minK[T]
	binaryTab[isa.OpMax][dt] = maxK[T]
	binaryTab[isa.OpLt][dt] = ltK[T]
	binaryTab[isa.OpGt][dt] = gtK[T]
	binaryTab[isa.OpEq][dt] = eqK[T]

	scalarTab[isa.OpAdd][dt] = addSK[T]
	scalarTab[isa.OpSub][dt] = subSK[T]
	scalarTab[isa.OpMul][dt] = mulSK[T]
	scalarTab[isa.OpAnd][dt] = andSK[T]
	scalarTab[isa.OpOr][dt] = orSK[T]
	scalarTab[isa.OpXor][dt] = xorSK[T]
	scalarTab[isa.OpXnor][dt] = xnorSK[T]
	scalarTab[isa.OpMin][dt] = minSK[T]
	scalarTab[isa.OpMax][dt] = maxSK[T]
	scalarTab[isa.OpLt][dt] = ltSK[T]
	scalarTab[isa.OpGt][dt] = gtSK[T]
	scalarTab[isa.OpEq][dt] = eqSK[T]

	unaryTab[isa.OpNot][dt] = notK[T]
	unaryTab[isa.OpPopCount][dt] = popcountK(dt.Bits())
	if dt.Bits() == 8 {
		unaryTab[isa.OpSbox][dt] = sboxK[T](&AESSbox)
		unaryTab[isa.OpSboxInv][dt] = sboxK[T](&AESSboxInv)
	}

	shiftTab[isa.OpShiftL][dt] = shlK[T]
	shiftTab[isa.OpShiftR][dt] = shrK[T]
}

// registerSigned fills the signedness-dependent entries for a signed type.
func registerSigned[T signedLane](dt isa.DataType) {
	binaryTab[isa.OpDiv][dt] = divSK[T]
	scalarTab[isa.OpDiv][dt] = divSSK[T]
	unaryTab[isa.OpAbs][dt] = absSK[T]
}

// registerUnsigned fills the signedness-dependent entries for an unsigned type.
func registerUnsigned[T unsignedLane](dt isa.DataType) {
	binaryTab[isa.OpDiv][dt] = divUK[T]
	scalarTab[isa.OpDiv][dt] = divUSK[T]
	unaryTab[isa.OpAbs][dt] = copyK
}

func init() {
	registerLane[int8](isa.Int8)
	registerLane[int16](isa.Int16)
	registerLane[int32](isa.Int32)
	registerLane[int64](isa.Int64)
	registerLane[uint8](isa.UInt8)
	registerLane[uint16](isa.UInt16)
	registerLane[uint32](isa.UInt32)
	registerLane[uint64](isa.UInt64)

	registerSigned[int8](isa.Int8)
	registerSigned[int16](isa.Int16)
	registerSigned[int32](isa.Int32)
	registerSigned[int64](isa.Int64)
	registerUnsigned[uint8](isa.UInt8)
	registerUnsigned[uint16](isa.UInt16)
	registerUnsigned[uint32](isa.UInt32)
	registerUnsigned[uint64](isa.UInt64)
}

// Package kernels provides the type-specialized element kernels behind the
// functional simulator's hot path. Every element-wise PIM command spends its
// simulated-workload wall-clock in a loop over the object's elements; a
// generic per-element evaluator would pay an op switch, a signedness branch,
// and a truncation per lane. The kernels here hoist all of that out of the
// loop: the dispatch pipeline resolves one kernel per (op, element type)
// once per command, and the kernel body is a tight slice loop whose
// truncation and signedness semantics are compiled in by Go generics —
// add/mul/and on power-of-two widths become mask-free native arithmetic on
// the width's machine type. No loop branches on element data. Where lanes
// narrower than a word allow it, a body runs word-at-a-time (words.go):
// the bitwise ops at every narrower width, add, sub, scalar mul and sum at
// 8 and 16 bits, and eq at 8 bits step a 64-bit word of lanes at once, and
// the element loop takes the span's unaligned ends.
//
// Value representation contract (shared with internal/device): an element
// has one form in the kernels, its type's machine integer, exactly Bits()
// wide, as object storage (isa.Elems) holds it. Each kernel body is generic
// over that machine type T alone and is instantiated once per element type,
// behind On(dt). Ops that only move bits — the 0/1 mask a compare writes,
// and select's condition and data — are instantiated per width class
// instead: they reach storage through its same-width unsigned view
// (isa.Unsigned), so a compare into a destination, or a select on a
// condition, of any type costs one instantiation per width, not per type.
//
// At the host boundary an element is the canonical int64 carrier:
// truncated to the element width, sign-extended for signed types,
// zero-extended for unsigned types (uint64 carries its raw bits, so the
// int64 may be negative). Binary, Unary and Shift adapt the storage kernels
// to carriers (store the operands at the element type, run the kernel, load
// the result back), and Select is a plain carrier loop; they serve callers
// that hold carriers, such as the microprogram interpreter's checks, and
// store per call what a caller holding storage would store once.
//
// The registry is total over the command set the device dispatches
// functionally: Binary covers the 13 element-wise binary ops in plain and
// scalar-broadcast form, Unary covers not/abs/popcount/sbox (sbox only at
// 8-bit widths), Shift covers both shifts (TestRegistryComplete pins this).
// The kernels are the only functional execution path. The golden semantics
// they must reproduce are written once, per element, in ref.go
// (RefBinary/RefUnary/RefShift); the differential tests and fuzz targets
// here, in internal/device and its paralleltest, and in the microprogram
// packages compare against them.
package kernels

import (
	"math/bits"

	"pimeval/internal/isa"
)

// BinaryKernel computes dst[i] = op(a[i], b[i]) for i in [lo, hi) over
// canonical carriers.
type BinaryKernel func(dst, a, b []int64, lo, hi int64)

// UnaryKernel computes dst[i] = op(a[i]) for i in [lo, hi).
type UnaryKernel func(dst, a []int64, lo, hi int64)

// ShiftKernel computes dst[i] = a[i] shifted by amount for i in [lo, hi).
// amount must be non-negative; amounts at or past the element width follow
// the hardware semantics (zero, or all-ones for arithmetic right shifts of
// negative values), which Go's shift operators provide natively.
type ShiftKernel func(dst, a []int64, amount int, lo, hi int64)

// lane is the set of element machine types kernels specialize over — the
// 8 PIM element types of isa.DataType.
type lane = isa.Lane

// signedLane and unsignedLane split the lanes for the ops whose semantics
// depend on signedness in ways the machine type alone does not express
// (division's all-ones quotient, abs). The unsigned lanes are also the
// width classes of the bit-moving kernels.
type signedLane interface {
	int8 | int16 | int32 | int64
}

type unsignedLane interface {
	uint8 | uint16 | uint32 | uint64
}

// The kernel shapes over machine type T.
type (
	binaryFn[T lane] func(dst, a, b []T, lo, hi int64)
	scalarFn[T lane] func(dst, a []T, s int64, lo, hi int64)
	unaryFn[T lane]  func(dst, a []T, lo, hi int64)
	shiftFn[T lane]  func(dst, a []T, amount int, lo, hi int64)
)

// Binary returns the carrier adapter of dt's storage kernel for an
// element-wise binary op, or nil if none is registered. Like Unary and
// Shift, it stores the span's operands at dt, runs the kernel on the
// stored a in place, and loads the result into dst[lo:hi]; dst may alias
// a or b.
func Binary(op isa.Op, dt isa.DataType) BinaryKernel {
	if !dt.Valid() {
		return nil
	}
	k := On(dt).Binary(op, dt)
	if k == nil {
		return nil
	}
	return func(dst, a, b []int64, lo, hi int64) {
		ea, eb := stored(dt, a[lo:hi]), stored(dt, b[lo:hi])
		k(ea, ea, eb, 0, hi-lo)
		isa.LoadInts(ea, dst[lo:hi], 0)
	}
}

// Unary returns the carrier adapter of the kernel for a unary op, or nil.
func Unary(op isa.Op, dt isa.DataType) UnaryKernel {
	if !dt.Valid() {
		return nil
	}
	k := On(dt).Unary(op)
	if k == nil {
		return nil
	}
	return func(dst, a []int64, lo, hi int64) {
		ea := stored(dt, a[lo:hi])
		k(ea, ea, 0, hi-lo)
		isa.LoadInts(ea, dst[lo:hi], 0)
	}
}

// Shift returns the carrier adapter of the kernel for a shift op, or nil.
func Shift(op isa.Op, dt isa.DataType) ShiftKernel {
	if !dt.Valid() {
		return nil
	}
	k := On(dt).Shift(op)
	if k == nil {
		return nil
	}
	return func(dst, a []int64, amount int, lo, hi int64) {
		ea := stored(dt, a[lo:hi])
		k(ea, ea, amount, 0, hi-lo)
		isa.LoadInts(ea, dst[lo:hi], 0)
	}
}

// Select computes dst[i] = cond[i] != 0 ? a[i] : b[i] for i in [lo, hi)
// over carriers, picking by mask as selectK does.
func Select(dst, cond, a, b []int64, lo, hi int64) {
	dst, a, b = dst[lo:hi], a[lo:hi], b[lo:hi]
	a, b = a[:len(dst)], b[:len(dst)]
	cond = cond[lo:hi][:len(dst)]
	for i, c := range cond {
		x, y := a[i], b[i]
		dst[i] = y ^ (x^y)&-int64(bit(c != 0))
	}
}

// stored returns fresh dt storage holding v.
func stored(dt isa.DataType, v []int64) isa.Elems {
	e := dt.MakeElems(int64(len(v)))
	isa.StoreInts(e, 0, v)
	return e
}

// numWidths is the number of width classes: 1, 2, 4 and 8 bytes.
const numWidths = 4

// widthClass returns dt's width class, log2 of its bytes.
func widthClass(dt isa.DataType) int { return bits.TrailingZeros(uint(dt.Bytes())) }

// registerLane fills every signedness-neutral kernel of t for element type
// T, whose width class is U: T carries the width, wraparound, and
// comparison semantics, so one generic body serves all 8 types. The
// compares here write T-typed elements for the fused kernels' stages; the
// device's compares resolve through into.
func registerLane[T lane, U unsignedLane](t *typed[T], dt isa.DataType) {
	t.dt = dt
	t.binary[isa.OpAdd] = addK[T]
	t.binary[isa.OpSub] = subK[T]
	t.binary[isa.OpMul] = mulK[T]
	t.binary[isa.OpAnd] = andK[T]
	t.binary[isa.OpOr] = orK[T]
	t.binary[isa.OpXor] = xorK[T]
	t.binary[isa.OpXnor] = xnorK[T]
	t.binary[isa.OpMin] = minK[T]
	t.binary[isa.OpMax] = maxK[T]
	t.binary[isa.OpLt] = maskBinary(ltK[U, T])
	t.binary[isa.OpGt] = maskBinary(gtK[U, T])
	t.binary[isa.OpEq] = maskBinary(eqK[U, T])

	t.scalar[isa.OpAdd] = addSK[T]
	t.scalar[isa.OpSub] = subSK[T]
	t.scalar[isa.OpMul] = mulSK[T]
	t.scalar[isa.OpAnd] = andSK[T]
	t.scalar[isa.OpOr] = orSK[T]
	t.scalar[isa.OpXor] = xorSK[T]
	t.scalar[isa.OpXnor] = xnorSK[T]
	t.scalar[isa.OpMin] = minSK[T]
	t.scalar[isa.OpMax] = maxSK[T]
	t.scalar[isa.OpLt] = maskScalar(ltSK[U, T])
	t.scalar[isa.OpGt] = maskScalar(gtSK[U, T])
	t.scalar[isa.OpEq] = maskScalar(eqSK[U, T])

	t.unary[isa.OpNot] = notK[T]
	t.unary[isa.OpPopCount] = popcountK[T](dt.Bits())
	if dt.Bits() == 8 {
		t.unary[isa.OpSbox] = sboxK[T](&AESSbox)
		t.unary[isa.OpSboxInv] = sboxK[T](&AESSboxInv)
	}

	t.shift[isa.OpShiftL] = shlK[T]
	t.shift[isa.OpShiftR] = shrK[T]

	t.scaledAdd = scaledAddK[T]
	t.addMax = addMaxSK[T]

	into[uint8, U](t, isa.UInt8)
	into[uint16, U](t, isa.UInt16)
	into[uint32, U](t, isa.UInt32)
	into[uint64, U](t, isa.UInt64)
	native[dt] = t
}

// registerSigned fills signed element type T's kernels; U is its width
// class.
func registerSigned[T signedLane, U unsignedLane](dt isa.DataType) {
	t := new(typed[T])
	registerLane[T, U](t, dt)
	t.binary[isa.OpDiv] = divSK[T]
	t.scalar[isa.OpDiv] = divSSK[T]
	t.unary[isa.OpAbs] = absSK[T]
	t.absDiff = absDiffK[T]
}

// registerUnsigned fills unsigned element type T's kernels; T is its own
// width class.
func registerUnsigned[T unsignedLane](dt isa.DataType) {
	t := new(typed[T])
	registerLane[T, T](t, dt)
	t.binary[isa.OpDiv] = divUK[T]
	t.scalar[isa.OpDiv] = divUSK[T]
	t.unary[isa.OpAbs] = copyK[T]
}

func init() {
	registerSigned[int8, uint8](isa.Int8)
	registerSigned[int16, uint16](isa.Int16)
	registerSigned[int32, uint32](isa.Int32)
	registerSigned[int64, uint64](isa.Int64)
	registerUnsigned[uint8](isa.UInt8)
	registerUnsigned[uint16](isa.UInt16)
	registerUnsigned[uint32](isa.UInt32)
	registerUnsigned[uint64](isa.UInt64)
}

// Package isa defines the PIM command set and data types shared by the
// simulator core, the per-architecture models, and the public PIM API.
//
// The command set corresponds to the paper's high-level PIM API operations
// (Section V-B) and the operation categories of Figure 8: add, sub, mul,
// bit shift, max, min, or, and, xor, less, eq, reduction, broadcast,
// popcount, and abs, plus the structural commands (copies, select) needed
// by the benchmarks.
package isa

import "fmt"

// Op identifies a PIM command.
type Op int

// The PIM command set.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpAnd
	OpOr
	OpXor
	OpXnor
	OpNot
	OpShiftL
	OpShiftR
	OpMin
	OpMax
	OpLt
	OpGt
	OpEq
	OpAbs
	OpSelect    // dst = cond ? a : b (per element)
	OpPopCount  // per-element population count
	OpSbox      // AES S-box substitution (bitsliced gate network)
	OpSboxInv   // inverse AES S-box substitution
	OpRedSum    // full reduction to one scalar
	OpRedSumSeg // segmented reduction (one scalar per fixed-length segment)
	OpBroadcast // fill object with a scalar
	OpCopyD2D   // device-to-device copy / replication
	numOps
)

var opNames = [...]string{
	OpAdd:       "add",
	OpSub:       "sub",
	OpMul:       "mul",
	OpDiv:       "div",
	OpAnd:       "and",
	OpOr:        "or",
	OpXor:       "xor",
	OpXnor:      "xnor",
	OpNot:       "not",
	OpShiftL:    "shift.l",
	OpShiftR:    "shift.r",
	OpMin:       "min",
	OpMax:       "max",
	OpLt:        "lt",
	OpGt:        "gt",
	OpEq:        "eq",
	OpAbs:       "abs",
	OpSelect:    "select",
	OpPopCount:  "popcount",
	OpSbox:      "aes.sbox",
	OpSboxInv:   "aes.sbox.inv",
	OpRedSum:    "redsum",
	OpRedSumSeg: "redsum.seg",
	OpBroadcast: "broadcast",
	OpCopyD2D:   "copy.d2d",
}

// NumOps is the number of defined commands, for dense per-op tables
// (e.g. the kernel registry of internal/kernels).
const NumOps = int(numOps)

// String returns the mnemonic used in command statistics reports.
func (o Op) String() string {
	if o < 0 || int(o) >= len(opNames) {
		return fmt.Sprintf("op(%d)", int(o))
	}
	return opNames[o]
}

// Valid reports whether o is a defined command.
func (o Op) Valid() bool { return o >= 0 && o < numOps }

// opsByName is the reverse of opNames, built once for mnemonic decoding.
var opsByName = func() map[string]Op {
	m := make(map[string]Op, len(opNames))
	for op, name := range opNames {
		m[name] = Op(op)
	}
	return m
}()

// OpByName returns the command with the given mnemonic (the String form),
// used to decode serialized command streams.
func OpByName(name string) (Op, bool) {
	op, ok := opsByName[name]
	return op, ok
}

// Category maps a command to the operation-category label used in the
// Figure 8 operation-mix analysis. Shifts collapse to "shift", comparisons
// keep their own labels, and structural copies return "" (excluded from the
// mix, as in the paper).
func (o Op) Category() string {
	switch o {
	case OpShiftL, OpShiftR:
		return "shift"
	case OpLt, OpGt:
		return "less"
	case OpRedSum, OpRedSumSeg:
		return "reduction"
	case OpCopyD2D:
		return ""
	case OpNot:
		return "xor" // NOT is realized as an XNOR/XOR-with-constant micro-op
	case OpSelect:
		return "and" // 2:1 mux is in the logical family
	case OpSbox, OpSboxInv:
		return "xor" // S-box gate networks are XOR/AND dominated
	default:
		return o.String()
	}
}

// DataType identifies the element type of a PIM data object.
type DataType int

// Supported element types. The paper's framework is integer-only (floating
// point, e.g. VGG softmax, runs on the host).
const (
	Int8 DataType = iota
	Int16
	Int32
	Int64
	UInt8
	UInt16
	UInt32
	UInt64
	numTypes
)

var typeInfo = [...]struct {
	name   string
	bits   int
	signed bool
}{
	Int8:   {"int8", 8, true},
	Int16:  {"int16", 16, true},
	Int32:  {"int32", 32, true},
	Int64:  {"int64", 64, true},
	UInt8:  {"uint8", 8, false},
	UInt16: {"uint16", 16, false},
	UInt32: {"uint32", 32, false},
	UInt64: {"uint64", 64, false},
}

// NumTypes is the number of defined element types, for dense per-type tables.
const NumTypes = int(numTypes)

// String returns the lowercase type name used in command stats (e.g. "int32").
func (t DataType) String() string {
	if !t.Valid() {
		return fmt.Sprintf("type(%d)", int(t))
	}
	return typeInfo[t].name
}

// Valid reports whether t is a defined data type.
func (t DataType) Valid() bool { return t >= 0 && t < numTypes }

// typesByName is the reverse of typeInfo's names, for stream decoding.
var typesByName = func() map[string]DataType {
	m := make(map[string]DataType, len(typeInfo))
	for dt, info := range typeInfo {
		m[info.name] = DataType(dt)
	}
	return m
}()

// TypeByName returns the data type with the given name (the String form),
// used to decode serialized command streams.
func TypeByName(name string) (DataType, bool) {
	dt, ok := typesByName[name]
	return dt, ok
}

// Bits returns the element width in bits.
func (t DataType) Bits() int { return typeInfo[t].bits }

// Bytes returns the element width in bytes.
func (t DataType) Bytes() int { return typeInfo[t].bits / 8 }

// Signed reports whether the type uses two's-complement interpretation.
func (t DataType) Signed() bool { return typeInfo[t].signed }

// Truncate wraps v to the type's width, sign- or zero-extending the result
// back into an int64 carrier according to signedness.
func (t DataType) Truncate(v int64) int64 {
	bits := uint(t.Bits())
	if bits == 64 {
		return v
	}
	mask := int64(1)<<bits - 1
	v &= mask
	if t.Signed() && v&(int64(1)<<(bits-1)) != 0 {
		v |= ^mask
	}
	return v
}

// Fits reports whether every value is already truncated to the type's
// width, i.e. Truncate(v) == v for all of vals.
func (t DataType) Fits(vals []int64) bool {
	switch t {
	case Int8:
		return fits[int8](vals)
	case UInt8:
		return fits[uint8](vals)
	case Int16:
		return fits[int16](vals)
	case UInt16:
		return fits[uint16](vals)
	case Int32:
		return fits[int32](vals)
	case UInt32:
		return fits[uint32](vals)
	}
	return true
}

// narrow is the set of machine types of the element types narrower than
// 64 bits: int64(T(v)) is Truncate(v) for the type whose machine type is T.
type narrow interface {
	~int8 | ~int16 | ~int32 | ~uint8 | ~uint16 | ~uint32
}

func fits[T narrow](vals []int64) bool {
	for _, v := range vals {
		if v != int64(T(v)) {
			return false
		}
	}
	return true
}

// Pack writes vals into dst little-endian at the type's width, Bytes()
// bytes per element; dst must hold len(vals)*Bytes() bytes. Each element
// keeps only its low Bytes() bytes, so Unpack(Pack(v)) == Truncate(v). This
// is the element packing of the PIMB stream format; PIMS snapshots pack
// object storage through the same loops (Slice.Pack).
func (t DataType) Pack(dst []byte, vals []int64) {
	pack(t.Bytes(), dst, vals)
}

// Unpack reads len(dst) elements packed by Pack from src, sign- or
// zero-extending each exactly as Truncate does. It is the hot loop of
// stream decode: one loop per type, bounds checks hoisted as in pack.
func (t DataType) Unpack(dst []int64, src []byte) {
	switch t {
	case Int8:
		unpack[int64, int8](dst, src)
	case UInt8:
		unpack[int64, uint8](dst, src)
	case Int16:
		unpack[int64, int16](dst, src)
	case UInt16:
		unpack[int64, uint16](dst, src)
	case Int32:
		unpack[int64, int32](dst, src)
	case UInt32:
		unpack[int64, uint32](dst, src)
	case Int64:
		unpack[int64, int64](dst, src)
	default:
		unpack[int64, uint64](dst, src)
	}
}

// Compare returns -1, 0, or 1 comparing a and b under the type's signedness.
// Both values must already be truncated to the type's width.
func (t DataType) Compare(a, b int64) int {
	if t.Signed() {
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	}
	ua, ub := uint64(a)&t.maskU(), uint64(b)&t.maskU()
	switch {
	case ua < ub:
		return -1
	case ua > ub:
		return 1
	}
	return 0
}

func (t DataType) maskU() uint64 {
	bits := uint(t.Bits())
	if bits == 64 {
		return ^uint64(0)
	}
	return uint64(1)<<bits - 1
}

// Command describes one PIM command instance as dispatched to the device:
// the operation, its element type, and the structural parameters that affect
// cost (element count per core, scalar immediates, shift amounts, segment
// lengths).
type Command struct {
	Op     Op
	Type   DataType
	N      int64 // total elements processed
	Scalar int64 // immediate operand (broadcast value, scalar operand, shift amount)
	SegLen int64 // segment length for OpRedSumSeg
	// Inputs is the number of distinct memory-resident input operands
	// (1 for unary/scalar forms, 2 for element-wise binary forms).
	Inputs int
	// WritesResult reports whether the command materializes an output object
	// in memory (reductions do not).
	WritesResult bool
	// Fused, when non-nil, appends a second element-wise stage applied to
	// the first stage's result before the single write-back (stream-optimizer
	// fusion). Inputs then counts the memory operands of both stages.
	Fused *FusedStage
}

// FusedStage describes the second stage of a fused two-stage command, plus
// the shape of the first (cost models need to know whether stage 1 ran in
// scalar-broadcast form to specialize its bit-serial microprogram counts).
type FusedStage struct {
	Op     Op
	Scalar int64 // stage-2 immediate (ScalarForm)
	// Exactly one of ScalarForm/BinaryForm may be set; neither means the
	// second stage is unary. BinaryForm requires a scalar first stage.
	ScalarForm bool
	BinaryForm bool
	// Stage1Scalar records that the first stage is the scalar-broadcast form
	// (its immediate is Command.Scalar).
	Stage1Scalar bool
}

// Name returns the stats-report mnemonic, e.g. "add.int32"; fused commands
// join the stage mnemonics, e.g. "mul+add.int32".
func (c Command) Name() string {
	if c.Fused != nil {
		return c.Op.String() + "+" + c.Fused.Op.String() + "." + c.Type.String()
	}
	return c.Op.String() + "." + c.Type.String()
}

package isa

import (
	"encoding/binary"
	"unsafe"
)

// Lane is the set of element machine types: the Go integer type that holds
// one element of each DataType at exactly its width (int8 for Int8, uint16
// for UInt16, ...). Each Lane type belongs to exactly one DataType.
type Lane interface {
	int8 | int16 | int32 | int64 | uint8 | uint16 | uint32 | uint64
}

// Elems is one functional object's element storage: a Slice of the object
// type's machine type, Bytes() bytes per element, so a uint8 object of n
// elements holds n bytes. Element i holds the low Bits() bits of its value;
// reading it back through Load gives the canonical int64 carrier (Truncate's
// result), which is the only form the host boundary sees. The methods are
// the type-independent movements on storage (host copies, device copies,
// packing, fault bit access); the element-wise ops live in internal/kernels,
// which resolves each command's kernel at the storage's machine type.
type Elems interface {
	// Type returns the element type whose machine type the storage holds.
	Type() DataType
	// Len returns the element count.
	Len() int64
	// Clear zeroes every element.
	Clear()
	// Load widens elements [lo, lo+len(dst)) into canonical carriers.
	Load(dst []int64, lo int64)
	// Store narrows src into elements [lo, lo+len(src)), keeping each
	// value's low Bits() bits: a later Load reads Truncate(src[i]).
	Store(lo int64, src []int64)
	// CopyFrom copies n elements of src, which must have the same Type,
	// from srcLo into lo. The ranges may overlap.
	CopyFrom(lo int64, src Elems, srcLo, n int64)
	// Tile fills the storage with repeats of src, which must have the same
	// Type and a length dividing Len.
	Tile(src Elems)
	// Pack writes elements [lo, hi) little-endian into dst, Bytes() bytes
	// each, exactly as DataType.Pack writes their canonical carriers.
	Pack(dst []byte, lo, hi int64)
	// Unpack reads elements [lo, hi) from src, packed as Pack writes them.
	Unpack(src []byte, lo, hi int64)
	// Grow returns storage of n >= Len elements whose first Len elements
	// are these.
	Grow(n int64) Elems
	// Bits returns element i's Bits() stored bits, zero-extended.
	Bits(i int64) uint64
	// SetBits stores the low Bits() bits of v into element i.
	SetBits(i int64, v uint64)
}

// Slice is the Elems of the element type whose machine type is S.
type Slice[S Lane] []S

// MakeElems returns zeroed storage for n elements of type t.
func (t DataType) MakeElems(n int64) Elems {
	switch t {
	case Int8:
		return make(Slice[int8], n)
	case Int16:
		return make(Slice[int16], n)
	case Int32:
		return make(Slice[int32], n)
	case Int64:
		return make(Slice[int64], n)
	case UInt8:
		return make(Slice[uint8], n)
	case UInt16:
		return make(Slice[uint16], n)
	case UInt32:
		return make(Slice[uint32], n)
	default:
		return make(Slice[uint64], n)
	}
}

// laneType returns the DataType whose machine type is S.
func laneType[S Lane]() DataType {
	switch any(S(0)).(type) {
	case int8:
		return Int8
	case int16:
		return Int16
	case int32:
		return Int32
	case int64:
		return Int64
	case uint8:
		return UInt8
	case uint16:
		return UInt16
	case uint32:
		return UInt32
	default:
		return UInt64
	}
}

func (s Slice[S]) Type() DataType { return laneType[S]() }

func (s Slice[S]) Len() int64 { return int64(len(s)) }

func (s Slice[S]) Clear() { clear(s) }

func (s Slice[S]) Load(dst []int64, lo int64) {
	src := s[lo : lo+int64(len(dst))]
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = int64(v)
	}
}

func (s Slice[S]) Store(lo int64, src []int64) {
	dst := s[lo : lo+int64(len(src))]
	src = src[:len(dst)]
	for i, v := range src {
		dst[i] = S(v)
	}
}

func (s Slice[S]) CopyFrom(lo int64, src Elems, srcLo, n int64) {
	copy(s[lo:lo+n], src.(Slice[S])[srcLo:srcLo+n])
}

// Tile copies src once, then doubles the filled prefix until the storage
// is full; the prefix is always whole repeats of src, so every copy keeps
// the period.
func (s Slice[S]) Tile(src Elems) {
	for n := copy(s, src.(Slice[S])); n < len(s); {
		n += copy(s[n:], s[:n])
	}
}

// Pack and Unpack move storage to and from the wire with one copy through
// the storage's byte view on a little-endian host, where the two layouts are
// the same bytes; the pack/unpack loops are the big-endian path and the
// reference. Either way a dst or src too short for [lo, hi) panics before
// any element moves, as the loops' reslice does.
func (s Slice[S]) Pack(dst []byte, lo, hi int64) {
	vals := s[lo:hi]
	if hostLittleEndian {
		b := byteView(vals)
		copy(dst[:len(b)], b)
		return
	}
	pack(laneType[S]().Bytes(), dst, vals)
}

func (s Slice[S]) Unpack(src []byte, lo, hi int64) {
	vals := s[lo:hi]
	if hostLittleEndian {
		b := byteView(vals)
		copy(b, src[:len(b)])
		return
	}
	unpack[S, S](vals, src)
}

// hostLittleEndian reports whether the host stores integers little-endian,
// the byte order of both wire formats.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// byteView returns the memory of vals as bytes, len(vals)*sizeof(S) of them,
// sharing vals' backing array. It is the repository's one use of unsafe: the
// only way to copy a whole storage span as bytes. Slice.Pack and
// Slice.Unpack are its only callers, and only on a little-endian host, where
// the view is exactly the span's packed wire form.
func byteView[S Lane](vals []S) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), len(vals)*int(unsafe.Sizeof(S(0))))
}

func (s Slice[S]) Grow(n int64) Elems {
	g := make(Slice[S], n)
	copy(g, s)
	return g
}

func (s Slice[S]) Bits(i int64) uint64 { return uint64(s[i]) & laneType[S]().maskU() }

func (s Slice[S]) SetBits(i int64, v uint64) { s[i] = S(v) }

// pack writes vals little-endian into dst at width bytes per element, each
// element's low width bytes; dst must hold len(vals)*width bytes. It is the
// one packing loop of both wire formats: DataType.Pack instantiates it at
// the int64 carrier (PIMB payloads), Slice.Pack at the storage's machine
// type (PIMS object sections) on a big-endian host, where the byte view
// does not apply.
//
// Each case reslices the byte side to exactly len(vals)*width and then
// walks it one element width at a time. The walk's length test cannot fail
// after the reslice, but it is what lets the compiler prove every element
// load and store in bounds, so the loop bodies carry no bounds checks.
func pack[S Lane](width int, dst []byte, vals []S) {
	switch width {
	case 1:
		dst = dst[:len(vals)]
		for i, v := range vals {
			dst[i] = byte(v)
		}
	case 2:
		dst = dst[:len(vals)*2]
		for _, v := range vals {
			if len(dst) < 2 {
				break
			}
			binary.LittleEndian.PutUint16(dst, uint16(v))
			dst = dst[2:]
		}
	case 4:
		dst = dst[:len(vals)*4]
		for _, v := range vals {
			if len(dst) < 4 {
				break
			}
			binary.LittleEndian.PutUint32(dst, uint32(v))
			dst = dst[4:]
		}
	default:
		dst = dst[:len(vals)*8]
		for _, v := range vals {
			if len(dst) < 8 {
				break
			}
			binary.LittleEndian.PutUint64(dst, uint64(v))
			dst = dst[8:]
		}
	}
}

// unpack reads len(dst) elements of machine type T packed by pack from src
// into dst: T's width selects the loop and T's signedness extends each
// element, so S = int64 yields canonical carriers (DataType.Unpack) and
// S = T yields storage (Slice.Unpack on a big-endian host). Bounds checks
// are hoisted as in pack.
func unpack[S, T Lane](dst []S, src []byte) {
	switch laneType[T]().Bytes() {
	case 1:
		src = src[:len(dst)]
		for i := range dst {
			dst[i] = S(T(src[i]))
		}
	case 2:
		src = src[:len(dst)*2]
		for i := range dst {
			if len(src) < 2 {
				break
			}
			dst[i] = S(T(binary.LittleEndian.Uint16(src)))
			src = src[2:]
		}
	case 4:
		src = src[:len(dst)*4]
		for i := range dst {
			if len(src) < 4 {
				break
			}
			dst[i] = S(T(binary.LittleEndian.Uint32(src)))
			src = src[4:]
		}
	default:
		src = src[:len(dst)*8]
		for i := range dst {
			if len(src) < 8 {
				break
			}
			dst[i] = S(T(binary.LittleEndian.Uint64(src)))
			src = src[8:]
		}
	}
}

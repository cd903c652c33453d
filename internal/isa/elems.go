package isa

import (
	"encoding/binary"
	"io"
	"unsafe"
)

// Lane is the set of element machine types: the Go integer type that holds
// one element of each DataType at exactly its width (int8 for Int8, uint16
// for UInt16, ...). Each Lane type belongs to exactly one DataType.
type Lane interface {
	int8 | int16 | int32 | int64 | uint8 | uint16 | uint32 | uint64
}

// Integer is the set of host integer types that move to and from element
// storage (StoreInts, LoadInts): the Lane types, int and uint, and every
// type defined over one of them.
type Integer interface {
	~int8 | ~int16 | ~int32 | ~int64 | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~int | ~uint
}

// Elems is one functional object's element storage: a Slice of the object
// type's machine type, Bytes() bytes per element, so a uint8 object of n
// elements holds n bytes. Element i holds the low Bits() bits of its value.
// Host slices of any Integer type move in and out through StoreInts and
// LoadInts, element by element at the storage's width; loading into
// []int64 gives the canonical carrier (Truncate's result). The methods are
// the type-independent movements on storage (device copies, packing, fault
// bit access); the element-wise ops live in internal/kernels, which
// resolves each command's kernel at the storage's machine type.
type Elems interface {
	// Type returns the element type whose machine type the storage holds.
	Type() DataType
	// Len returns the element count.
	Len() int64
	// Capacity returns the bytes of the storage's backing array, which
	// may hold more than Len elements (see Recast).
	Capacity() int64
	// Recast returns storage for n elements of type t over the same
	// backing array, its bytes left as they are, or nil when the array
	// holds fewer than n*t.Bytes() bytes or is not aligned for t.
	Recast(t DataType, n int64) Elems
	// Clear zeroes elements [lo, hi).
	Clear(lo, hi int64)
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
	// UnpackFrom is Unpack with the packed bytes read from r, exactly
	// (hi-lo)*Bytes() of them: on a little-endian host they are read
	// straight into the storage, with no buffer in between. On an error
	// the span holds whatever part of the bytes arrived.
	UnpackFrom(r io.Reader, lo, hi int64) error
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

func (s Slice[S]) Capacity() int64 { return int64(cap(s)) * int64(unsafe.Sizeof(S(0))) }

func (s Slice[S]) Recast(t DataType, n int64) Elems {
	switch t {
	case Int8:
		return recast[S, int8](s, n)
	case Int16:
		return recast[S, int16](s, n)
	case Int32:
		return recast[S, int32](s, n)
	case Int64:
		return recast[S, int64](s, n)
	case UInt8:
		return recast[S, uint8](s, n)
	case UInt16:
		return recast[S, uint16](s, n)
	case UInt32:
		return recast[S, uint32](s, n)
	default:
		return recast[S, uint64](s, n)
	}
}

// recast views the whole backing array of s as elements of T, sliced to n
// of them; see Elems.Recast. Like byteView it reinterprets memory, which
// both element types allow: neither holds pointers, and every bit pattern
// is a valid value of either.
func recast[S, T Lane](s []S, n int64) Elems {
	full := s[:cap(s)]
	size := int64(unsafe.Sizeof(T(0)))
	bytes := int64(len(full)) * int64(unsafe.Sizeof(S(0)))
	p := unsafe.Pointer(unsafe.SliceData(full))
	if n < 0 || n*size > bytes || uintptr(p)%unsafe.Alignof(T(0)) != 0 {
		return nil
	}
	return Slice[T](unsafe.Slice((*T)(p), bytes/size)[:n])
}

func (s Slice[S]) Clear(lo, hi int64) { clear(s[lo:hi]) }

// StoreInts converts src into elements [lo, lo+len(src)) of e, each keeping
// its value's low Bits() bits: element lo+i takes S(src[i]) for e's machine
// type S, the same bits as S(int64(src[i])), since Go sign- or zero-extends
// before it truncates. A later LoadInts into []int64 reads
// Truncate(int64(src[i])). Where T is S, the store is a copy.
func StoreInts[T Integer](e Elems, lo int64, src []T) {
	switch s := e.(type) {
	case Slice[int8]:
		storeInts(s, lo, src)
	case Slice[int16]:
		storeInts(s, lo, src)
	case Slice[int32]:
		storeInts(s, lo, src)
	case Slice[int64]:
		storeInts(s, lo, src)
	case Slice[uint8]:
		storeInts(s, lo, src)
	case Slice[uint16]:
		storeInts(s, lo, src)
	case Slice[uint32]:
		storeInts(s, lo, src)
	case Slice[uint64]:
		storeInts(s, lo, src)
	default:
		panic("isa: StoreInts into foreign storage")
	}
}

// LoadInts converts elements [lo, lo+len(dst)) of e into dst: dst[i] takes
// T(s) of the stored element s, the same value as T(Truncate(s)) read
// through an int64 carrier. Where T is e's machine type, the load is a copy.
func LoadInts[T Integer](e Elems, dst []T, lo int64) {
	switch s := e.(type) {
	case Slice[int8]:
		loadInts(dst, s, lo)
	case Slice[int16]:
		loadInts(dst, s, lo)
	case Slice[int32]:
		loadInts(dst, s, lo)
	case Slice[int64]:
		loadInts(dst, s, lo)
	case Slice[uint8]:
		loadInts(dst, s, lo)
	case Slice[uint16]:
		loadInts(dst, s, lo)
	case Slice[uint32]:
		loadInts(dst, s, lo)
	case Slice[uint64]:
		loadInts(dst, s, lo)
	default:
		panic("isa: LoadInts from foreign storage")
	}
}

func storeInts[S Lane, T Integer](s []S, lo int64, src []T) {
	dst := s[lo : lo+int64(len(src))]
	if same, ok := any(dst).([]T); ok {
		copy(same, src)
		return
	}
	src = src[:len(dst)]
	for i, v := range src {
		dst[i] = S(v)
	}
}

func loadInts[T Integer, S Lane](dst []T, s []S, lo int64) {
	src := s[lo : lo+int64(len(dst))]
	if same, ok := any(src).([]T); ok {
		copy(dst, same)
		return
	}
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = T(v)
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

func (s Slice[S]) UnpackFrom(r io.Reader, lo, hi int64) error {
	vals := s[lo:hi]
	if hostLittleEndian {
		_, err := io.ReadFull(r, byteView(vals))
		return err
	}
	buf := make([]byte, len(vals)*laneType[S]().Bytes())
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	unpack[S, S](vals, buf)
	return nil
}

// hostLittleEndian reports whether the host stores integers little-endian,
// the byte order of both wire formats.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// byteView returns the memory of vals as bytes, len(vals)*sizeof(S) of them,
// sharing vals' backing array. It, recast, sameWidth and Words are the
// repository's only uses of unsafe: the only way to copy a whole storage
// span as bytes, to reuse one type's storage for another's, to run one
// bit-moving kernel over both signednesses of a width, and to run a kernel
// over a machine word of lanes at a time. Slice.Pack, Slice.Unpack and
// Slice.UnpackFrom are its only callers, and only on a little-endian host,
// where the view is exactly the span's packed wire form.
func byteView[S Lane](vals []S) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), len(vals)*int(unsafe.Sizeof(S(0))))
}

// Unsigned returns the storage of e as its width's unsigned machine type U:
// an int8 or uint8 object as []uint8, an int32 or uint32 object as []uint32,
// and so on, sharing e's backing array, Len() elements long. It panics when
// e's element width is not U's. The view is for ops that move bits without
// reading their type: a 0/1 compare mask, a select's condition and data.
// Like byteView it reinterprets memory, which same-width integer types
// allow. It returns a typed slice, so a kernel holding Elems operands
// reaches their machine slices without boxing anything.
func Unsigned[U uint8 | uint16 | uint32 | uint64](e Elems) []U {
	switch s := e.(type) {
	case Slice[int8]:
		return sameWidth[U](s)
	case Slice[int16]:
		return sameWidth[U](s)
	case Slice[int32]:
		return sameWidth[U](s)
	case Slice[int64]:
		return sameWidth[U](s)
	case Slice[uint8]:
		return sameWidth[U](s)
	case Slice[uint16]:
		return sameWidth[U](s)
	case Slice[uint32]:
		return sameWidth[U](s)
	case Slice[uint64]:
		return sameWidth[U](s)
	}
	panic("isa: Unsigned of foreign storage")
}

// sameWidth views vals as U elements; see Unsigned.
func sameWidth[U, S Lane](vals []S) []U {
	if unsafe.Sizeof(U(0)) != unsafe.Sizeof(S(0)) {
		panic("isa: Unsigned of storage of another width")
	}
	return unsafe.Slice((*U)(unsafe.Pointer(unsafe.SliceData(vals))), len(vals))
}

// Words splits s at 8-byte-aligned addresses for the word-at-a-time
// kernels: head is the elements before the first aligned address, w the
// whole aligned 64-bit words after them, and tail the elements left over,
// so head, w and tail cover s's memory exactly once, in order. w shares s's
// backing array, each word holding 8/sizeof(T) consecutive elements as
// lanes in the host's byte order; lane-wise arithmetic does not depend on
// that order. Like byteView it reinterprets memory, which integer lanes
// allow, and the words are aligned, so the view is sound under checkptr.
// Two slices of equal length split alike exactly when their heads are
// equally long: their addresses then agree mod 8.
func Words[T Lane](s []T) (head []T, w []uint64, tail []T) {
	size := int(unsafe.Sizeof(T(0)))
	off := int(-uintptr(unsafe.Pointer(unsafe.SliceData(s)))%8) / size
	head, s = s[:min(off, len(s))], s[min(off, len(s)):]
	n := len(s) * size / 8
	if n > 0 {
		w = unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(s))), n)
	}
	return head, w, s[n*8/size:]
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

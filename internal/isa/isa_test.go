package isa

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestOpNames(t *testing.T) {
	cases := map[Op]string{
		OpAdd: "add", OpShiftL: "shift.l", OpRedSumSeg: "redsum.seg",
		OpSbox: "aes.sbox", OpCopyD2D: "copy.d2d",
	}
	for op, want := range cases {
		if op.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(op), op.String(), want)
		}
	}
	if Op(99).String() == "" || Op(99).Valid() {
		t.Error("unknown op handling")
	}
	if !OpAdd.Valid() {
		t.Error("OpAdd invalid")
	}
}

func TestCategories(t *testing.T) {
	cases := map[Op]string{
		OpAdd: "add", OpShiftL: "shift", OpShiftR: "shift",
		OpLt: "less", OpGt: "less", OpEq: "eq",
		OpRedSum: "reduction", OpRedSumSeg: "reduction",
		OpCopyD2D: "", OpNot: "xor", OpSelect: "and",
		OpSbox: "xor", OpSboxInv: "xor", OpBroadcast: "broadcast",
		OpPopCount: "popcount", OpAbs: "abs",
	}
	for op, want := range cases {
		if got := op.Category(); got != want {
			t.Errorf("%v.Category() = %q, want %q", op, got, want)
		}
	}
}

func TestDataTypeBasics(t *testing.T) {
	if Int32.Bits() != 32 || Int32.Bytes() != 4 || !Int32.Signed() {
		t.Error("Int32 metadata")
	}
	if UInt8.Bits() != 8 || UInt8.Signed() {
		t.Error("UInt8 metadata")
	}
	if Int64.String() != "int64" || UInt16.String() != "uint16" {
		t.Error("names")
	}
	if DataType(99).Valid() {
		t.Error("bad type valid")
	}
}

func TestTruncate(t *testing.T) {
	cases := []struct {
		dt   DataType
		in   int64
		want int64
	}{
		{Int8, 127, 127},
		{Int8, 128, -128},
		{Int8, 255, -1},
		{Int8, -129, 127},
		{UInt8, 255, 255},
		{UInt8, 256, 0},
		{UInt8, -1, 255},
		{Int16, 1 << 20, 0},
		{Int32, 1<<31 - 1, 1<<31 - 1},
		{Int32, 1 << 31, -(1 << 31)},
		{Int64, -1, -1},
		{UInt64, -1, -1}, // raw bit carrier
	}
	for _, c := range cases {
		if got := c.dt.Truncate(c.in); got != c.want {
			t.Errorf("%v.Truncate(%d) = %d, want %d", c.dt, c.in, got, c.want)
		}
	}
}

func TestTruncateIdempotent(t *testing.T) {
	for _, dt := range []DataType{Int8, Int16, Int32, Int64, UInt8, UInt16, UInt32, UInt64} {
		dt := dt
		f := func(v int64) bool {
			once := dt.Truncate(v)
			return dt.Truncate(once) == once
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%v: %v", dt, err)
		}
	}
}

// TestPackUnpack checks Unpack(Pack(v)) == Truncate(v) for every type,
// including non-canonical values (out of range for the type), and that Pack
// writes exactly Bytes() little-endian bytes per element.
func TestPackUnpack(t *testing.T) {
	vals := []int64{
		0, 1, -1, 127, -128, 128, 255, 256, 32767, -32768, 65535, 65536,
		1<<31 - 1, -1 << 31, 1<<32 - 1, 1 << 32, 1<<63 - 1, -1 << 63,
		0x123456789abcdef, -0x123456789abcdef,
	}
	for _, dt := range []DataType{Int8, Int16, Int32, Int64, UInt8, UInt16, UInt32, UInt64} {
		w := dt.Bytes()
		buf := make([]byte, len(vals)*w)
		dt.Pack(buf, vals)
		got := make([]int64, len(vals))
		dt.Unpack(got, buf)
		for i, v := range vals {
			if want := dt.Truncate(v); got[i] != want {
				t.Errorf("%v: Unpack(Pack(%#x)) = %#x, want %#x", dt, v, got[i], want)
			}
			for b := 0; b < w; b++ {
				if buf[i*w+b] != byte(uint64(v)>>(8*b)) {
					t.Errorf("%v: Pack(%#x) byte %d = %#x", dt, v, b, buf[i*w+b])
				}
			}
		}
	}
}

func TestCompareSignedness(t *testing.T) {
	// 0xFF as int8 is -1 (< 1); as uint8 it is 255 (> 1).
	a, b := Int8.Truncate(0xFF), Int8.Truncate(1)
	if Int8.Compare(a, b) != -1 {
		t.Error("int8 compare")
	}
	ua, ub := UInt8.Truncate(0xFF), UInt8.Truncate(1)
	if UInt8.Compare(ua, ub) != 1 {
		t.Error("uint8 compare")
	}
	if Int32.Compare(5, 5) != 0 {
		t.Error("equality")
	}
	// uint64 top-bit values compare as unsigned.
	big := UInt64.Truncate(-1) // all ones
	if UInt64.Compare(big, 1) != 1 {
		t.Error("uint64 compare treats sign bit as magnitude")
	}
}

func TestCompareTotalOrder(t *testing.T) {
	f := func(a, b int64) bool {
		x, y := Int16.Truncate(a), Int16.Truncate(b)
		c := Int16.Compare(x, y)
		return c == -Int16.Compare(y, x) && (c != 0) == (x != y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCommandName(t *testing.T) {
	cmd := Command{Op: OpMul, Type: Int16}
	if cmd.Name() != "mul.int16" {
		t.Errorf("Name() = %q", cmd.Name())
	}
}

// FuzzElementConversions checks the bulk element conversions against their
// per-element definitions for a fuzzed type and fuzzed values: element
// storage's Store then Load against Truncate (also at an offset), Fits
// against "Truncate(v) == v for every v", Unpack(Pack(v)) against
// Truncate(v) with Pack writing exactly len(v)*Bytes() bytes, and storage's
// Pack writing the same bytes as DataType.Pack, Unpack restoring the stored
// elements and Bits/SetBits round-tripping each element's bits. Storage's
// Pack and Unpack, which copy through a byte view on a little-endian host,
// are also compared with the generic loops called directly (loopsOf), so the
// big-endian path stays tested here, and an interior-span Unpack must leave
// every element outside its span as it was. The value count is len(data)/8
// rounded up, so odd counts are covered.
func FuzzElementConversions(f *testing.F) {
	f.Add(uint8(Int8), []byte{0x80, 0, 0, 0, 0, 0, 0, 0, 0x7f})
	f.Add(uint8(UInt16), []byte{0xff, 0xff, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 1})
	f.Add(uint8(Int32), []byte{0, 0, 0, 0x80, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0x80})
	f.Add(uint8(UInt64), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17})
	f.Add(uint8(Int64), []byte{})
	f.Fuzz(func(t *testing.T, typ uint8, data []byte) {
		dt := DataType(int(typ) % NumTypes)
		vals := make([]int64, (len(data)+7)/8)
		for i := range vals {
			var w [8]byte
			copy(w[:], data[i*8:])
			vals[i] = int64(binary.LittleEndian.Uint64(w[:]))
		}
		want := make([]int64, len(vals))
		fits := true
		for i, v := range vals {
			want[i] = dt.Truncate(v)
			fits = fits && want[i] == v
		}

		n := int64(len(vals))
		store := dt.MakeElems(n + 3)
		if store.Type() != dt || store.Len() != n+3 {
			t.Fatalf("%v: MakeElems made %v of %d", dt, store.Type(), store.Len())
		}
		store.Store(2, vals)
		got := make([]int64, n+3)
		store.Load(got, 0)
		if !slices.Equal(got[2:2+n], want) || got[0] != 0 || got[1] != 0 || got[n+2] != 0 {
			t.Fatalf("%v: Load(Store(%v) at 2) = %v, want %v inside zeros", dt, vals, got, want)
		}
		if dt.Fits(vals) != fits {
			t.Fatalf("%v: Fits(%v) = %v, want %v", dt, vals, !fits, fits)
		}
		if !dt.Fits(want) {
			t.Fatalf("%v: Fits(%v) = false for truncated values", dt, want)
		}

		const sentinel = 0xa5
		w := dt.Bytes()
		buf := make([]byte, len(vals)*w+w)
		for i := range buf {
			buf[i] = sentinel
		}
		dt.Pack(buf, vals)
		for i, b := range buf[len(vals)*w:] {
			if b != sentinel {
				t.Fatalf("%v: Pack of %d values wrote byte %d past its end", dt, len(vals), len(vals)*w+i)
			}
		}
		unpacked := make([]int64, len(vals))
		dt.Unpack(unpacked, buf)
		if !slices.Equal(unpacked, want) {
			t.Fatalf("%v: Unpack(Pack(%v)) = %v, want %v", dt, vals, unpacked, want)
		}

		stored := make([]byte, len(buf))
		copy(stored, buf)
		store.Pack(stored, 2, 2+n)
		if !slices.Equal(stored, buf) {
			t.Fatalf("%v: storage Pack = %x, DataType.Pack = %x", dt, stored, buf)
		}
		back := dt.MakeElems(n).Grow(n + 1)
		back.Unpack(buf, 0, n)
		for i := int64(0); i < n; i++ {
			if back.Bits(i) != store.Bits(i+2) {
				t.Fatalf("%v: element %d unpacks to bits %#x, stored %#x", dt, i, back.Bits(i), store.Bits(i+2))
			}
			back.SetBits(i, back.Bits(i)^1)
			back.SetBits(i, back.Bits(i)^1)
		}
		back.Load(got[:n], 0)
		if !slices.Equal(got[:n], want) {
			t.Fatalf("%v: storage Unpack = %v, want %v", dt, got[:n], want)
		}

		loopPack, loopUnpack := loops(store)
		looped := make([]byte, len(buf))
		copy(looped, buf)
		clear(looped[:len(vals)*w])
		loopPack(looped, 2, 2+n)
		if !slices.Equal(stored, looped) {
			t.Fatalf("%v: storage Pack = %x, pack loop = %x", dt, stored, looped)
		}
		const sentinelBits = 0xa5a5a5a5a5a5a5a5
		viewed, byLoop := dt.MakeElems(n+3), dt.MakeElems(n+3)
		for i := int64(0); i < n+3; i++ {
			viewed.SetBits(i, sentinelBits)
			byLoop.SetBits(i, sentinelBits)
		}
		viewed.Unpack(buf, 1, 1+n)
		_, loopUnpack = loops(byLoop)
		loopUnpack(buf, 1, 1+n)
		for i := int64(0); i < n+3; i++ {
			if viewed.Bits(i) != byLoop.Bits(i) {
				t.Fatalf("%v: storage Unpack into [1, %d) element %d bits %#x, unpack loop %#x",
					dt, 1+n, i, viewed.Bits(i), byLoop.Bits(i))
			}
			if inside := i >= 1 && i < 1+n; !inside && viewed.Bits(i) != sentinelBits&dt.maskU() {
				t.Fatalf("%v: storage Unpack into [1, %d) wrote element %d", dt, 1+n, i)
			}
		}
	})
}

// loops returns the generic pack and unpack loops over e's own machine
// type, with Slice.Pack and Slice.Unpack's signatures: the big-endian path
// of those methods, run on any host.
func loops(e Elems) (packFn, unpackFn func(b []byte, lo, hi int64)) {
	switch s := e.(type) {
	case Slice[int8]:
		return loopsOf(s)
	case Slice[int16]:
		return loopsOf(s)
	case Slice[int32]:
		return loopsOf(s)
	case Slice[int64]:
		return loopsOf(s)
	case Slice[uint8]:
		return loopsOf(s)
	case Slice[uint16]:
		return loopsOf(s)
	case Slice[uint32]:
		return loopsOf(s)
	default:
		return loopsOf(e.(Slice[uint64]))
	}
}

func loopsOf[S Lane](s Slice[S]) (packFn, unpackFn func(b []byte, lo, hi int64)) {
	return func(dst []byte, lo, hi int64) { pack(laneType[S]().Bytes(), dst, s[lo:hi]) },
		func(src []byte, lo, hi int64) { unpack[S, S](s[lo:hi], src) }
}

// TestPackUnpackShortBuffer: a byte side one byte short of the span must
// panic in storage's Pack and Unpack exactly as it does in the generic
// loops, before any element moves, never silently copy fewer elements.
func TestPackUnpackShortBuffer(t *testing.T) {
	const n = 5
	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return false
	}
	for dt := DataType(0); dt < numTypes; dt++ {
		short, out := make([]byte, n*dt.Bytes()-1), make([]byte, n*dt.Bytes()-1)
		for i := range short {
			short[i], out[i] = 0xff, 0xa5
		}
		loopPack, loopUnpack := loops(dt.MakeElems(n + 1))
		s := dt.MakeElems(n + 1)
		for _, c := range []struct {
			name      string
			view, ref func()
		}{
			{"Unpack", func() { s.Unpack(short, 1, 1+n) }, func() { loopUnpack(short, 1, 1+n) }},
			{"Pack", func() { s.Pack(out, 1, 1+n) }, func() { loopPack(out, 1, 1+n) }},
		} {
			if !panics(c.ref) {
				t.Fatalf("%v: %s loop accepted a short buffer", dt, c.name)
			}
			if !panics(c.view) {
				t.Errorf("%v: storage %s accepted a short buffer", dt, c.name)
			}
		}
		for i := int64(0); i < n+1; i++ {
			if s.Bits(i) != 0 {
				t.Errorf("%v: storage Unpack from a short buffer wrote element %d", dt, i)
			}
		}
		for i, b := range out {
			if b != 0xa5 {
				t.Errorf("%v: storage Pack into a short buffer wrote byte %d", dt, i)
			}
		}
	}
}

// benchVals returns one payload frame (128Ki elements) of seeded values
// that fit dt, the shape stream decode and h2d copies handle.
func benchVals(dt DataType) []int64 {
	rng := rand.New(rand.NewSource(int64(dt) + 1))
	vals := make([]int64, 1<<17)
	for i := range vals {
		vals[i] = dt.Truncate(rng.Int63() - rng.Int63())
	}
	return vals
}

// benchTypes runs fn once per element type as a sub-benchmark, with one
// frame of values and SetBytes at the type's packed width.
func benchTypes(b *testing.B, fn func(b *testing.B, dt DataType, vals []int64)) {
	for dt := DataType(0); dt < numTypes; dt++ {
		b.Run(dt.String(), func(b *testing.B) {
			vals := benchVals(dt)
			b.SetBytes(int64(len(vals) * dt.Bytes()))
			b.ResetTimer()
			fn(b, dt, vals)
		})
	}
}

func BenchmarkUnpack(b *testing.B) {
	benchTypes(b, func(b *testing.B, dt DataType, vals []int64) {
		buf := make([]byte, len(vals)*dt.Bytes())
		dt.Pack(buf, vals)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dt.Unpack(vals, buf)
		}
	})
}

// BenchmarkStore measures the h2d narrowing store into element storage.
func BenchmarkStore(b *testing.B) {
	benchTypes(b, func(b *testing.B, dt DataType, vals []int64) {
		dst := dt.MakeElems(int64(len(vals)))
		for i := 0; i < b.N; i++ {
			dst.Store(0, vals)
		}
	})
}

var benchFits bool

func BenchmarkFits(b *testing.B) {
	benchTypes(b, func(b *testing.B, dt DataType, vals []int64) {
		for i := 0; i < b.N; i++ {
			benchFits = dt.Fits(vals)
		}
	})
}

package isa

import (
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

package analog

import (
	"testing"

	"pimeval/internal/bitserial"
	"pimeval/internal/isa"
	"pimeval/internal/kernels"
)

// runOp executes an analog microprogram over operand vectors and returns
// the destination elements (mirror of the digital test harness).
func runOp(t *testing.T, op isa.Op, dt isa.DataType, imm int64, operands ...[]int64) []int64 {
	t.Helper()
	p, err := Build(op, dt, imm)
	if err != nil {
		t.Fatalf("Build(%v,%v): %v", op, dt, err)
	}
	n := dt.Bits()
	count := 0
	for _, o := range operands {
		if len(o) > count {
			count = len(o)
		}
	}
	width := (count + 63) / 64 * 64
	if width == 0 {
		width = 64
	}
	e := NewEngine(p.Rows, width)
	for i, o := range operands {
		vals := make([]int64, len(o))
		for j, v := range o {
			vals[j] = dt.Truncate(v)
		}
		e.LoadVertical(i*n, n, vals)
	}
	if err := e.Run(p, 0); err != nil {
		t.Fatalf("Run(%v): %v", op, err)
	}
	out := e.ReadVertical(p.DstBase, n, count)
	for j := range out {
		out[j] = dt.Truncate(out[j])
	}
	return out
}

func edgeValues(dt isa.DataType) []int64 {
	n := uint(dt.Bits())
	vals := []int64{0, 1, 2, 3, -1, -2, 5, 7, 100, -100}
	if n < 64 {
		vals = append(vals, int64(1)<<(n-1)-1, -(int64(1) << (n - 1)), int64(1)<<n-1, int64(1)<<(n-1))
	}
	return vals
}

var binaryOps = []isa.Op{
	isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpAnd, isa.OpOr, isa.OpXor,
	isa.OpXnor, isa.OpMin, isa.OpMax, isa.OpLt, isa.OpGt, isa.OpEq,
}

func TestAnalogBinaryMicroprograms(t *testing.T) {
	for _, op := range binaryOps {
		for _, dt := range []isa.DataType{isa.Int8, isa.UInt8, isa.Int16, isa.Int32, isa.UInt32} {
			ev := edgeValues(dt)
			var as, bs []int64
			for _, a := range ev {
				for _, b := range ev {
					as = append(as, a)
					bs = append(bs, b)
				}
			}
			got := runOp(t, op, dt, 0, as, bs)
			for i := range as {
				want := kernels.RefBinary(op, dt, as[i], bs[i])
				if got[i] != want {
					t.Fatalf("analog %v.%v(%d,%d) = %d, want %d",
						op, dt, dt.Truncate(as[i]), dt.Truncate(bs[i]), got[i], want)
				}
			}
		}
	}
}

func TestAnalogUnaryAndShift(t *testing.T) {
	dt := isa.Int16
	vals := edgeValues(dt)
	got := runOp(t, isa.OpNot, dt, 0, vals)
	for i, a := range vals {
		if want := dt.Truncate(^dt.Truncate(a)); got[i] != want {
			t.Errorf("not(%d) = %d, want %d", a, got[i], want)
		}
	}
	got = runOp(t, isa.OpAbs, dt, 0, vals)
	for i, a := range vals {
		want := dt.Truncate(a)
		if want < 0 {
			want = dt.Truncate(-want)
		}
		if got[i] != want {
			t.Errorf("abs(%d) = %d, want %d", a, got[i], want)
		}
	}
	for _, k := range []int{0, 1, 5, 15, 16} {
		got = runOp(t, isa.OpShiftL, dt, int64(k), vals)
		for i, a := range vals {
			want := int64(0)
			if k < 16 {
				want = dt.Truncate(dt.Truncate(a) << uint(k))
			}
			if got[i] != want {
				t.Errorf("shl(%d,%d) = %d, want %d", a, k, got[i], want)
			}
		}
	}
	got = runOp(t, isa.OpPopCount, dt, 0, vals)
	for i, a := range vals {
		v := uint64(dt.Truncate(a)) & 0xFFFF
		want := int64(0)
		for ; v != 0; v &= v - 1 {
			want++
		}
		if got[i] != want {
			t.Errorf("popcount(%d) = %d, want %d", a, got[i], want)
		}
	}
}

func TestAnalogSelectAndBroadcast(t *testing.T) {
	dt := isa.Int8
	mask := []int64{1, 0, 1, 0}
	a := []int64{10, 20, 30, 40}
	b := []int64{-1, -2, -3, -4}
	got := runOp(t, isa.OpSelect, dt, 0, mask, a, b)
	for i := range mask {
		want := b[i]
		if mask[i] != 0 {
			want = a[i]
		}
		if got[i] != want {
			t.Errorf("select[%d] = %d, want %d", i, got[i], want)
		}
	}
	p, err := Build(isa.OpBroadcast, dt, -77)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(p.Rows, 64)
	if err := e.Run(p, 0); err != nil {
		t.Fatal(err)
	}
	for _, v := range e.ReadVertical(0, 8, 64) {
		if dt.Truncate(v) != -77 {
			t.Fatalf("broadcast = %d", v)
		}
	}
}

func TestAnalogUnsupportedOps(t *testing.T) {
	for _, op := range []isa.Op{isa.OpRedSum, isa.OpRedSumSeg, isa.OpCopyD2D, isa.OpSbox} {
		if _, err := Build(op, isa.Int32, 0); err == nil {
			t.Errorf("Build(%v) succeeded, want error", op)
		}
	}
}

// TestAnalogCostsExceedDigital is the paper's Section IV argument in
// executable form: the analog MAJ/NOT formulation needs several times more
// row operations than the digital AND/XNOR/SEL design for the same ops,
// because operands must be staged into the TRA-capable rows.
func TestAnalogCostsExceedDigital(t *testing.T) {
	for _, op := range []isa.Op{isa.OpAdd, isa.OpXor, isa.OpMul, isa.OpLt} {
		ap, err := Build(op, isa.Int32, 0)
		if err != nil {
			t.Fatal(err)
		}
		dp, err := bitserial.Build(op, isa.Int32, 0)
		if err != nil {
			t.Fatal(err)
		}
		ac, dc := ap.Counts(), dp.Counts()
		// Analog row operations: every AAP/NOT/TRA touches rows.
		analogRowOps := ac.AAPs + ac.Nots + ac.TRAs + ac.Sets
		digitalRowOps := dc.Reads + dc.Writes
		if analogRowOps < 2*digitalRowOps {
			t.Errorf("%v: analog %d row ops vs digital %d — expected >2x (TRA staging overhead)",
				op, analogRowOps, digitalRowOps)
		}
	}
}

func TestEngineBounds(t *testing.T) {
	p := &Program{Name: "x", Rows: 4, Ops: []MicroOp{{Kind: KAAP, Src: 0, Dst: 10}}}
	e := NewEngine(4, 64)
	if err := e.Run(p, 0); err == nil {
		t.Error("out-of-region row accepted")
	}
	if err := e.Run(&Program{Rows: 10}, 0); err == nil {
		t.Error("oversized region accepted")
	}
}

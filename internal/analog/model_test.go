package analog

import (
	"testing"

	"pimeval/internal/bitserial"
	"pimeval/internal/dram"
	"pimeval/internal/energy"
	"pimeval/internal/isa"
	"pimeval/internal/perf"
)

func cost(t *testing.T, op isa.Op, elemsPerCore int64, cores int) perf.Cost {
	t.Helper()
	mod := dram.DDR4(1)
	cmd := isa.Command{Op: op, Type: isa.Int32, Inputs: 2, WritesResult: true}
	if op == isa.OpRedSum {
		cmd.Inputs, cmd.WritesResult = 1, false
	}
	return NewModel().CmdCost(cmd, elemsPerCore, cores, mod, energy.NewModel(mod))
}

func TestModelBasics(t *testing.T) {
	m := NewModel()
	g := dram.DDR4(2).Geometry
	if !m.Vertical() {
		t.Error("analog bit-serial is vertical")
	}
	if m.Cores(g) != g.TotalSubarrays() {
		t.Error("one core per subarray")
	}
	// Reserved rows shrink capacity relative to digital.
	dig := bitserial.NewModel()
	if m.ElemCapacityPerCore(g, 32) >= dig.ElemCapacityPerCore(g, 32) {
		t.Error("analog capacity must be below digital (reserved TRA/DCC rows)")
	}
	// Degenerate geometry: fewer usable rows than element bits.
	tiny := g
	tiny.RowsPerSubarray = reservedRows + 16
	if m.ElemCapacityPerCore(tiny, 32) != 0 {
		t.Error("capacity must be zero when usable rows < element width")
	}
}

func TestSlowerThanDigitalAcrossOps(t *testing.T) {
	mod := dram.DDR4(1)
	em := energy.NewModel(mod)
	dig := bitserial.NewModel()
	for _, op := range []isa.Op{isa.OpAdd, isa.OpMul, isa.OpXor, isa.OpLt, isa.OpPopCount, isa.OpDiv} {
		cmd := isa.Command{Op: op, Type: isa.Int32, Inputs: 2, WritesResult: true}
		a := NewModel().CmdCost(cmd, 8192, 1, mod, em)
		d := dig.CmdCost(cmd, 8192, 1, mod, em)
		if a.TimeNS <= d.TimeNS {
			t.Errorf("%v: analog (%v ns) must be slower than digital (%v ns)", op, a.TimeNS, d.TimeNS)
		}
	}
}

func TestBatchingAndEnergyScaling(t *testing.T) {
	one := cost(t, isa.OpAdd, 8192, 1)
	two := cost(t, isa.OpAdd, 8193, 1)
	if two.TimeNS != 2*one.TimeNS {
		t.Errorf("batch spill: %v vs %v", two.TimeNS, one.TimeNS)
	}
	many := cost(t, isa.OpAdd, 8192, 64)
	if many.TimeNS != one.TimeNS {
		t.Error("latency must be core-count invariant")
	}
	if many.EnergyPJ != 64*one.EnergyPJ {
		t.Error("energy must scale with cores")
	}
	if z := cost(t, isa.OpAdd, 0, 4); z.TimeNS != 0 {
		t.Error("zero work must cost zero")
	}
}

func TestSpecialOpCosts(t *testing.T) {
	red := cost(t, isa.OpRedSum, 8192, 1)
	if red.TimeNS <= 0 {
		t.Error("analog reduction must be charged (popcount program)")
	}
	mod := dram.DDR4(1)
	em := energy.NewModel(mod)
	sbox := NewModel().CmdCost(isa.Command{Op: isa.OpSbox, Type: isa.UInt8, Inputs: 1, WritesResult: true}, 8192, 1, mod, em)
	if sbox.TimeNS <= 0 {
		t.Error("analog sbox must be charged")
	}
	d2d := NewModel().CmdCost(isa.Command{Op: isa.OpCopyD2D, Type: isa.Int32, Inputs: 1, WritesResult: true}, 8192, 1, mod, em)
	if d2d.TimeNS <= 0 {
		t.Error("analog d2d must be charged")
	}
	// Unknown op with no microprogram: zero cost, not a panic.
	bogus := NewModel().CmdCost(isa.Command{Op: isa.Op(99), Type: isa.Int32, Inputs: 2}, 8192, 1, mod, em)
	if bogus.TimeNS != 0 {
		t.Error("unknown op must cost zero")
	}
}

func TestCountsCache(t *testing.T) {
	m := NewModel()
	a := cost(t, isa.OpMul, 4096, 1)
	_ = m // cache is internal; re-running must be identical
	b := cost(t, isa.OpMul, 4096, 1)
	if a != b {
		t.Error("cost must be deterministic across cache hits")
	}
}

// TestShiftCountsKeyClamped checks that the count cache holds one entry for
// all shift amounts at or past the width, and that their cost is the cost at
// the width.
func TestShiftCountsKeyClamped(t *testing.T) {
	mod := dram.DDR4(1)
	m := NewModel()
	em := energy.NewModel(mod)
	cost := func(amount int64) float64 {
		return m.CmdCost(isa.Command{Op: isa.OpShiftL, Type: isa.UInt32, Scalar: amount, Inputs: 1, WritesResult: true}, 8192, 1, mod, em).TimeNS
	}
	want := cost(32)
	for _, amount := range []int64{33, 100, 1 << 40} {
		if got := cost(amount); got != want {
			t.Errorf("shift by %d costs %v, want the width's %v", amount, got, want)
		}
	}
	if len(m.progs) != 1 {
		t.Errorf("count cache holds %d entries, want 1", len(m.progs))
	}
}

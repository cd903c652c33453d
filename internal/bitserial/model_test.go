package bitserial

import (
	"testing"

	"pimeval/internal/dram"
	"pimeval/internal/energy"
	"pimeval/internal/isa"
	"pimeval/internal/perf"
)

func costOf(t *testing.T, op isa.Op, elemsPerCore int64, cores int) perf.Cost {
	t.Helper()
	mod := dram.DDR4(1)
	m := NewModel()
	cmd := isa.Command{Op: op, Type: isa.Int32, N: elemsPerCore * int64(cores), Inputs: 2, WritesResult: true}
	return m.CmdCost(cmd, elemsPerCore, cores, mod, energy.NewModel(mod))
}

func TestModelBasics(t *testing.T) {
	m := NewModel()
	g := dram.DDR4(2).Geometry
	if !m.Vertical() {
		t.Error("bit-serial must report vertical layout")
	}
	if got := m.Cores(g); got != g.TotalSubarrays() {
		t.Errorf("Cores = %d, want %d", got, g.TotalSubarrays())
	}
	// 8192 columns x (1024/32) row groups = 262144 int32 per subarray.
	if got := m.ElemCapacityPerCore(g, 32); got != 8192*32 {
		t.Errorf("ElemCapacityPerCore(32) = %d, want %d", got, 8192*32)
	}
	if m.ActiveSubarraysPerCore() != 1 {
		t.Error("one subarray per core")
	}
}

func TestZeroWork(t *testing.T) {
	if c := costOf(t, isa.OpAdd, 0, 10); c.TimeNS != 0 || c.EnergyPJ != 0 {
		t.Errorf("zero elements cost %+v", c)
	}
}

func TestBatchingLatency(t *testing.T) {
	one := costOf(t, isa.OpAdd, 8192, 1) // exactly one batch
	two := costOf(t, isa.OpAdd, 8193, 1) // spills into a second batch
	four := costOf(t, isa.OpAdd, 4*8192, 1)
	if two.TimeNS != 2*one.TimeNS {
		t.Errorf("8193 elems = %v ns, want exactly 2x one batch (%v)", two.TimeNS, one.TimeNS)
	}
	if four.TimeNS != 4*one.TimeNS {
		t.Errorf("4 batches = %v ns, want 4x", four.TimeNS)
	}
	// Latency is independent of core count (lockstep broadcast)...
	many := costOf(t, isa.OpAdd, 8192, 4096)
	if many.TimeNS != one.TimeNS {
		t.Errorf("latency changed with cores: %v vs %v", many.TimeNS, one.TimeNS)
	}
	// ...but energy scales with active cores.
	if many.EnergyPJ != 4096*one.EnergyPJ {
		t.Errorf("energy %v, want 4096x %v", many.EnergyPJ, one.EnergyPJ)
	}
}

func TestOpCostOrdering(t *testing.T) {
	add := costOf(t, isa.OpAdd, 8192, 1)
	mul := costOf(t, isa.OpMul, 8192, 1)
	pop := costOf(t, isa.OpPopCount, 8192, 1)
	red := costOf(t, isa.OpRedSum, 8192, 1)
	if mul.TimeNS < 10*add.TimeNS {
		t.Errorf("mul (%v) should be >>10x add (%v): quadratic vs linear", mul.TimeNS, add.TimeNS)
	}
	if pop.TimeNS <= add.TimeNS {
		t.Errorf("popcount (%v) should exceed add (%v): log-linear", pop.TimeNS, add.TimeNS)
	}
	if red.TimeNS >= add.TimeNS {
		t.Errorf("redsum (%v) should be cheaper than add (%v): hardware row popcount", red.TimeNS, add.TimeNS)
	}
}

// TestAddLatencyMagnitude anchors add.int32 to the hand-derived figure:
// ~64 row reads + 32 row writes + ~193 logic steps per batch
// = 64x28.5 + 32x43.5 + ~193x3 ~ 3.8 us.
func TestAddLatencyMagnitude(t *testing.T) {
	c := costOf(t, isa.OpAdd, 8192, 1)
	if us := c.TimeNS / 1000; us < 3 || us > 5 {
		t.Errorf("add.int32 single batch = %v us, want 3-5 us", us)
	}
}

func TestScalarVariantCheaper(t *testing.T) {
	mod := dram.DDR4(1)
	m := NewModel()
	em := energy.NewModel(mod)
	scalar := m.CmdCost(isa.Command{Op: isa.OpAdd, Type: isa.Int32, Inputs: 1, Scalar: 5, WritesResult: true}, 8192, 1, mod, em)
	vector := m.CmdCost(isa.Command{Op: isa.OpAdd, Type: isa.Int32, Inputs: 2, WritesResult: true}, 8192, 1, mod, em)
	if scalar.TimeNS <= 0 || scalar.EnergyPJ <= 0 {
		t.Fatalf("scalar add cost %+v, want positive", scalar)
	}
	if scalar.TimeNS >= vector.TimeNS {
		t.Errorf("scalar add (%v ns) must be cheaper than vector add (%v ns): no B-plane reads", scalar.TimeNS, vector.TimeNS)
	}
}

// TestScalarMulSparsity: multiplying by a power of two must be far cheaper
// than multiplying by an all-ones constant — the controller skips zero
// multiplier bits.
func TestScalarMulSparsity(t *testing.T) {
	mod := dram.DDR4(1)
	m := NewModel()
	em := energy.NewModel(mod)
	cost := func(s int64) float64 {
		return m.CmdCost(isa.Command{Op: isa.OpMul, Type: isa.Int32, Inputs: 1, Scalar: s, WritesResult: true}, 8192, 1, mod, em).TimeNS
	}
	sparse, dense := cost(1<<16), cost(-1)
	if sparse*5 > dense {
		t.Errorf("mul by 2^16 (%v ns) should be >5x cheaper than mul by all-ones (%v ns)", sparse, dense)
	}
	vector := m.CmdCost(isa.Command{Op: isa.OpMul, Type: isa.Int32, Inputs: 2, WritesResult: true}, 8192, 1, mod, em).TimeNS
	if dense > vector {
		t.Errorf("worst-case scalar mul (%v) must not exceed the vector form (%v)", dense, vector)
	}
}

func TestSegmentedReductionCost(t *testing.T) {
	mod := dram.DDR4(1)
	m := NewModel()
	em := energy.NewModel(mod)
	full := m.CmdCost(isa.Command{Op: isa.OpRedSum, Type: isa.Int32, Inputs: 1}, 8192, 1, mod, em)
	seg := m.CmdCost(isa.Command{Op: isa.OpRedSumSeg, Type: isa.Int32, SegLen: 512, Inputs: 1}, 8192, 1, mod, em)
	if seg.TimeNS <= full.TimeNS {
		t.Errorf("segmented reduction (%v) should cost more than full (%v): one popcount per segment chunk", seg.TimeNS, full.TimeNS)
	}
}

func TestShiftImmediateAffectsCost(t *testing.T) {
	mod := dram.DDR4(1)
	m := NewModel()
	em := energy.NewModel(mod)
	small := m.CmdCost(isa.Command{Op: isa.OpShiftL, Type: isa.Int32, Scalar: 1, Inputs: 1, WritesResult: true}, 8192, 1, mod, em)
	big := m.CmdCost(isa.Command{Op: isa.OpShiftL, Type: isa.Int32, Scalar: 31, Inputs: 1, WritesResult: true}, 8192, 1, mod, em)
	if small.TimeNS <= big.TimeNS {
		t.Errorf("shift by 1 (%v) should move more planes than shift by 31 (%v)", small.TimeNS, big.TimeNS)
	}
}

// TestShiftCountsKeyClamped checks that the model's count cache holds one
// entry for all shift amounts at or past the width, and that their cost is
// the cost at the width.
func TestShiftCountsKeyClamped(t *testing.T) {
	mod := dram.DDR4(1)
	m := NewModel()
	em := energy.NewModel(mod)
	cost := func(amount int64) float64 {
		return m.CmdCost(isa.Command{Op: isa.OpShiftR, Type: isa.Int16, Scalar: amount, Inputs: 1, WritesResult: true}, 8192, 1, mod, em).TimeNS
	}
	want := cost(16)
	for _, amount := range []int64{17, 100, 1 << 40} {
		if got := cost(amount); got != want {
			t.Errorf("shift by %d costs %v, want the width's %v", amount, got, want)
		}
	}
	if len(m.progs) != 1 {
		t.Errorf("count cache holds %d entries, want 1", len(m.progs))
	}
}

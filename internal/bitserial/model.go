package bitserial

import (
	"sync"

	"pimeval/internal/dram"
	"pimeval/internal/energy"
	"pimeval/internal/isa"
	"pimeval/internal/perf"
)

// RowPopcountNS is the latency of the hardware row-wide popcount used for
// integer reduction sums (a compressor tree across the local row buffer).
const RowPopcountNS = 20.0

// CombineBaseNS is the per-level latency of the memory-controller reduction
// tree that combines per-core partial sums.
const CombineBaseNS = 50.0

// Model is the performance/energy model of the subarray-level bit-serial
// architecture (DRAM-AP). One PIM core is one subarray; every bitline is a
// lane, and a microprogram pass processes one vertical batch of up to
// ColsPerRow elements per core.
type Model struct {
	mu    sync.Mutex
	progs map[progKey]Counts
}

type progKey struct {
	op  isa.Op
	dt  isa.DataType
	imm int64
}

// NewModel returns a bit-serial cost model with an empty microprogram cache.
func NewModel() *Model { return &Model{progs: make(map[progKey]Counts)} }

// Name returns the simulation-target name used in reports.
func (m *Model) Name() string { return "PIM_DEVICE_BITSIMD_V_AP" }

// Vertical reports the data layout: bit-serial PIM lays elements vertically.
func (m *Model) Vertical() bool { return true }

// Cores returns one PIM core per subarray.
func (m *Model) Cores(g dram.Geometry) int { return g.TotalSubarrays() }

// ElemCapacityPerCore returns how many elements of the given width one
// subarray can hold in vertical layout: one element per column, one row per
// bit, so ColsPerRow elements per group of `bits` rows.
func (m *Model) ElemCapacityPerCore(g dram.Geometry, bits int) int64 {
	return int64(g.ColsPerRow) * int64(g.RowsPerSubarray/bits)
}

// ActiveSubarraysPerCore returns the subarrays kept open by one active core.
func (m *Model) ActiveSubarraysPerCore() int { return 1 }

// counts returns the cached micro-op composition for the op. The per-model
// map memoizes the Counts tally (which walks every micro-op); program
// compilation itself goes through the process-wide BuildCached, shared with
// EvalElements cross-checks and the tools.
func (m *Model) counts(op isa.Op, dt isa.DataType, imm int64) (Counts, bool) {
	// Shift immediates change the program length; other immediates do not.
	// Amounts clamp to [0, width] as in BuildCached. A broadcast's value
	// only selects which SET ops write ones, so its counts compile from a
	// fixed value and new values add no BuildCached entries.
	key := progKey{op: op, dt: dt}
	switch op {
	case isa.OpShiftL, isa.OpShiftR:
		key.imm = min(max(imm, 0), int64(dt.Bits()))
	case isa.OpBroadcast:
		imm = 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if c, ok := m.progs[key]; ok {
		return c, true
	}
	p, err := BuildCached(op, dt, imm)
	if err != nil {
		return Counts{}, false
	}
	c := p.Counts()
	m.progs[key] = c
	return c, true
}

// CmdCost models one command execution: elemsPerCore elements resident in
// each of activeCores cores. Latency covers the serial batches of one core
// (all cores run in lockstep off the broadcast microprogram); energy scales
// with the number of active cores.
func (m *Model) CmdCost(cmd isa.Command, elemsPerCore int64, activeCores int, mod dram.Module, em energy.Model) perf.Cost {
	g, t := mod.Geometry, mod.Timing
	if elemsPerCore <= 0 || activeCores <= 0 {
		return perf.Cost{}
	}
	batches := (elemsPerCore + int64(g.ColsPerRow) - 1) / int64(g.ColsPerRow)
	bits := cmd.Type.Bits()

	switch cmd.Op {
	case isa.OpRedSum, isa.OpRedSumSeg:
		// Row-wide hardware popcount per bit plane (paper Section V-C:
		// popcount-based integer reduction), then a controller-side
		// combine tree over per-core partials.
		popsPerPlane := int64(1)
		if cmd.Op == isa.OpRedSumSeg && cmd.SegLen > 0 && cmd.SegLen < int64(g.ColsPerRow) {
			popsPerPlane = (int64(g.ColsPerRow) + cmd.SegLen - 1) / cmd.SegLen
		}
		perBatchNS := float64(bits) * (t.RowReadNS + float64(popsPerPlane)*RowPopcountNS)
		timeNS := float64(batches)*perBatchNS + CombineBaseNS*log2ceil(activeCores)
		perCorePJ := float64(batches) * float64(bits) *
			(em.RowReadPJ() + float64(popsPerPlane)*energy.RowPopcountPJ)
		return perf.Cost{TimeNS: timeNS, EnergyPJ: perCorePJ * float64(activeCores)}

	case isa.OpCopyD2D:
		// Row-granularity move within/between subarrays.
		rows := float64(batches) * float64(bits)
		return perf.Cost{
			TimeNS:   rows * (t.RowReadNS + t.RowWriteNS),
			EnergyPJ: rows * (em.RowReadPJ() + em.RowWritePJ()) * float64(activeCores),
		}

	case isa.OpSbox, isa.OpSboxInv:
		// Bitsliced AES S-box gate network over the 8 bit planes
		// (Boyar-Peralta-class circuit: ~128 AND/XNOR/SEL steps).
		c := Counts{Reads: bits, Writes: bits, Logic: 16 * bits, Moves: 2 * bits}
		return m.countsCost(c, batches, activeCores, mod, em)
	}

	if f := cmd.Fused; f != nil {
		// Fused two-stage command. Bit-serial lanes hold one bit per
		// register, so the intermediate must still materialize as bit
		// planes: the fused microprogram (BuildFused) is the concatenation
		// of the stage programs, and its cost is the scalar-specialized sum
		// of the stages — exactly the sequential pair, never more
		// (countsCost is linear in the composition at fixed batches).
		c1, ok := m.counts(cmd.Op, cmd.Type, cmd.Scalar)
		if !ok {
			return perf.Cost{}
		}
		if f.Stage1Scalar {
			c1 = specializeScalar(c1, isa.Command{Op: cmd.Op, Scalar: cmd.Scalar}, bits)
		}
		c2, ok := m.counts(f.Op, cmd.Type, f.Scalar)
		if !ok {
			return perf.Cost{}
		}
		if f.ScalarForm {
			c2 = specializeScalar(c2, isa.Command{Op: f.Op, Scalar: f.Scalar}, bits)
		}
		c := Counts{
			Reads: c1.Reads + c2.Reads, Writes: c1.Writes + c2.Writes,
			Logic: c1.Logic + c2.Logic, Moves: c1.Moves + c2.Moves,
		}
		return m.countsCost(c, batches, activeCores, mod, em)
	}

	c, ok := m.counts(cmd.Op, cmd.Type, cmd.Scalar)
	if !ok {
		return perf.Cost{}
	}
	if cmd.Inputs == 1 {
		c = specializeScalar(c, cmd, bits)
	}
	return m.countsCost(c, batches, activeCores, mod, em)
}

// specializeScalar adjusts a binary microprogram's composition for the
// scalar-operand variant: the controller knows the immediate, so each
// B-plane row read becomes a register SET of the known bit, and a
// multiplier's zero bits skip their partial-product passes entirely.
func specializeScalar(c Counts, cmd isa.Command, bits int) Counts {
	switch cmd.Op {
	case isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpXnor,
		isa.OpLt, isa.OpGt, isa.OpEq, isa.OpMin, isa.OpMax:
		if c.Reads >= bits {
			c.Reads -= bits
			c.Moves += bits
		}
	case isa.OpMul, isa.OpDiv:
		// Multiplier/divisor bits are known: only set bits contribute
		// partial-product (or restoring) passes.
		pc := 0
		v := uint64(cmd.Scalar) & (uint64(1)<<uint(bits) - 1)
		for ; v != 0; v &= v - 1 {
			pc++
		}
		scale := float64(pc+1) / float64(bits+1)
		c.Reads = int(float64(c.Reads) * scale)
		c.Writes = int(float64(c.Writes) * scale)
		c.Logic = int(float64(c.Logic) * scale)
		c.Moves = int(float64(c.Moves) * scale)
	}
	return c
}

// countsCost converts a micro-op composition into a cost over serial
// batches and parallel cores.
func (m *Model) countsCost(c Counts, batches int64, activeCores int, mod dram.Module, em energy.Model) perf.Cost {
	g, t := mod.Geometry, mod.Timing
	tLogic := t.TCCDNS
	perBatchNS := float64(c.Reads)*t.RowReadNS + float64(c.Writes)*t.RowWriteNS +
		float64(c.Logic+c.Moves)*tLogic
	perBatchPJ := float64(c.Reads)*em.RowReadPJ() + float64(c.Writes)*em.RowWritePJ() +
		float64(c.Logic)*float64(g.ColsPerRow)*energy.BitlineLogicPJ +
		float64(c.Moves)*float64(g.ColsPerRow)*energy.BitlineRegMovePJ
	return perf.Cost{
		TimeNS:   float64(batches) * perBatchNS,
		EnergyPJ: float64(batches) * perBatchPJ * float64(activeCores),
	}
}

func log2ceil(n int) float64 {
	l := 0.0
	for v := 1; v < n; v <<= 1 {
		l++
	}
	return l
}

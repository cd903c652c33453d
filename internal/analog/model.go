package analog

import (
	"sync"

	"pimeval/internal/dram"
	"pimeval/internal/energy"
	"pimeval/internal/isa"
	"pimeval/internal/perf"
)

// reservedRows is the per-subarray row budget consumed by the analog
// compute apparatus: the TRA-capable triple, dual-contact NOT rows,
// constant control rows, and staging scratch (the paper's Section IV:
// "only a small subset of rows support TRA").
const reservedRows = 8

// TRAFactor scales a triple row activation relative to a normal activation
// (three wordlines raised into one shared charge-sharing window).
const TRAFactor = 1.5

// Model is the performance/energy model of analog bit-serial PIM
// (Ambit / SIMDRAM-style TRA computation). It mirrors the digital model's
// structure with micro-op costs for AAP copies, NOT copies, and TRAs.
type Model struct {
	mu    sync.Mutex
	progs map[progKey]Counts
}

type progKey struct {
	op  isa.Op
	dt  isa.DataType
	imm int64
}

// NewModel returns an analog bit-serial cost model.
func NewModel() *Model { return &Model{progs: make(map[progKey]Counts)} }

// Name returns the simulation-target name used in reports.
func (m *Model) Name() string { return "PIM_DEVICE_ANALOG_BITSIMD" }

// Vertical reports the data layout.
func (m *Model) Vertical() bool { return true }

// Cores returns one PIM core per subarray.
func (m *Model) Cores(g dram.Geometry) int { return g.TotalSubarrays() }

// ElemCapacityPerCore accounts for the reserved compute rows.
func (m *Model) ElemCapacityPerCore(g dram.Geometry, bits int) int64 {
	usable := g.RowsPerSubarray - reservedRows
	if usable < bits {
		return 0
	}
	return int64(g.ColsPerRow) * int64(usable/bits)
}

// ActiveSubarraysPerCore returns the open subarrays per active core.
func (m *Model) ActiveSubarraysPerCore() int { return 1 }

func (m *Model) counts(op isa.Op, dt isa.DataType, imm int64) (Counts, bool) {
	// Shift amounts clamp to [0, width], as buildShift clamps them, so
	// every out-of-range amount shares one entry.
	key := progKey{op: op, dt: dt}
	if op == isa.OpShiftL || op == isa.OpShiftR {
		key.imm = min(max(imm, 0), int64(dt.Bits()))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if c, ok := m.progs[key]; ok {
		return c, true
	}
	p, err := Build(op, dt, imm)
	if err != nil {
		return Counts{}, false
	}
	c := p.Counts()
	m.progs[key] = c
	return c, true
}

// CmdCost models one command execution (same batching semantics as the
// digital bit-serial model: one microprogram pass per vertical batch of
// ColsPerRow elements, all cores in lockstep).
func (m *Model) CmdCost(cmd isa.Command, elemsPerCore int64, activeCores int, mod dram.Module, em energy.Model) perf.Cost {
	g := mod.Geometry
	if elemsPerCore <= 0 || activeCores <= 0 {
		return perf.Cost{}
	}
	batches := (elemsPerCore + int64(g.ColsPerRow) - 1) / int64(g.ColsPerRow)
	bits := cmd.Type.Bits()

	if f := cmd.Fused; f != nil {
		// Fused two-stage command: TRA computation has no registers to keep
		// an intermediate in, so the fused cost is exactly the sum of the
		// stage compositions (countsCost is linear at fixed batches) —
		// never more than the sequential pair.
		c1, ok := m.cmdCounts(cmd.Op, cmd.Type, cmd.Scalar, bits)
		if !ok {
			return perf.Cost{}
		}
		c2, ok := m.cmdCounts(f.Op, cmd.Type, f.Scalar, bits)
		if !ok {
			return perf.Cost{}
		}
		c := Counts{
			AAPs: c1.AAPs + c2.AAPs, Nots: c1.Nots + c2.Nots,
			TRAs: c1.TRAs + c2.TRAs, Sets: c1.Sets + c2.Sets,
		}
		return m.countsCost(c, batches, activeCores, mod, em)
	}

	var c Counts
	switch cmd.Op {
	case isa.OpRedSum, isa.OpRedSumSeg:
		// No hardware row popcount here (that is the digital DRAM-AP
		// addition): reduce by running the popcount microprogram and
		// letting the controller combine per-plane counts.
		pc, ok := m.counts(isa.OpPopCount, cmd.Type, 0)
		if !ok {
			return perf.Cost{}
		}
		c = pc
		c.AAPs += bits // plane reads for the controller combine
	case isa.OpCopyD2D:
		c = Counts{AAPs: bits}
	case isa.OpSbox, isa.OpSboxInv:
		// Bitsliced S-box network composed from MAJ/NOT gates: roughly 3x
		// the digital gate count once staging copies are included.
		c = Counts{AAPs: 96, Nots: 16, TRAs: 40}
	case isa.OpDiv:
		// Restoring division built from the analog adder/mux gates:
		// approximated from the digital divider's Θ(n²) structure with
		// TRA staging multiplying every gate into copies.
		c = Counts{AAPs: 40 * bits * bits, Nots: 2 * bits * bits, TRAs: 10 * bits * bits}
	default:
		var ok bool
		c, ok = m.counts(cmd.Op, cmd.Type, cmd.Scalar)
		if !ok {
			return perf.Cost{}
		}
	}
	return m.countsCost(c, batches, activeCores, mod, em)
}

// cmdCounts returns the micro-op composition of one element-wise op,
// applying the same special cases CmdCost uses for ops without a direct
// microprogram translation (division, the S-box network).
func (m *Model) cmdCounts(op isa.Op, dt isa.DataType, imm int64, bits int) (Counts, bool) {
	switch op {
	case isa.OpSbox, isa.OpSboxInv:
		return Counts{AAPs: 96, Nots: 16, TRAs: 40}, true
	case isa.OpDiv:
		return Counts{AAPs: 40 * bits * bits, Nots: 2 * bits * bits, TRAs: 10 * bits * bits}, true
	default:
		return m.counts(op, dt, imm)
	}
}

// countsCost converts a micro-op composition into time and energy.
func (m *Model) countsCost(c Counts, batches int64, activeCores int, mod dram.Module, em energy.Model) perf.Cost {
	t := mod.Timing
	aapNS := t.RowReadNS + t.RowWriteNS // activate source, restore into dest
	traNS := t.RowReadNS * TRAFactor
	setNS := t.RowWriteNS
	perBatchNS := float64(c.AAPs+c.Nots)*aapNS + float64(c.TRAs)*traNS + float64(c.Sets)*setNS

	aapPJ := em.RowReadPJ() + em.RowWritePJ()
	traPJ := 2.5 * em.RowReadPJ() // three wordlines share one window
	perBatchPJ := float64(c.AAPs+c.Nots)*aapPJ + float64(c.TRAs)*traPJ + float64(c.Sets)*em.RowWritePJ()

	return perf.Cost{
		TimeNS:   float64(batches) * perBatchNS,
		EnergyPJ: float64(batches) * perBatchPJ * float64(activeCores),
	}
}

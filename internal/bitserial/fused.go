package bitserial

import (
	"fmt"
	"sync"

	"pimeval/internal/isa"
)

// Fused two-stage microprograms: the bit-serial compilation of the stream
// optimizer's fused commands (FormFused). Bit-serial lanes hold a single bit
// per register, so a fused pair cannot avoid materializing the intermediate
// as bit planes — the fused program is the concatenation of the stage
// programs with stage 2's input region remapped onto stage 1's destination
// planes. What fusion does buy here is the scalar-stage specialization:
// a scalar operand's plane reads compile to register SETs of the known
// immediate bits (one TCCD-class register op instead of a full row read),
// exactly the adjustment the cost model applies via specializeScalar.

// FusedSpec describes a two-stage fused element-wise operation for program
// compilation. Stage 1 applies Op1 to the A operand (and the B1 operand, or
// the S1 immediate when Scalar1); stage 2 applies Op2 to the intermediate
// (and the B2 operand when Binary2, or the S2 immediate when Scalar2).
type FusedSpec struct {
	Op1, Op2 isa.Op
	DT       isa.DataType
	Scalar1  bool  // stage 1 is the scalar-broadcast form (immediate S1)
	Scalar2  bool  // stage 2 is the scalar-broadcast form (immediate S2)
	Binary2  bool  // stage 2 consumes a second memory operand (needs Scalar1)
	S1, S2   int64 // stage immediates, baked into SET micro-ops
}

// FusedProgram is a compiled fused microprogram plus the operand-region row
// bases of its layout (a base is -1 when the fused shape has no such
// operand). The A operand always sits at rows [0, n); the destination planes
// are [DstBase, DstBase+n) as usual.
type FusedProgram struct {
	*Program
	ABase  int // stage-1 A operand (always 0)
	B1Base int // stage-1 B operand, -1 when stage 1 is scalar
	B2Base int // stage-2 B operand, -1 unless Binary2
}

// BuildFused compiles the fused microprogram for the spec. Stage programs
// are compiled fresh (not from the shared cache) because scalarization and
// row remapping mutate them in place.
func BuildFused(spec FusedSpec) (FusedProgram, error) {
	if spec.Binary2 && !spec.Scalar1 {
		return FusedProgram{}, fmt.Errorf("bitserial: fused binary second stage requires a scalar first stage")
	}
	if spec.Scalar2 && spec.Binary2 {
		return FusedProgram{}, fmt.Errorf("bitserial: fused stage 2 cannot be both scalar and binary")
	}
	n := spec.DT.Bits()
	p1, err := Build(spec.Op1, spec.DT, 0)
	if err != nil {
		return FusedProgram{}, err
	}
	if spec.Scalar1 {
		scalarizeRegion(p1, n, 2*n, spec.DT.Truncate(spec.S1))
	}
	p2, err := Build(spec.Op2, spec.DT, 0)
	if err != nil {
		return FusedProgram{}, err
	}
	stage2Binary := spec.Scalar2 || spec.Binary2
	if stage2Binary && p2.DstBase != 2*n {
		return FusedProgram{}, fmt.Errorf("bitserial: op %v is not a binary-layout program", spec.Op2)
	}
	if !stage2Binary && p2.DstBase != n {
		return FusedProgram{}, fmt.Errorf("bitserial: op %v is not a unary-layout program", spec.Op2)
	}
	if spec.Scalar2 {
		scalarizeRegion(p2, n, 2*n, spec.DT.Truncate(spec.S2))
	}
	// Remap stage 2 onto the concatenated layout: its A region [0, n) reads
	// stage 1's destination planes, and everything else (B region, dest,
	// scratch) moves to fresh rows appended after stage 1's.
	for i := range p2.Ops {
		op := &p2.Ops[i]
		if op.Kind != KRead && op.Kind != KWrite {
			continue
		}
		if r := int(op.Row); r < n {
			op.Row = int32(p1.DstBase + r)
		} else {
			op.Row = int32(p1.Rows + r - n)
		}
	}
	fused := &Program{
		Name:    p1.Name + "+" + p2.Name,
		Ops:     append(append(make([]MicroOp, 0, len(p1.Ops)+len(p2.Ops)), p1.Ops...), p2.Ops...),
		Rows:    p1.Rows + p2.Rows - n,
		DstBase: p1.Rows + p2.DstBase - n,
	}
	fp := FusedProgram{Program: fused, ABase: 0, B1Base: -1, B2Base: -1}
	if !spec.Scalar1 {
		fp.B1Base = n
	}
	if spec.Binary2 {
		fp.B2Base = p1.Rows
	}
	return fp, nil
}

var fusedBuildCache sync.Map // FusedSpec -> *fusedBuildResult

type fusedBuildResult struct {
	p   FusedProgram
	err error
}

// BuildFusedCached returns BuildFused(spec), memoized process-wide like
// BuildCached. The immediates participate in the key only when their stage
// is scalar (they are baked into SET ops then); callers should zero unused
// immediates for maximal sharing.
func BuildFusedCached(spec FusedSpec) (FusedProgram, error) {
	key := spec
	if !key.Scalar1 {
		key.S1 = 0
	}
	if !key.Scalar2 {
		key.S2 = 0
	}
	if v, ok := fusedBuildCache.Load(key); ok {
		r := v.(*fusedBuildResult)
		return r.p, r.err
	}
	p, err := BuildFused(spec)
	v, _ := fusedBuildCache.LoadOrStore(key, &fusedBuildResult{p: p, err: err})
	r := v.(*fusedBuildResult)
	return r.p, r.err
}

// scalarizeRegion rewrites every row read of the operand region
// [base, base+n) into a register SET of the corresponding immediate bit —
// the controller knows the scalar, so no plane of it needs to exist in the
// array. Derived planes a program computes from the region (e.g. signed
// division's |B|) are unaffected: only direct reads of the operand rows
// carry the immediate's bits.
func scalarizeRegion(p *Program, base, end int, imm int64) {
	for i := range p.Ops {
		op := &p.Ops[i]
		if op.Kind == KRead && int(op.Row) >= base && int(op.Row) < end {
			*op = MicroOp{Kind: KSet, Dst: RSA, Val: (imm>>uint(int(op.Row)-base))&1 != 0}
		}
	}
}

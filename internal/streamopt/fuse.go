package streamopt

import (
	"pimeval/internal/cmdstream"
	"pimeval/internal/isa"
)

// commutative lists the binary ops where swapping operands preserves the
// result bit-for-bit, letting the fuser accept a consumer that reads the
// intermediate as its second operand.
var commutative = map[isa.Op]bool{
	isa.OpAdd: true, isa.OpMul: true, isa.OpAnd: true, isa.OpOr: true,
	isa.OpXor: true, isa.OpXnor: true, isa.OpMin: true, isa.OpMax: true,
	isa.OpEq: true,
}

// fuse collapses adjacent element-wise pairs where the second record
// consumes the first's destination into single two-stage FormFused
// commands. On the word-parallel architectures (Fulcrum, bank-level) the
// intermediate then lives in the ALU instead of costing a row write plus a
// row re-read; on the bit-serial targets the fused cost is exactly the
// scalar-specialized sum of the stages — fusion never regresses either way.
func fuse(recs []cmdstream.Record) ([]cmdstream.Record, int) {
	out := make([]cmdstream.Record, 0, len(recs))
	fused := 0
	for i := 0; i < len(recs); i++ {
		if i+1 < len(recs) {
			if fr, ok := tryFuse(recs, i); ok {
				out = append(out, fr)
				fused++
				i++
				continue
			}
		}
		out = append(out, recs[i])
	}
	return out, fused
}

// tryFuse decides whether recs[i] and recs[i+1] form a legal fused pair and
// builds the replacement record. The shape constraints mirror the device's
// ExecFused validation: stage 1 is binary or scalar, stage 2 is a fusable
// unary, a scalar, or — only when stage 1 is scalar, keeping the command at
// two memory operands — a binary.
func tryFuse(recs []cmdstream.Record, i int) (cmdstream.Record, bool) {
	r1, r2 := &recs[i], &recs[i+1]
	none := cmdstream.Record{}
	if r1.Kind != cmdstream.KindExec || r2.Kind != cmdstream.KindExec {
		return none, false
	}
	if r1.Form != cmdstream.FormBinary && r1.Form != cmdstream.FormScalar {
		return none, false
	}
	if r1.Type != r2.Type || r1.N != r2.N {
		return none, false
	}
	if _, ok := isa.OpByName(r1.Op); !ok {
		return none, false
	}
	op2, ok := isa.OpByName(r2.Op)
	if !ok {
		return none, false
	}

	t := r1.Dst // the intermediate the pair communicates through
	var b, s2 int64
	switch r2.Form {
	case cmdstream.FormUnary:
		if !cmdstream.FusableUnary(op2) || r2.A != t {
			return none, false
		}
	case cmdstream.FormScalar:
		if r2.A != t {
			return none, false
		}
		s2 = r2.Scalar
	case cmdstream.FormBinary:
		if r1.Form != cmdstream.FormScalar {
			return none, false
		}
		switch {
		case r2.A == t && r2.B != t:
			b = r2.B
		case r2.B == t && r2.A != t && commutative[op2]:
			b = r2.A
		default:
			return none, false
		}
	default:
		return none, false
	}
	if r1.Form == cmdstream.FormBinary {
		b = r1.B
	}

	// The fused command never writes the intermediate, so t's final value
	// must be unobservable: either the consumer overwrites it, or nothing
	// reads it again before it is freed or fully overwritten.
	if t != r2.Dst && !deadAfter(recs, i+2, t) {
		return none, false
	}

	return cmdstream.Record{
		Seq: r1.Seq, Kind: cmdstream.KindExec,
		Form: cmdstream.FormFused, Form1: r1.Form, Form2: r2.Form,
		Op: r1.Op, Op2: r2.Op, Type: r1.Type, N: r1.N,
		A: r1.A, B: b, Dst: r2.Dst,
		Scalar: r1.Scalar, Scalar2: s2,
	}, true
}

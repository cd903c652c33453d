package device

import (
	"fmt"

	"pimeval/internal/cmdstream"
	"pimeval/internal/isa"
	"pimeval/internal/kernels"
)

// ExecFused dispatches a two-stage fused element-wise command produced by
// the stream optimizer: stage 1 (binary or scalar form) feeds stage 2
// (unary, scalar, or binary form) through an unmaterialized intermediate,
// and only the final result is written to f.Dst. All operands must share
// length and element type; f.Dst may alias an input. The command is charged
// as one dispatch on the architecture model, which on the word-parallel
// targets is strictly cheaper than the sequential pair (one fewer row-write
// round) and on the bit-serial targets exactly matches it.
func (d *Device) ExecFused(f cmdstream.Fused) (err error) {
	if d.guarded() {
		defer guard(&err)
	}
	if err := d.start(); err != nil {
		return err
	}
	if f.Form1 != cmdstream.FormBinary && f.Form1 != cmdstream.FormScalar {
		return fmt.Errorf("%w: fused stage 1 form %q", ErrBadArgument, f.Form1)
	}
	if !binaryOps[f.Op1] {
		return fmt.Errorf("%w: %v is not an element-wise binary op", ErrBadArgument, f.Op1)
	}
	switch f.Form2 {
	case cmdstream.FormUnary:
		if !cmdstream.FusableUnary(f.Op2) {
			return fmt.Errorf("%w: %v is not a fusable unary op", ErrBadArgument, f.Op2)
		}
	case cmdstream.FormScalar:
		if !binaryOps[f.Op2] {
			return fmt.Errorf("%w: %v is not an element-wise binary op", ErrBadArgument, f.Op2)
		}
	case cmdstream.FormBinary:
		if !binaryOps[f.Op2] {
			return fmt.Errorf("%w: %v is not an element-wise binary op", ErrBadArgument, f.Op2)
		}
		if f.Form1 != cmdstream.FormScalar {
			return fmt.Errorf("%w: fused binary second stage requires a scalar first stage", ErrBadArgument)
		}
	default:
		return fmt.Errorf("%w: fused stage 2 form %q", ErrBadArgument, f.Form2)
	}
	ao, err := d.obj(f.A)
	if err != nil {
		return err
	}
	do, err := d.obj(f.Dst)
	if err != nil {
		return err
	}
	// needB: one of the two stages is a true binary and reads f.B.
	needB := f.Form1 == cmdstream.FormBinary || f.Form2 == cmdstream.FormBinary
	var bo *Object
	if needB {
		if bo, err = d.obj(f.B); err != nil {
			return err
		}
		if bo.n != ao.n || bo.dt != ao.dt {
			return fmt.Errorf("%w: inputs (%d,%v) vs (%d,%v)", ErrShapeMismatch, ao.n, ao.dt, bo.n, bo.dt)
		}
	}
	if ao.n != do.n || ao.dt != do.dt {
		return fmt.Errorf("%w: dst (%d,%v) for inputs (%d,%v)", ErrShapeMismatch, do.n, do.dt, ao.n, ao.dt)
	}
	dt := ao.dt
	s1, s2 := dt.Truncate(f.S1), dt.Truncate(f.S2)
	ev := d.begin(ClassExec)
	if d.pipe.wantRecord() {
		ev.Record = cmdstream.Record{
			Kind: cmdstream.KindExec, Form: cmdstream.FormFused,
			Form1: f.Form1, Form2: f.Form2,
			Op: f.Op1.String(), Op2: f.Op2.String(),
			Type: dt.String(), N: do.n,
			A: int64(f.A), Dst: int64(f.Dst),
			Scalar: f.S1, Scalar2: f.S2,
		}
		if needB {
			ev.Record.B = int64(f.B)
		}
	}
	inputs := 1
	if needB {
		inputs = 2
	}
	return d.elementwise(ev, isa.Command{
		Op: f.Op1, Type: dt, N: do.n, Scalar: s1,
		Inputs: inputs, WritesResult: true,
		Fused: &isa.FusedStage{
			Op: f.Op2, Scalar: s2,
			ScalarForm:   f.Form2 == cmdstream.FormScalar,
			BinaryForm:   f.Form2 == cmdstream.FormBinary,
			Stage1Scalar: f.Form1 == cmdstream.FormScalar,
		},
	}, do, fusedBody(f, ao, bo, do, s1, s2), ao, bo)
}

// fusedBody resolves the command's fused kernel, one per command, and
// returns its loop over one span. Validation admits only stage ops that
// have kernels, so the resolved kernel is never nil.
func fusedBody(f cmdstream.Fused, ao, bo, do *Object, s1, s2 int64) func(lo, hi int64) {
	k := kernels.On(do.dt)
	var bk kernels.ElemsBinary
	var uk kernels.ElemsUnary
	switch {
	case f.Form1 == cmdstream.FormBinary && f.Form2 == cmdstream.FormUnary:
		bk = k.FusedBinaryUnary(f.Op1, f.Op2)
	case f.Form1 == cmdstream.FormBinary && f.Form2 == cmdstream.FormScalar:
		bk = k.FusedBinaryScalar(f.Op1, f.Op2, s2)
	case f.Form1 == cmdstream.FormScalar && f.Form2 == cmdstream.FormBinary:
		bk = k.FusedScalarBinary(f.Op1, f.Op2, s1)
	case f.Form1 == cmdstream.FormScalar && f.Form2 == cmdstream.FormScalar:
		uk = k.FusedScalarScalar(f.Op1, f.Op2, s1, s2)
	default: // scalar + unary
		uk = k.FusedScalarUnary(f.Op1, f.Op2, s1)
	}
	if bk != nil {
		return func(lo, hi int64) { bk(do.data, ao.data, bo.data, lo, hi) }
	}
	return func(lo, hi int64) { uk(do.data, ao.data, lo, hi) }
}

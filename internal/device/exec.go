package device

import (
	"fmt"

	"pimeval/internal/cmdstream"
	"pimeval/internal/isa"
	"pimeval/internal/kernels"
)

// binaryOps is the set of element-wise two-input commands.
var binaryOps = map[isa.Op]bool{
	isa.OpAdd: true, isa.OpSub: true, isa.OpMul: true, isa.OpDiv: true,
	isa.OpAnd: true, isa.OpOr: true, isa.OpXor: true, isa.OpXnor: true,
	isa.OpMin: true, isa.OpMax: true,
	isa.OpLt: true, isa.OpGt: true, isa.OpEq: true,
}

// unaryOps is the set of element-wise one-input commands.
var unaryOps = map[isa.Op]bool{
	isa.OpNot: true, isa.OpAbs: true, isa.OpPopCount: true,
	isa.OpSbox: true, isa.OpSboxInv: true,
}

// compareOps produce 0/1 masks; their destination may use a narrower type
// than the operands (a one-byte bitmap is the common case).
var compareOps = map[isa.Op]bool{isa.OpLt: true, isa.OpGt: true, isa.OpEq: true}

// ExecBinary dispatches an element-wise binary command dst = a op b.
func (d *Device) ExecBinary(op isa.Op, a, b, dst ObjID) (err error) {
	if d.guarded() {
		defer guard(&err)
	}
	if err := d.start(); err != nil {
		return err
	}
	if !binaryOps[op] {
		return fmt.Errorf("%w: %v is not an element-wise binary op", ErrBadArgument, op)
	}
	ao, bo, do, err := d.triple(a, b, dst, compareOps[op])
	if err != nil {
		return err
	}
	ev := d.begin(ClassExec)
	if d.pipe.wantRecord() {
		ev.Record = cmdstream.Record{
			Kind: cmdstream.KindExec, Form: cmdstream.FormBinary,
			Op: op.String(), Type: ao.dt.String(), N: do.n,
			A: int64(a), B: int64(b), Dst: int64(dst),
		}
	}
	k := kernels.On(ao.dt).Binary(op, do.dt)
	return d.elementwise(ev, isa.Command{Op: op, Type: ao.dt, N: do.n, Inputs: 2, WritesResult: true}, do,
		func(lo, hi int64) { k(do.data, ao.data, bo.data, lo, hi) }, ao, bo)
}

// ExecScalar dispatches dst = a op scalar, with the scalar broadcast by the
// controller (one memory-resident input).
func (d *Device) ExecScalar(op isa.Op, a ObjID, scalar int64, dst ObjID) (err error) {
	if d.guarded() {
		defer guard(&err)
	}
	if err := d.start(); err != nil {
		return err
	}
	if !binaryOps[op] {
		return fmt.Errorf("%w: %v is not an element-wise binary op", ErrBadArgument, op)
	}
	ao, do, err := d.pairTyped(a, dst, compareOps[op])
	if err != nil {
		return err
	}
	s := ao.dt.Truncate(scalar)
	ev := d.begin(ClassExec)
	if d.pipe.wantRecord() {
		ev.Record = cmdstream.Record{
			Kind: cmdstream.KindExec, Form: cmdstream.FormScalar,
			Op: op.String(), Type: ao.dt.String(), N: do.n,
			A: int64(a), Dst: int64(dst), Scalar: scalar,
		}
	}
	k := kernels.On(ao.dt).Scalar(op, do.dt)
	return d.elementwise(ev, isa.Command{Op: op, Type: ao.dt, N: do.n, Scalar: s, Inputs: 1, WritesResult: true}, do,
		func(lo, hi int64) { k(do.data, ao.data, s, lo, hi) }, ao)
}

// ExecUnary dispatches dst = op a (not, abs, popcount, sbox).
func (d *Device) ExecUnary(op isa.Op, a, dst ObjID) (err error) {
	if d.guarded() {
		defer guard(&err)
	}
	if err := d.start(); err != nil {
		return err
	}
	if !unaryOps[op] {
		return fmt.Errorf("%w: %v is not a unary op", ErrBadArgument, op)
	}
	ao, do, err := d.pair(a, dst)
	if err != nil {
		return err
	}
	if (op == isa.OpSbox || op == isa.OpSboxInv) && do.dt.Bits() != 8 {
		return fmt.Errorf("%w: %v requires an 8-bit element type, got %v", ErrBadArgument, op, do.dt)
	}
	ev := d.begin(ClassExec)
	if d.pipe.wantRecord() {
		ev.Record = cmdstream.Record{
			Kind: cmdstream.KindExec, Form: cmdstream.FormUnary,
			Op: op.String(), Type: do.dt.String(), N: do.n,
			A: int64(a), Dst: int64(dst),
		}
	}
	k := kernels.On(do.dt).Unary(op)
	return d.elementwise(ev, isa.Command{Op: op, Type: do.dt, N: do.n, Inputs: 1, WritesResult: true}, do,
		func(lo, hi int64) { k(do.data, ao.data, lo, hi) }, ao)
}

// ExecShift dispatches dst = a << amount or a >> amount. Right shifts are
// arithmetic for signed types and logical for unsigned types.
func (d *Device) ExecShift(op isa.Op, a ObjID, amount int, dst ObjID) (err error) {
	if d.guarded() {
		defer guard(&err)
	}
	if err := d.start(); err != nil {
		return err
	}
	if op != isa.OpShiftL && op != isa.OpShiftR {
		return fmt.Errorf("%w: %v is not a shift", ErrBadArgument, op)
	}
	if amount < 0 {
		return fmt.Errorf("%w: shift amount %d", ErrBadArgument, amount)
	}
	ao, do, err := d.pair(a, dst)
	if err != nil {
		return err
	}
	ev := d.begin(ClassExec)
	if d.pipe.wantRecord() {
		ev.Record = cmdstream.Record{
			Kind: cmdstream.KindExec, Form: cmdstream.FormShift,
			Op: op.String(), Type: do.dt.String(), N: do.n,
			A: int64(a), Dst: int64(dst), Amount: amount,
		}
	}
	k := kernels.On(do.dt).Shift(op)
	return d.elementwise(ev, isa.Command{Op: op, Type: do.dt, N: do.n, Scalar: int64(amount), Inputs: 1, WritesResult: true}, do,
		func(lo, hi int64) { k(do.data, ao.data, amount, lo, hi) }, ao)
}

// ExecSelect dispatches dst[i] = cond[i] != 0 ? a[i] : b[i].
func (d *Device) ExecSelect(cond, a, b, dst ObjID) (err error) {
	if d.guarded() {
		defer guard(&err)
	}
	if err := d.start(); err != nil {
		return err
	}
	co, err := d.obj(cond)
	if err != nil {
		return err
	}
	ao, bo, do, err := d.triple(a, b, dst, false)
	if err != nil {
		return err
	}
	if co.n != do.n {
		return fmt.Errorf("%w: cond length %d vs %d", ErrShapeMismatch, co.n, do.n)
	}
	ev := d.begin(ClassExec)
	if d.pipe.wantRecord() {
		ev.Record = cmdstream.Record{
			Kind: cmdstream.KindExec, Form: cmdstream.FormSelect,
			Op: isa.OpSelect.String(), Type: do.dt.String(), N: do.n,
			Cond: int64(cond), A: int64(a), B: int64(b), Dst: int64(dst),
		}
	}
	k := kernels.On(do.dt).Select(co.dt)
	return d.elementwise(ev, isa.Command{Op: isa.OpSelect, Type: do.dt, N: do.n, Inputs: 3, WritesResult: true}, do,
		func(lo, hi int64) { k(do.data, co.data, ao.data, bo.data, lo, hi) }, co, ao, bo)
}

// Broadcast fills dst with a scalar value.
func (d *Device) Broadcast(dst ObjID, val int64) (err error) {
	if d.guarded() {
		defer guard(&err)
	}
	if err := d.start(); err != nil {
		return err
	}
	do, err := d.obj(dst)
	if err != nil {
		return err
	}
	v := do.dt.Truncate(val)
	ev := d.begin(ClassExec)
	if d.pipe.wantRecord() {
		ev.Record = cmdstream.Record{
			Kind: cmdstream.KindExec, Form: cmdstream.FormBroadcast,
			Op: isa.OpBroadcast.String(), Type: do.dt.String(), N: do.n,
			Dst: int64(dst), Scalar: val,
		}
	}
	k := kernels.On(do.dt)
	return d.elementwise(ev, isa.Command{Op: isa.OpBroadcast, Type: do.dt, N: do.n, Scalar: v, Inputs: 0, WritesResult: true}, do,
		func(lo, hi int64) { k.Fill(do.data, v, lo, hi) })
}

// elementwise is the shared tail of every element-wise command. On a
// functional device it zeroes stale sources (srcs; nil entries are skipped),
// then runs body, the command's resolved kernel, over every span of do. The
// kernel writes every element of do and reads none, so do's own stale
// bytes need no clearing unless do is also a source; a canceled loop
// returns before anything is charged, and leaves do stale. Then the fault
// stage covers the written range and the cost stage charges and fans out
// the command. The cost is charged even when injection reports an error:
// the command executed, and the error only says its result was corrupted.
func (d *Device) elementwise(ev *Event, cmd isa.Command, do *Object, body func(lo, hi int64), srcs ...*Object) error {
	if d.cfg.Functional {
		for _, s := range srcs {
			if s != nil {
				s.zero()
			}
		}
		if err := d.forSpans(do, body); err != nil {
			return err
		}
		do.stale = false
	}
	ferr := d.injectWrite(do, 0, do.n)
	d.finishExec(ev, cmd, do)
	return ferr
}

// RedSum reduces the object to one int64 sum (no truncation: the paper's
// reduction accumulates into a wide register).
func (d *Device) RedSum(a ObjID) (_ int64, err error) {
	if d.guarded() {
		defer guard(&err)
	}
	if err := d.start(); err != nil {
		return 0, err
	}
	ao, err := d.obj(a)
	if err != nil {
		return 0, err
	}
	var sum int64
	if d.cfg.Functional {
		// Per-shard partial sums merged in ascending core order. Wrapping
		// int64 addition is associative, so the result is bit-identical to
		// the serial accumulation for any shard decomposition. Each element
		// widens to its host value as it is summed (see kernels.On):
		// sign-extension for signed types, and a uint64's raw bits wrap
		// identically to uint64 addition modulo 2^64.
		ao.zero()
		k := kernels.On(ao.dt)
		parts, err := spansCollect(d, ao, func(lo, hi int64) int64 {
			return k.Sum(ao.data, lo, hi)
		})
		if err != nil {
			return 0, err
		}
		for _, p := range parts {
			sum += p
		}
	}
	ev := d.begin(ClassExec)
	if d.pipe.wantRecord() {
		ev.Record = cmdstream.Record{
			Kind: cmdstream.KindExec, Form: cmdstream.FormRedSum,
			Op: isa.OpRedSum.String(), Type: ao.dt.String(), N: ao.n,
			A: int64(a), Result: sum,
		}
	}
	d.finishExec(ev, isa.Command{Op: isa.OpRedSum, Type: ao.dt, N: ao.n, Inputs: 1}, ao)
	return sum, nil
}

// RedSumSeg reduces each consecutive segment of segLen elements to one sum,
// returning n/segLen partial sums (the batched-GEMV building block).
func (d *Device) RedSumSeg(a ObjID, segLen int64) (_ []int64, err error) {
	if d.guarded() {
		defer guard(&err)
	}
	if err := d.start(); err != nil {
		return nil, err
	}
	ao, err := d.obj(a)
	if err != nil {
		return nil, err
	}
	if segLen <= 0 || ao.n%segLen != 0 {
		return nil, fmt.Errorf("%w: segment length %d for object of %d", ErrBadArgument, segLen, ao.n)
	}
	var sums []int64
	if d.cfg.Functional {
		sums = make([]int64, ao.n/segLen)
		// Shard boundaries need not align to segments: each shard keeps
		// partials only for the segments it overlaps, and the partials are
		// folded in serially in ascending core order after the pool drains.
		type part struct {
			seg0 int64
			vals []int64
		}
		ao.zero()
		k := kernels.On(ao.dt)
		parts, err := spansCollect(d, ao, func(lo, hi int64) part {
			seg0 := lo / segLen
			p := part{seg0: seg0, vals: make([]int64, (hi-1)/segLen-seg0+1)}
			k.SumSeg(ao.data, lo, hi, segLen, seg0, p.vals)
			return p
		})
		if err != nil {
			return nil, err
		}
		for _, p := range parts {
			for k, v := range p.vals {
				sums[p.seg0+int64(k)] += v
			}
		}
	}
	ev := d.begin(ClassExec)
	if d.pipe.wantRecord() {
		ev.Record = cmdstream.Record{
			Kind: cmdstream.KindExec, Form: cmdstream.FormRedSumSeg,
			Op: isa.OpRedSumSeg.String(), Type: ao.dt.String(), N: ao.n,
			A: int64(a), SegLen: segLen,
			// Detach the results from the slice handed to the caller.
			Results: append([]int64(nil), sums...),
		}
	}
	d.finishExec(ev, isa.Command{Op: isa.OpRedSumSeg, Type: ao.dt, N: ao.n, SegLen: segLen, Inputs: 1}, ao)
	return sums, nil
}

// pair resolves a unary op's operands and checks shapes.
func (d *Device) pair(a, dst ObjID) (*Object, *Object, error) {
	return d.pairTyped(a, dst, false)
}

// pairTyped resolves operands; with dstTypeFree the destination may have a
// different element type (mask-producing compares).
func (d *Device) pairTyped(a, dst ObjID, dstTypeFree bool) (*Object, *Object, error) {
	ao, err := d.obj(a)
	if err != nil {
		return nil, nil, err
	}
	do, err := d.obj(dst)
	if err != nil {
		return nil, nil, err
	}
	if ao.n != do.n || (!dstTypeFree && ao.dt != do.dt) {
		return nil, nil, fmt.Errorf("%w: (%d,%v) vs (%d,%v)", ErrShapeMismatch, ao.n, ao.dt, do.n, do.dt)
	}
	return ao, do, nil
}

// triple resolves a binary op's operands and checks shapes.
func (d *Device) triple(a, b, dst ObjID, dstTypeFree bool) (*Object, *Object, *Object, error) {
	ao, err := d.obj(a)
	if err != nil {
		return nil, nil, nil, err
	}
	bo, err := d.obj(b)
	if err != nil {
		return nil, nil, nil, err
	}
	do, err := d.obj(dst)
	if err != nil {
		return nil, nil, nil, err
	}
	if ao.n != bo.n || ao.dt != bo.dt {
		return nil, nil, nil, fmt.Errorf("%w: inputs (%d,%v) vs (%d,%v)",
			ErrShapeMismatch, ao.n, ao.dt, bo.n, bo.dt)
	}
	if ao.n != do.n || (!dstTypeFree && ao.dt != do.dt) {
		return nil, nil, nil, fmt.Errorf("%w: dst (%d,%v) for inputs (%d,%v)",
			ErrShapeMismatch, do.n, do.dt, ao.n, ao.dt)
	}
	return ao, bo, do, nil
}

package cmdstream

import (
	"fmt"
	"io"

	"pimeval/internal/isa"
	"pimeval/internal/perf"
)

// Executor is the device surface a stream replays against. *device.Device
// satisfies it directly (a wrapper embeds one); the interface lives here so
// the IR layer has no dependency on the simulator core.
type Executor interface {
	Alloc(n int64, dt isa.DataType) (ObjID, error)
	// AllocAs allocates an object under an explicit, caller-chosen ID.
	// Optimized streams replay allocations through it: dead-alloc
	// elimination leaves gaps in the recorded ID sequence, so the surviving
	// allocations must land on their recorded IDs rather than the device's
	// next sequential one.
	AllocAs(id ObjID, n int64, dt isa.DataType) error
	Free(id ObjID) error
	CopyHostToDevice(id ObjID, values []int64) error
	// CopyHostToDevicePacked lands a payload of packed frames in object
	// storage: each call of frames passes one frame to a FrameFunc, and
	// io.EOF ends the payload (FrameReader.ReadPayloadFrame's shape).
	CopyHostToDevicePacked(id ObjID, frames func(FrameFunc) error) error
	// CopyHostToDeviceFrom lands a payload of []int64 chunks: next returns
	// successive chunks and io.EOF at end, and each chunk is copied out
	// before the next is requested (ChunkedSource.NextPayloadChunk's
	// shape).
	CopyHostToDeviceFrom(id ObjID, next func() ([]int64, error)) error
	CopyDeviceToHost(id ObjID) ([]int64, error)
	CopyDeviceToDevice(src, dst ObjID) error
	CopyDeviceToDeviceRange(src ObjID, srcOff int64, dst ObjID, dstOff, n int64) error
	ExecBinary(op isa.Op, a, b, dst ObjID) error
	ExecScalar(op isa.Op, a ObjID, scalar int64, dst ObjID) error
	ExecUnary(op isa.Op, a, dst ObjID) error
	ExecShift(op isa.Op, a ObjID, amount int, dst ObjID) error
	ExecSelect(cond, a, b, dst ObjID) error
	ExecFused(f Fused) error
	Broadcast(dst ObjID, val int64) error
	RedSum(a ObjID) (int64, error)
	RedSumSeg(a ObjID, segLen int64) ([]int64, error)
	RecordHost(cost perf.Cost)
	WithRepeat(n int64, fn func() error) error
}

// Fused is the operand bundle for a two-stage fused element-wise command
// (FormFused records). Stage 1 applies Op1 to A (Form1 binary reads B as the
// second operand; Form1 scalar uses the immediate S1); stage 2 applies Op2
// to the intermediate (Form2 unary), with the immediate S2 (Form2 scalar),
// or with B as the second operand (Form2 binary, legal only when Form1 is
// scalar so the command still reads at most two memory operands). Only the
// final result is written to Dst.
type Fused struct {
	Form1, Form2 Form
	Op1, Op2     isa.Op
	A, B, Dst    ObjID
	S1, S2       int64
}

// FusableUnary reports whether op may be the unary second stage of a Fused
// command: the cheap post-processing ops. The AES S-box ops are excluded:
// they are defined at 8-bit widths only, have no composed bit-serial
// program, and their gate network dwarfs any stage-1 op, so fusing them buys
// nothing. The optimizer emits and the device accepts exactly this set.
func FusableUnary(op isa.Op) bool {
	return op == isa.OpNot || op == isa.OpAbs || op == isa.OpPopCount
}

// FusedFromRecord unpacks a FormFused exec record.
func FusedFromRecord(rec *Record) (Fused, error) {
	op1, ok := isa.OpByName(rec.Op)
	if !ok {
		return Fused{}, fmt.Errorf("unknown op %q", rec.Op)
	}
	op2, ok := isa.OpByName(rec.Op2)
	if !ok {
		return Fused{}, fmt.Errorf("unknown op %q", rec.Op2)
	}
	return Fused{
		Form1: rec.Form1, Form2: rec.Form2,
		Op1: op1, Op2: op2,
		A: ObjID(rec.A), B: ObjID(rec.B), Dst: ObjID(rec.Dst),
		S1: rec.Scalar, S2: rec.Scalar2,
	}, nil
}

// ReplayOptions configures ReplaySourceOpts. The zero value replays the
// whole source serially with no checkpoints.
type ReplayOptions struct {
	// Pipelined runs the source on its own goroutine behind a bounded queue
	// (NewPipelineSource), overlapping I/O + decode with execution. Record
	// order — and therefore the executor's write sequence, fault injection,
	// statistics, latency, and energy — is exactly that of the serial path;
	// only wall-clock time changes. The pipeline stage is closed before
	// ReplaySourceOpts returns; src itself stays open.
	Pipelined bool
	// Skip is the resume cursor: the number of leading records (counting
	// every record, including repeat.begin/repeat.end) to consume without
	// executing before replay starts. It is the cursor a checkpoint reported,
	// and it counts decoded records, so cursors are interchangeable between
	// the serial and pipelined paths. A cursor that points past the end of
	// the stream or into the middle of a repeat scope is rejected.
	Skip int64
	// CheckpointEvery is the minimum number of records between checkpoint
	// callbacks. Checkpoints fire only at unit boundaries — never inside a
	// repeat scope — so the executor's state is always self-contained when
	// the callback runs. Zero disables checkpointing.
	CheckpointEvery int64
	// Checkpoint is called with the total record count consumed so far
	// (Skip included): the cursor a later resume passes as Skip. An error
	// aborts the replay.
	Checkpoint func(consumed int64) error
}

// Replay re-executes every record of a materialized stream against x. The
// whole stream is validated first, so malformed scope nesting is rejected
// before any record executes; the records then run through
// ReplaySourceOpts.
func Replay(x Executor, s *Stream) error {
	if err := s.Validate(); err != nil {
		return err
	}
	return ReplaySourceOpts(x, FromStream(s), ReplayOptions{})
}

// ReplaySourceOpts is the stream replayer: it re-executes records against x
// as src produces them, skipping the first opts.Skip and invoking
// opts.Checkpoint at unit boundaries every opts.CheckpointEvery records.
// Only the current record (or the current repeat-scope body) is resident,
// and every h2d payload lands through copyIn: a streamed one in bounded
// frames, packed frames into object storage from a FrameReader (read
// straight from the input by the binary decoder) or []int64 chunks from a
// source with only the ChunkedSource face; a materialized one, such as a
// scope body's or an optimizer window's, as its packed frames.
// Structure is checked incrementally (ScopeCheck), so a malformed suffix is
// only detected after the preceding records have executed. Repeat-scope
// bodies replay through x.WithRepeat, so the executor applies the same
// charging semantics the live run did. When the stream was recorded
// functionally, reduction results are verified against the recorded values
// — a replay that diverges from the live run fails loudly instead of
// producing silently different numbers.
//
// Because every layer of the stack is deterministic, a replay resumed from
// a restored executor at cursor N is bit-identical to an uninterrupted
// replay — the property the recovery battery in
// benchmarks/suite/replaytest proves.
func ReplaySourceOpts(x Executor, src Source, opts ReplayOptions) error {
	if opts.Skip < 0 {
		return fmt.Errorf("cmdstream: negative resume cursor %d", opts.Skip)
	}
	if opts.CheckpointEvery < 0 {
		return fmt.Errorf("cmdstream: negative checkpoint interval %d", opts.CheckpointEvery)
	}
	if opts.Pipelined {
		ps := NewPipelineSource(src, 0)
		defer ps.Close()
		src = ps
	}
	h := src.Header()
	verify := h.Functional
	optimized := len(h.Optimized) > 0

	var sc ScopeCheck
	var consumed int64 // records pulled from src, skipped ones included
	lastCheckpoint := opts.Skip
	var scope []Record // buffered body of the open repeat scope
	var factor int64
	for {
		rec, err := src.Next()
		if err == io.EOF {
			if consumed < opts.Skip {
				return fmt.Errorf("cmdstream: %w: stream ends at record %d, resume cursor %d",
					ErrTruncated, consumed, opts.Skip)
			}
			return sc.End()
		}
		if err != nil {
			return err
		}
		consumed++
		if err := sc.Check(rec); err != nil {
			return err
		}
		if consumed <= opts.Skip {
			// The resume prefix is consumed without executing; undrained
			// chunked payloads are discarded by the source's own Next
			// contract.
			if consumed == opts.Skip && sc.InScope() {
				return fmt.Errorf("cmdstream: %w: resume cursor %d inside repeat scope", ErrFormat, opts.Skip)
			}
			continue
		}
		switch {
		case rec.Kind == KindRepeatBegin:
			factor, scope = rec.Repeat, scope[:0]
			continue
		case rec.Kind == KindRepeatEnd:
			if err := x.WithRepeat(factor, func() error {
				for i := range scope {
					if err := replayOne(x, nil, &scope[i], verify, optimized); err != nil {
						return fmt.Errorf("cmdstream: seq %d (%s): %w", scope[i].Seq, scope[i].Kind, err)
					}
				}
				return nil
			}); err != nil {
				return err
			}
		case sc.InScope():
			// Scope bodies replay through WithRepeat as one unit, so the
			// body is buffered (scopes are bounded; payloads inside them
			// materialize at element width).
			if err := Materialize(src, rec); err != nil {
				return err
			}
			scope = append(scope, *rec)
			continue
		default:
			if err := replayOne(x, src, rec, verify, optimized); err != nil {
				return fmt.Errorf("cmdstream: seq %d (%s): %w", rec.Seq, rec.Kind, err)
			}
		}
		// A unit (single record or whole repeat scope) just completed
		// outside any scope: a valid resume point.
		if opts.Checkpoint != nil && opts.CheckpointEvery > 0 &&
			consumed-lastCheckpoint >= opts.CheckpointEvery {
			if err := opts.Checkpoint(consumed); err != nil {
				return fmt.Errorf("cmdstream: checkpoint at record %d: %w", consumed, err)
			}
			lastCheckpoint = consumed
		}
	}
}

// replayOne executes a single non-structural record; src is the source
// whose pending payload an h2d record may still be streaming (nil for a
// buffered scope body).
func replayOne(x Executor, src Source, rec *Record, verify, optimized bool) error {
	switch rec.Kind {
	case KindAlloc:
		dt, ok := isa.TypeByName(rec.Type)
		if !ok {
			return fmt.Errorf("unknown data type %q", rec.Type)
		}
		if optimized {
			// Optimized streams may skip dead allocations, leaving gaps in
			// the recorded ID sequence; allocate under the recorded ID.
			return x.AllocAs(ObjID(rec.Obj), rec.N, dt)
		}
		id, err := x.Alloc(rec.N, dt)
		if err != nil {
			return err
		}
		if int64(id) != rec.Obj {
			return fmt.Errorf("allocation returned id %d, stream recorded %d (device state diverged)", id, rec.Obj)
		}
		return nil
	case KindFree:
		return x.Free(ObjID(rec.Obj))
	case KindCopyH2D:
		return copyIn(x, src, rec)
	case KindCopyD2H:
		_, err := x.CopyDeviceToHost(ObjID(rec.Obj))
		return err
	case KindCopyD2D:
		return x.CopyDeviceToDevice(ObjID(rec.Src), ObjID(rec.Dst))
	case KindCopyD2DRange:
		return x.CopyDeviceToDeviceRange(ObjID(rec.Src), rec.SrcOff, ObjID(rec.Dst), rec.DstOff, rec.N)
	case KindHost:
		x.RecordHost(perf.Cost{TimeNS: rec.TimeNS, EnergyPJ: rec.EnergyPJ})
		return nil
	case KindExec:
		return replayExec(x, rec, verify)
	default:
		return fmt.Errorf("unknown record kind %q", rec.Kind)
	}
}

// copyIn is the replay walker's one h2d landing, for a payload in any
// form: still streaming from src as packed frames (FrameReader) or []int64
// chunks (ChunkedSource), materialized at element width (Packed), or as
// int64 carriers (Data).
func copyIn(x Executor, src Source, rec *Record) error {
	id := ObjID(rec.Obj)
	if fr, ok := src.(FrameReader); ok && fr.PendingPayload() {
		return x.CopyHostToDevicePacked(id, fr.ReadPayloadFrame)
	}
	if cs, ok := src.(ChunkedSource); ok && cs.PendingPayload() {
		return x.CopyHostToDeviceFrom(id, cs.NextPayloadChunk)
	}
	if rec.Packed != nil {
		return x.CopyHostToDevicePacked(id, rec.Packed.frames())
	}
	return x.CopyHostToDevice(id, rec.Data)
}

// replayExec dispatches an exec record through the form-specific entry point.
func replayExec(x Executor, rec *Record, verify bool) error {
	op, ok := isa.OpByName(rec.Op)
	if !ok {
		return fmt.Errorf("unknown op %q", rec.Op)
	}
	switch rec.Form {
	case FormBinary:
		return x.ExecBinary(op, ObjID(rec.A), ObjID(rec.B), ObjID(rec.Dst))
	case FormScalar:
		return x.ExecScalar(op, ObjID(rec.A), rec.Scalar, ObjID(rec.Dst))
	case FormUnary:
		return x.ExecUnary(op, ObjID(rec.A), ObjID(rec.Dst))
	case FormShift:
		return x.ExecShift(op, ObjID(rec.A), rec.Amount, ObjID(rec.Dst))
	case FormSelect:
		return x.ExecSelect(ObjID(rec.Cond), ObjID(rec.A), ObjID(rec.B), ObjID(rec.Dst))
	case FormFused:
		f, err := FusedFromRecord(rec)
		if err != nil {
			return err
		}
		return x.ExecFused(f)
	case FormBroadcast:
		return x.Broadcast(ObjID(rec.Dst), rec.Scalar)
	case FormRedSum:
		sum, err := x.RedSum(ObjID(rec.A))
		if err != nil {
			return err
		}
		if verify && sum != rec.Result {
			return fmt.Errorf("redsum replayed to %d, stream recorded %d", sum, rec.Result)
		}
		return nil
	case FormRedSumSeg:
		sums, err := x.RedSumSeg(ObjID(rec.A), rec.SegLen)
		if err != nil {
			return err
		}
		if verify {
			if len(sums) != len(rec.Results) {
				return fmt.Errorf("redsum.seg replayed %d segments, stream recorded %d", len(sums), len(rec.Results))
			}
			for i, s := range sums {
				if s != rec.Results[i] {
					return fmt.Errorf("redsum.seg segment %d replayed to %d, stream recorded %d", i, s, rec.Results[i])
				}
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown exec form %q", rec.Form)
	}
}

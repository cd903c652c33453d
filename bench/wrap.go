package bench

import (
	"io"

	"pimeval/internal/cmdstream"
	"pimeval/internal/device"
	"pimeval/internal/isa"
	"pimeval/internal/perf"
)

// The traced run's timing wrappers. They sit at the boundaries the program
// already exposes — a cmdstream.Source and a cmdstream.Executor — so the
// program itself carries no instrumentation.

// timedSource times every record and payload chunk pulled from src under
// one span name. The first skip records are timed as cmdstream.skip (the
// resume prefix a restored replay consumes without executing).
type timedSource struct {
	src     cmdstream.Source
	lane    *Lane
	name    string
	skip    int64
	records int64
	// widths maps allocated object IDs to element bytes, so payload bytes
	// count at the element's true width, as the binary format carries them.
	widths  map[int64]int64
	pending int64 // element bytes of the record whose payload is streaming
	payload int64 // h2d payload bytes delivered
}

func newTimedSource(src cmdstream.Source, lane *Lane, name string, skip int64) *timedSource {
	return &timedSource{src: src, lane: lane, name: name, skip: skip, widths: map[int64]int64{}}
}

func (s *timedSource) Header() cmdstream.Header { return s.src.Header() }

func (s *timedSource) Close() error { return s.src.Close() }

func (s *timedSource) Next() (*cmdstream.Record, error) {
	name := s.name
	if s.records < s.skip {
		name = "cmdstream.skip"
	}
	s.lane.Begin(name)
	rec, err := s.src.Next()
	s.lane.End()
	if err != nil {
		return rec, err
	}
	s.records++
	switch rec.Kind {
	case cmdstream.KindAlloc:
		if dt, ok := isa.TypeByName(rec.Type); ok {
			s.widths[rec.Obj] = int64(dt.Bits() / 8)
		}
	case cmdstream.KindCopyH2D:
		s.pending = s.widths[rec.Obj]
		s.payload += int64(len(rec.Data)) * s.pending
	}
	return rec, nil
}

// PendingPayload and NextPayloadChunk forward the ChunkedSource face, so
// payloads keep streaming in bounded chunks through the wrapper.
func (s *timedSource) PendingPayload() bool {
	cs, ok := s.src.(cmdstream.ChunkedSource)
	return ok && cs.PendingPayload()
}

func (s *timedSource) NextPayloadChunk() ([]int64, error) {
	cs, ok := s.src.(cmdstream.ChunkedSource)
	if !ok {
		return nil, io.EOF
	}
	s.lane.Begin(s.name)
	chunk, err := cs.NextPayloadChunk()
	s.lane.End()
	s.payload += int64(len(chunk)) * s.pending
	return chunk, err
}

// timedExec is a *device.Device driven as a cmdstream.Executor and
// ChunkedExecutor, with every command timed under device.<kind>.
type timedExec struct {
	*device.Device
	lane *Lane
}

// The command kinds device spans are named after.
var deviceKinds = []string{"alloc", "free", "h2d", "d2h", "d2d", "binary", "scalar",
	"unary", "shift", "select", "broadcast", "redsum", "redsum_seg", "host"}

func (x timedExec) span(kind string) func() {
	x.lane.Begin("device." + kind)
	return x.lane.End
}

func (x timedExec) Alloc(n int64, dt isa.DataType) (cmdstream.ObjID, error) {
	defer x.span("alloc")()
	return x.Device.Alloc(n, dt)
}

func (x timedExec) AllocAs(id cmdstream.ObjID, n int64, dt isa.DataType) error {
	defer x.span("alloc")()
	return x.Device.AllocAs(id, n, dt)
}

func (x timedExec) Free(id cmdstream.ObjID) error {
	defer x.span("free")()
	return x.Device.Free(id)
}

func (x timedExec) CopyHostToDevice(id cmdstream.ObjID, values []int64) error {
	defer x.span("h2d")()
	return x.Device.CopyHostToDevice(id, values)
}

func (x timedExec) CopyHostToDeviceFrom(id cmdstream.ObjID, next func() ([]int64, error)) error {
	defer x.span("h2d")()
	return x.Device.CopyHostToDeviceFrom(id, next)
}

func (x timedExec) CopyDeviceToHost(id cmdstream.ObjID) ([]int64, error) {
	defer x.span("d2h")()
	return x.Device.CopyDeviceToHost(id)
}

func (x timedExec) CopyDeviceToDevice(src, dst cmdstream.ObjID) error {
	defer x.span("d2d")()
	return x.Device.CopyDeviceToDevice(src, dst)
}

func (x timedExec) CopyDeviceToDeviceRange(src cmdstream.ObjID, srcOff int64, dst cmdstream.ObjID, dstOff, n int64) error {
	defer x.span("d2d")()
	return x.Device.CopyDeviceToDeviceRange(src, srcOff, dst, dstOff, n)
}

func (x timedExec) ExecBinary(op isa.Op, a, b, dst cmdstream.ObjID) error {
	defer x.span("binary")()
	return x.Device.ExecBinary(op, a, b, dst)
}

func (x timedExec) ExecScalar(op isa.Op, a cmdstream.ObjID, scalar int64, dst cmdstream.ObjID) error {
	defer x.span("scalar")()
	return x.Device.ExecScalar(op, a, scalar, dst)
}

func (x timedExec) ExecUnary(op isa.Op, a, dst cmdstream.ObjID) error {
	defer x.span("unary")()
	return x.Device.ExecUnary(op, a, dst)
}

func (x timedExec) ExecShift(op isa.Op, a cmdstream.ObjID, amount int, dst cmdstream.ObjID) error {
	defer x.span("shift")()
	return x.Device.ExecShift(op, a, amount, dst)
}

func (x timedExec) ExecSelect(cond, a, b, dst cmdstream.ObjID) error {
	defer x.span("select")()
	return x.Device.ExecSelect(cond, a, b, dst)
}

// ExecFused counts as binary: fused records only appear after the fusion
// pass, which no workload enables.
func (x timedExec) ExecFused(f cmdstream.Fused) error {
	defer x.span("binary")()
	return x.Device.ExecFused(f)
}

func (x timedExec) Broadcast(dst cmdstream.ObjID, val int64) error {
	defer x.span("broadcast")()
	return x.Device.Broadcast(dst, val)
}

func (x timedExec) RedSum(a cmdstream.ObjID) (int64, error) {
	defer x.span("redsum")()
	return x.Device.RedSum(a)
}

func (x timedExec) RedSumSeg(a cmdstream.ObjID, segLen int64) ([]int64, error) {
	defer x.span("redsum_seg")()
	return x.Device.RedSumSeg(a, segLen)
}

func (x timedExec) RecordHost(cost perf.Cost) {
	defer x.span("host")()
	x.Device.RecordHost(cost)
}

// replayTimed replays src onto d through the timing wrappers: the path
// pim.ReplaySource and pim.ResumeReplaySource take, with each layer timed.
func replayTimed(d *device.Device, src cmdstream.Source, lane *Lane, opts cmdstream.ReplayOptions) error {
	lane.Begin("cmdstream.replay")
	defer lane.End()
	return cmdstream.ReplaySourceOpts(timedExec{Device: d, lane: lane}, src, opts)
}

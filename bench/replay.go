package bench

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"time"

	"pimeval/internal/cmdstream"
	"pimeval/internal/device"
	"pimeval/internal/isa"
	"pimeval/internal/streamopt"
	"pimeval/pim"
)

// The four replay workloads share one machine-made trace, recorded at
// setup, and differ in the replay entry point they drive. Each is its own
// workload so that every entry point keeps its own regression bound; an
// operation is one pass over the whole trace (for replay-recover, one
// checkpointed replay plus one resume from its 50% snapshot). The
// trace and the snapshots stay in memory: the decoder still streams
// payloads in bounded chunks, and no run's timing depends on the disk.
var (
	replaySerial = &Workload{
		Name:  "replay-serial",
		Why:   "out-of-core serial replay of a recorded trace: stream decode and payload movement dominate",
		setup: replaySetup(serialReplay),
	}
	replayPipelined = &Workload{
		Name:  "replay-pipelined",
		Why:   "the same trace through the decode-ahead pipeline: decode overlaps execution on a second core",
		setup: replaySetup(pipelinedReplay),
	}
	replayOptimized = &Workload{
		Name:  "replay-optimized",
		Why:   "the same trace through the windowed dead-code and hoisting optimizer: the only workload where streamopt works",
		setup: replaySetup(optimizedReplay),
	}
	replayRecover = &Workload{
		Name:  "replay-recover",
		Why:   "checkpointed replay writing device snapshots, then a resume from the 50% snapshot: the only workload that snapshots",
		setup: replaySetup(recoverReplay),
	}
)

// traceShape sizes the generated trace. Each phase uploads two operands of
// elems elements, adds them, multiplies by a scalar, writes one dead store,
// runs a loop-invariant xor in a WithRepeat(4) scope, and checks two
// reductions.
type traceShape struct {
	phases int
	elems  int64
}

// The full trace is 48 phases of 256 Ki-element uploads, cycling uint8,
// int16 and int32 operands: about 59 MB of binary stream, so a 10 s run
// holds about twenty replays of each mode.
var (
	fullTrace  = traceShape{phases: 48, elems: 256 << 10}
	smallTrace = traceShape{phases: 3, elems: 4 << 10}
)

// recording is a generated trace and what its live run observed.
type recording struct {
	trace   []byte // the binary stream
	records int64
	phases  int
	report  string
	metrics pim.Metrics
}

// generateTrace records a seed-driven trace through the public API's
// RecordStreamTo, verifying every reduction on the host as it goes.
func generateTrace(seed int64, shape traceShape) (*recording, error) {
	var buf bytes.Buffer
	dev, err := pim.NewDevice(pim.Config{Target: pim.Fulcrum, Functional: true, Workers: 1})
	if err != nil {
		return nil, err
	}
	if err := dev.RecordStreamTo(&buf, pim.StreamBinary); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	// Equal counts of each type in a seeded order, so every seed makes the
	// same amount of work.
	types := make([]isa.DataType, shape.phases)
	for i := range types {
		types[i] = []isa.DataType{isa.UInt8, isa.Int16, isa.Int32}[i%3]
	}
	rng.Shuffle(len(types), func(i, j int) { types[i], types[j] = types[j], types[i] })
	a := make([]int64, shape.elems)
	b := make([]int64, shape.elems)
	for _, dt := range types {
		for i := range a {
			a[i], b[i] = dt.Truncate(rng.Int63()), dt.Truncate(rng.Int63())
		}
		if err := tracePhase(dev, dt, a, b, rng.Int63(), rng.Int63()); err != nil {
			return nil, err
		}
	}
	if err := dev.FinishRecording(); err != nil {
		return nil, err
	}
	rec := &recording{trace: bytes.Clone(buf.Bytes()), phases: shape.phases, report: dev.Report(), metrics: dev.Metrics()}
	s, err := openTrace(rec)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	for {
		if _, err := s.Next(); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		rec.records++
	}
	return rec, nil
}

// tracePhase issues one phase of the trace and checks both reductions
// against host arithmetic.
func tracePhase(dev *pim.Device, dt isa.DataType, av, bv []int64, k1, k2 int64) error {
	n := int64(len(av))
	a, err := dev.Alloc(n, dt)
	if err != nil {
		return err
	}
	var objs [3]pim.ObjID
	for i := range objs {
		if objs[i], err = dev.AllocAssociated(a); err != nil {
			return err
		}
	}
	b, c, x := objs[0], objs[1], objs[2]
	if err := pim.CopyToDevice(dev, a, av); err != nil {
		return err
	}
	if err := pim.CopyToDevice(dev, b, bv); err != nil {
		return err
	}
	k1, k2 = dt.Truncate(k1), dt.Truncate(k2)
	steps := []func() error{
		func() error { return dev.Broadcast(c, k1) }, // dead: Add overwrites c unread
		func() error { return dev.Add(a, b, c) },
		func() error { return dev.MulScalar(c, k1, c) },
		func() error {
			return dev.WithRepeat(4, func() error { return dev.XorScalar(a, k2, x) })
		},
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	var wantC, wantX int64
	for i := range av {
		wantC += dt.Truncate(dt.Truncate(av[i]+bv[i]) * k1)
		wantX += dt.Truncate(av[i] ^ k2)
	}
	for _, chk := range []struct {
		obj  pim.ObjID
		want int64
	}{{c, wantC}, {x, wantX}} {
		got, err := dev.RedSum(chk.obj)
		if err != nil {
			return err
		}
		if got != chk.want {
			return gateErr("trace reduction over %v = %d, host computes %d", dt, got, chk.want)
		}
	}
	for _, id := range []pim.ObjID{a, b, c, x} {
		if err := dev.Free(id); err != nil {
			return err
		}
	}
	return nil
}

// openTrace opens a streaming decoder over the trace.
func openTrace(rec *recording) (cmdstream.Source, error) {
	return cmdstream.OpenSource(bytes.NewReader(rec.trace))
}

// replayMode is one replay entry point: one operation of a replay workload,
// untraced through the public API or traced through the wrappers.
type replayMode func(r *replayRunner, m *meter) error

// replaySetup records the trace and runs one warm-up operation.
func replaySetup(mode replayMode) func(o Options) (runner, error) {
	return func(o Options) (runner, error) {
		shape := fullTrace
		if o.Small {
			shape = smallTrace
		}
		rec, err := generateTrace(o.Seed, shape)
		if err != nil {
			return nil, err
		}
		r := &replayRunner{rec: rec, mode: mode}
		if err := mode(r, &meter{}); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		return r, nil
	}
}

type replayRunner struct {
	rec  *recording
	mode replayMode
}

func (r *replayRunner) close() {}

func (r *replayRunner) measure(m *meter) error {
	if m.lane != nil {
		if err := r.timeEncode(m); err != nil {
			return err
		}
		m.restart()
	}
	for i := int64(0); !m.done(); i++ {
		m.lane.SetReq(i)
		m.lane.Begin("bench.op")
		t0 := time.Now()
		err := r.mode(r, m)
		m.lane.End()
		m.op(t0, err)
	}
	return nil
}

// timeEncode re-encodes the trace through a timed sink: the encoding work
// the recording at setup overlaps with the live run.
func (r *replayRunner) timeEncode(m *meter) error {
	src, err := openTrace(r.rec)
	if err != nil {
		return err
	}
	defer src.Close()
	before := m.lane.layer("cmdstream.encode").Self
	if err := cmdstream.Pump(timedSink{cmdstream.NewWriter(io.Discard, cmdstream.FormatBinary), m.lane}, src); err != nil {
		return err
	}
	m.set("cmdstream.encode_s", (m.lane.layer("cmdstream.encode").Self - before).Seconds())
	return nil
}

// timedSink times every record encoded into the wrapped sink.
type timedSink struct {
	cmdstream.Sink
	lane *Lane
}

func (s timedSink) Write(rec *cmdstream.Record) error {
	s.lane.Begin("cmdstream.encode")
	defer s.lane.End()
	return s.Sink.Write(rec)
}

func (s timedSink) Close() error {
	s.lane.Begin("cmdstream.encode")
	defer s.lane.End()
	return s.Sink.Close()
}

// matchRecording checks a replay's report and simulated metrics against
// the live run that recorded the trace, bit for bit.
func (r *replayRunner) matchRecording(report string, mt pim.Metrics, what string) error {
	if report != r.rec.report || mt != r.rec.metrics {
		return gateErr("%s replay differs from the recording", what)
	}
	return nil
}

// metricsOf reads a device's simulated metrics the way pim.Device.Metrics
// does, for devices the traced path drives directly.
func metricsOf(d *device.Device) pim.Metrics {
	b := d.Stats().Breakdown()
	c := d.Stats().Copies()
	return pim.Metrics{
		KernelMS: b.Kernel.TimeMS(), HostMS: b.Host.TimeMS(), CopyMS: b.Copy.TimeMS(),
		KernelMJ: b.Kernel.EnergyMJ(), HostMJ: b.Host.EnergyMJ(), CopyMJ: b.Copy.EnergyMJ(),
		HostToDeviceBytes:   c.HostToDeviceBytes,
		DeviceToHostBytes:   c.DeviceToHostBytes,
		DeviceToDeviceBytes: c.DeviceToDeviceBytes,
	}
}

// tracedReplay replays ts through the timed executor onto d, or onto a
// fresh device built from the stream header when d is nil.
func (r *replayRunner) tracedReplay(m *meter, ts *timedSource, opts cmdstream.ReplayOptions, d *device.Device) (*device.Device, error) {
	var err error
	if d == nil {
		if d, err = device.NewFromHeader(ts.Header(), 1); err != nil {
			return nil, err
		}
	}
	if err := replayTimed(d, ts, m.lane, opts); err != nil {
		return nil, err
	}
	m.addPerOp("cmdstream.records", float64(ts.records))
	m.addPerOp("cmdstream.payload_mb", float64(ts.payload)/1e6)
	return d, nil
}

func serialReplay(r *replayRunner, m *meter) error {
	src, err := openTrace(r.rec)
	if err != nil {
		return err
	}
	defer src.Close()
	if m.lane == nil {
		dev, err := pim.ReplaySource(src, pim.ReplayConfig{Workers: 1})
		if err != nil {
			return err
		}
		return r.matchRecording(dev.Report(), dev.Metrics(), "serial")
	}
	d, err := r.tracedReplay(m, newTimedSource(src, m.lane, "cmdstream.decode", 0), cmdstream.ReplayOptions{}, nil)
	if err != nil {
		return err
	}
	return r.matchRecording(d.ReportString(), metricsOf(d), "serial")
}

func pipelinedReplay(r *replayRunner, m *meter) error {
	src, err := openTrace(r.rec)
	if err != nil {
		return err
	}
	defer src.Close()
	if m.lane == nil {
		dev, err := pim.ReplaySource(src, pim.ReplayConfig{Workers: 1, Pipelined: true})
		if err != nil {
			return err
		}
		return r.matchRecording(dev.Report(), dev.Metrics(), "pipelined")
	}
	// The decoder stays unwrapped so the pipeline keeps its zero-copy frame
	// handoff; the consumer side times how long it waits on the stage.
	ps := cmdstream.NewPipelineSource(src, 0)
	defer ps.Close()
	d, err := r.tracedReplay(m, newTimedSource(ps, m.lane, "cmdstream.pipeline_wait", 0), cmdstream.ReplayOptions{}, nil)
	if err != nil {
		return err
	}
	return r.matchRecording(d.ReportString(), metricsOf(d), "pipelined")
}

// optimizerPasses are the streaming passes: windowed dead-code elimination
// and hoisting keep the trace out of core.
var optimizerPasses = streamopt.Config{DeadCode: true, Hoist: true}

func optimizedReplay(r *replayRunner, m *meter) error {
	src, err := openTrace(r.rec)
	if err != nil {
		return err
	}
	defer src.Close()
	var (
		got   pim.Metrics
		res   *streamopt.Result
		inner *timedSource
		outer *timedSource
	)
	if m.lane == nil {
		osrc, ores, err := pim.OptimizeSource(src, optimizerPasses)
		if err != nil {
			return err
		}
		dev, err := pim.ReplaySource(osrc, pim.ReplayConfig{Workers: 1})
		if err != nil {
			return err
		}
		got, res = dev.Metrics(), ores
	} else {
		inner = newTimedSource(src, m.lane, "cmdstream.decode", 0)
		osrc, ores, err := streamopt.OptimizeSource(inner, optimizerPasses)
		if err != nil {
			return err
		}
		outer = newTimedSource(osrc, m.lane, "streamopt.window", 0)
		d, err := r.tracedReplay(m, outer, cmdstream.ReplayOptions{}, nil)
		if err != nil {
			return err
		}
		got, res = metricsOf(d), ores
		m.addPerOp("streamopt.eliminated", float64(res.Eliminated))
		m.addPerOp("streamopt.hoisted", float64(res.Hoisted))
		m.addPerOp("streamopt.kept_ratio", float64(outer.records)/float64(inner.records))
	}
	// Every reduction was verified during replay; the rewrite must have
	// removed the dead store and hoisted the xor of every phase, and it
	// may never raise the simulated cost.
	want := r.rec.metrics
	switch {
	case res.Eliminated < r.rec.phases || res.Hoisted < r.rec.phases:
		return gateErr("optimizer eliminated %d and hoisted %d records over %d phases", res.Eliminated, res.Hoisted, r.rec.phases)
	case got.TotalMS() > want.TotalMS() || got.TotalMJ() > want.TotalMJ():
		return gateErr("optimized replay costs %g ms / %g mJ, recording %g ms / %g mJ",
			got.TotalMS(), got.TotalMJ(), want.TotalMS(), want.TotalMJ())
	}
	return nil
}

// recoverReplay replays with a checkpoint about every eighth of the trace,
// each written as a device snapshot, then resumes from the first snapshot
// at or past the middle; both must reproduce the recording exactly. The
// interval is one record off a multiple of the phase length, so checkpoints
// land at different points inside phases, with objects live.
func recoverReplay(r *replayRunner, m *meter) error {
	every := r.rec.records/8 + 1
	half := r.rec.records / 2
	var snap, kept bytes.Buffer
	var keptCursor int64
	checkpoint := func(cursor int64, write func(io.Writer) error) error {
		snap.Reset()
		if err := write(&snap); err != nil {
			return err
		}
		if m.lane != nil {
			m.addPerOp("device.snapshot_mb", float64(snap.Len())/1e6)
		}
		if cursor >= half && keptCursor == 0 {
			keptCursor = cursor
			snap, kept = kept, snap
		}
		return nil
	}

	src, err := openTrace(r.rec)
	if err != nil {
		return err
	}
	defer src.Close()
	if m.lane == nil {
		dev, err := pim.ReplaySource(src, pim.ReplayConfig{Workers: 1, CheckpointEvery: every,
			Checkpoint: func(cursor int64, d *pim.Device) error {
				return checkpoint(cursor, func(w io.Writer) error { return d.WriteSnapshot(w, cursor) })
			}})
		if err != nil {
			return err
		}
		if err := r.matchRecording(dev.Report(), dev.Metrics(), "checkpointed"); err != nil {
			return err
		}
	} else {
		ts := newTimedSource(src, m.lane, "cmdstream.decode", 0)
		d, err := device.NewFromHeader(ts.Header(), 1)
		if err != nil {
			return err
		}
		opts := cmdstream.ReplayOptions{CheckpointEvery: every, Checkpoint: func(cursor int64) error {
			return checkpoint(cursor, func(w io.Writer) error {
				m.lane.Begin("device.snapshot_write")
				defer m.lane.End()
				return d.WriteSnapshot(w, cursor)
			})
		}}
		if _, err := r.tracedReplay(m, ts, opts, d); err != nil {
			return err
		}
		if err := r.matchRecording(d.ReportString(), metricsOf(d), "checkpointed"); err != nil {
			return err
		}
	}
	if keptCursor == 0 {
		return gateErr("no checkpoint at or past record %d of %d", half, r.rec.records)
	}
	return r.resume(m, kept.Bytes())
}

// resume restores a snapshot and replays the trace's tail.
func (r *replayRunner) resume(m *meter, snap []byte) error {
	src, err := openTrace(r.rec)
	if err != nil {
		return err
	}
	defer src.Close()
	if m.lane == nil {
		dev, err := pim.ResumeReplaySource(bytes.NewReader(snap), src, pim.ReplayConfig{Workers: 1})
		if err != nil {
			return err
		}
		return r.matchRecording(dev.Report(), dev.Metrics(), "resumed")
	}
	m.lane.Begin("device.restore")
	d, cursor, err := device.RestoreSnapshot(bytes.NewReader(snap), 1)
	m.lane.End()
	if err != nil {
		return err
	}
	if err := d.CheckResume(src); err != nil {
		return err
	}
	ts := newTimedSource(src, m.lane, "cmdstream.decode", cursor)
	if _, err := r.tracedReplay(m, ts, cmdstream.ReplayOptions{Skip: cursor}, d); err != nil {
		return err
	}
	return r.matchRecording(d.ReportString(), metricsOf(d), "resumed")
}

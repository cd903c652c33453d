package device

import (
	"pimeval/internal/cmdstream"
	"pimeval/internal/perf"
	"pimeval/internal/stats"
)

// EventClass tells a sink what kind of operation an event describes.
type EventClass int

// The event classes emitted by the dispatch pipeline.
const (
	// ClassStructural events (alloc, free, repeat scopes) carry no cost;
	// only record-consuming sinks care about them.
	ClassStructural EventClass = iota
	// ClassExec events are PIM command dispatches.
	ClassExec
	// ClassCopy events are data movements (host<->device, device<->device).
	ClassCopy
	// ClassHost events are host-executed phases charged to the device.
	ClassHost
)

// Event is what the dispatch pipeline fans out to sinks after an operation
// clears validation, lowering, functional execution, and the cost model. The
// pipeline reuses one event buffer across dispatches (device dispatch is
// single-threaded), so sinks must copy anything they retain.
type Event struct {
	// Record is the operation's command-stream IR record. Its payload
	// fields are only materialized when the stream recorder is attached;
	// the stats and trace sinks never read it.
	Record cmdstream.Record
	Class  EventClass

	// Name is the trace mnemonic ("add.int32", "copy.h2d"); empty for
	// events that never trace (host phases, structural events).
	Name string
	// N is the traced quantity: elements processed or bytes moved.
	N int64
	// TraceCost is the cost shown in trace entries. For exec commands this
	// is the raw per-dispatch cost (no background energy, no repeat
	// scaling); for copies it is the charged (scaled) cost — both exactly
	// as the pre-pipeline simulator reported them.
	TraceCost perf.Cost
	// Reps is the WithRepeat factor in effect at dispatch.
	Reps int64

	// Cost is the fully charged cost recorded into statistics: background
	// energy added (exec commands) and scaled by Reps.
	Cost perf.Cost
	// Category is the Figure-8 operation-category label (exec events).
	Category string

	// Copy traffic attribution, already scaled by Reps (copy events).
	H2D, D2H, D2D int64
}

// statsSink feeds the device's statistics collector: command costs, copy
// traffic, and host-phase costs, exactly as charged by the cost stage.
type statsSink struct {
	st *stats.Stats
}

// Emit routes the event's charged cost into the statistics collector.
func (s *statsSink) Emit(ev *Event) {
	switch ev.Class {
	case ClassExec:
		s.st.RecordCmd(ev.Name, ev.Category, ev.Reps, ev.Cost)
	case ClassCopy:
		s.st.RecordCopy(ev.H2D, ev.D2H, ev.D2D, ev.Cost)
	case ClassHost:
		s.st.RecordHost(ev.Cost)
	}
}

// recorderSink captures the lowered IR records of every dispatched
// operation, producing the stream behind record/replay. Records are fanned
// out to any attached cmdstream.Sinks as they are produced (the streaming
// recording path — a multi-GB trace flows straight to its encoder without
// materializing), and optionally accumulated in memory for RecordedStream.
type recorderSink struct {
	recs    []cmdstream.Record
	collect bool             // accumulate into recs (StartRecording)
	sinks   []cmdstream.Sink // streaming destinations (StartRecordingTo)
	seq     int64
	err     error // first sink write failure, surfaced by FinishRecording
}

// Emit stamps the event's record with the next stream sequence number and
// fans it out.
func (r *recorderSink) Emit(ev *Event) {
	rec := ev.Record
	r.seq++
	rec.Seq = r.seq
	if r.collect {
		// The in-memory stream is the host boundary: payloads as carriers.
		w, err := rec.Widened()
		if err != nil && r.err == nil {
			r.err = err
		}
		r.recs = append(r.recs, w)
	}
	for _, s := range r.sinks {
		if r.err != nil {
			break
		}
		r.err = s.Write(&rec)
	}
}

// streamHeader describes this device as a command-stream header.
func (d *Device) streamHeader() cmdstream.Header {
	return cmdstream.Header{
		Version:    cmdstream.Version,
		Target:     d.cfg.Target.String(),
		TargetID:   int(d.cfg.Target),
		Module:     d.cfg.Module,
		Functional: d.cfg.Functional,
		Faults:     d.cfg.Faults,
	}
}

// StartRecording attaches the stream recorder sink: every subsequently
// dispatched operation is lowered into a command-stream record, accumulated
// in memory for RecordedStream. Recording a functional run captures
// host-to-device payloads and reduction results, so the stream replays to
// bit-identical data and statistics.
func (d *Device) StartRecording() {
	if d.pipe.recorder == nil {
		d.pipe.recorder = &recorderSink{}
	}
	d.pipe.recorder.collect = true
}

// StartRecordingTo attaches a streaming recording destination: the sink's
// Begin is called immediately with this device's stream header, and every
// subsequently dispatched operation's record is written to it as it is
// produced, so the trace never materializes in memory. Multiple sinks (and
// in-memory recording via StartRecording) may be active at once; sink
// write failures are deferred to FinishRecording.
func (d *Device) StartRecordingTo(sink cmdstream.Sink) error {
	if err := sink.Begin(d.streamHeader()); err != nil {
		return err
	}
	if d.pipe.recorder == nil {
		d.pipe.recorder = &recorderSink{}
	}
	d.pipe.recorder.sinks = append(d.pipe.recorder.sinks, sink)
	return nil
}

// FinishRecording closes every streaming recording sink, returning the
// first error any of them reported (during writes or on close). In-memory
// recording, if active, stays active. Calling it with no streaming sinks
// attached is a no-op.
func (d *Device) FinishRecording() error {
	rec := d.pipe.recorder
	if rec == nil {
		return nil
	}
	err := rec.err
	rec.err = nil
	for _, s := range rec.sinks {
		if cerr := s.Close(); err == nil {
			err = cerr
		}
	}
	rec.sinks = nil
	return err
}

// Recording reports whether the stream recorder is attached.
func (d *Device) Recording() bool { return d.pipe.recorder != nil }

// RecordedStream returns a snapshot of the in-memory captured command
// stream with a header describing this device, or nil if in-memory
// recording (StartRecording) was never started.
func (d *Device) RecordedStream() *cmdstream.Stream {
	rec := d.pipe.recorder
	if rec == nil || !rec.collect {
		return nil
	}
	return &cmdstream.Stream{
		Header:  d.streamHeader(),
		Records: append([]cmdstream.Record(nil), rec.recs...),
	}
}

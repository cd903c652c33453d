package pim

// This file is the public surface over the internal/cmdstream IR: every API
// call a program issues lowers onto the command stream; a recorded stream
// can be serialized, decoded, and replayed against a fresh device built from
// the stream's header, reproducing the original run's data, statistics,
// trace, latency, and energy bit-for-bit (DESIGN.md §9).

import (
	"context"
	"fmt"
	"io"

	"pimeval/internal/cmdstream"
	"pimeval/internal/device"
)

// Stream is a recorded command stream: a device header plus one IR record
// per operation dispatched while recording was enabled. Serialize with
// (*Stream).Encode / EncodeFormat and read back with DecodeStream.
type Stream = cmdstream.Stream

// StreamSource is the streaming (iterator) face of a command stream: a
// header plus one record at a time, so multi-GB traces decode, optimize,
// and replay with bounded memory. Obtain one with OpenStreamSource.
type StreamSource = cmdstream.Source

// StreamFormat selects a stream wire encoding: StreamJSON (human-readable)
// or StreamBinary (bit-packed, ~4-10x smaller, chunked payloads).
type StreamFormat = cmdstream.Format

// The stream wire encodings.
const (
	StreamJSON   = cmdstream.FormatJSON
	StreamBinary = cmdstream.FormatBinary
)

// ParseStreamFormat maps "json" / "bin" onto a StreamFormat.
func ParseStreamFormat(s string) (StreamFormat, error) { return cmdstream.ParseFormat(s) }

// RecordStream starts capturing the device's command stream in memory.
// Operations issued before this call are not part of the stream, so start
// recording before the first allocation to capture a self-contained,
// replayable run. On a functional device the stream carries host-to-device
// payloads and reduction results, making replays fully verifiable.
func (v *Device) RecordStream() { v.d.StartRecording() }

// RecordStreamTo streams the device's command stream to w in the given
// format as operations are dispatched, so the trace never materializes in
// memory — the recording path for paper-scale functional runs. Encoding and
// writing run on a background stage (an AsyncSink) so they overlap the
// execution producing the records; the bytes written are identical to a
// synchronous encoder's. Call FinishRecording when done to drain the stage,
// flush the encoder, and surface any deferred write error. May be combined
// with RecordStream and with multiple destinations.
func (v *Device) RecordStreamTo(w io.Writer, f StreamFormat) error {
	return v.d.StartRecordingTo(cmdstream.NewAsyncSink(cmdstream.NewWriter(w, f), 0))
}

// FinishRecording closes every streaming recording destination, returning
// the first deferred write/flush error. In-memory recording (RecordStream)
// is unaffected.
func (v *Device) FinishRecording() error { return v.d.FinishRecording() }

// RecordedStream returns a snapshot of the captured command stream, or nil
// if RecordStream was never called.
func (v *Device) RecordedStream() *Stream { return v.d.RecordedStream() }

// DecodeStream reads an encoded command stream — JSON or binary,
// auto-detected — fully into memory and validates it. Truncated input fails
// with an error wrapping cmdstream.ErrTruncated. For streams too large to
// materialize, use OpenStreamSource.
func DecodeStream(r io.Reader) (*Stream, error) { return cmdstream.Decode(r) }

// OpenStreamSource opens a streaming decoder over an encoded command
// stream (JSON or binary, auto-detected from the first bytes). Records are
// decoded incrementally as the source is consumed; binary h2d payloads
// stream in bounded chunks. The source never closes r.
func OpenStreamSource(r io.Reader) (StreamSource, error) { return cmdstream.OpenSource(r) }

// ReplayConfig controls the device a stream is replayed onto. The
// architecture, geometry, and functional mode always come from the stream's
// header; the knobs here only affect observation.
type ReplayConfig struct {
	// Workers bounds the functional engine's worker pool (as Config.Workers).
	Workers int
	// Trace enables the command trace before replay begins.
	Trace bool
	// Record re-records the replayed stream (for round-trip verification).
	Record bool
	// Pipelined runs decode on its own goroutine behind a bounded queue,
	// overlapping I/O + decode with execution. Record order is exactly the
	// serial path's, so every observable — data, statistics, trace,
	// latency, energy, fault injection — is bit-identical; only wall-clock
	// time changes.
	Pipelined bool
	// Context, when non-nil, installs a cancellation context on the replay
	// device before the first record executes (Device.SetContext): once it
	// is canceled or its deadline passes, the replay stops cooperatively and
	// fails with an error matching both ErrCanceled and the context's own
	// error. This is how a server aborts a replay when its client goes away.
	Context context.Context
	// CheckpointEvery is the minimum number of stream records between
	// Checkpoint callbacks. Checkpoints fire at unit boundaries — never
	// inside a repeat scope — so the device state a callback observes is
	// always self-contained. Zero disables checkpointing.
	CheckpointEvery int64
	// Checkpoint, when non-nil, is called during replay with the resume
	// cursor (total records consumed so far) and the replaying device;
	// pair it with Device.WriteSnapshot to produce recovery points a later
	// ResumeReplaySource continues from. An error aborts the replay.
	// Incompatible with Record — a snapshot cannot be taken while a stream
	// recorder is attached — so setting both fails with ErrBadArgument
	// before any record executes.
	Checkpoint func(cursor int64, d *Device) error
}

// Replay validates a materialized stream, then replays it as ReplaySource
// does. For streams recorded on a functional device, reduction results are
// verified against the recorded values during replay. The returned device
// holds the replayed run's state and statistics.
func Replay(s *Stream, rc ReplayConfig) (*Device, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return ReplaySource(cmdstream.FromStream(s), rc)
}

// ReplaySource builds a fresh device from the source's header and
// re-executes records as they are decoded: only the current record (or
// repeat-scope body) is resident, and binary h2d payloads stream straight
// into device storage in bounded chunks — a stream far larger than memory
// replays with O(chunk) peak usage. The source is consumed but not closed.
func ReplaySource(src StreamSource, rc ReplayConfig) (*Device, error) {
	if rc.Record && rc.Checkpoint != nil {
		return nil, fmt.Errorf("%w: ReplayConfig.Record and Checkpoint are incompatible", ErrBadArgument)
	}
	d, err := device.NewFromHeader(src.Header(), rc.Workers)
	if err != nil {
		return nil, err
	}
	if rc.Trace {
		d.EnableTrace()
	}
	if rc.Record {
		d.StartRecording()
	}
	return replayOpts(d, src, rc, 0)
}

// replayOpts installs rc's context and replays src onto d from the resume
// cursor skip, with rc's pipelining and checkpoint knobs.
func replayOpts(d *device.Device, src StreamSource, rc ReplayConfig, skip int64) (*Device, error) {
	if rc.Context != nil {
		d.SetContext(rc.Context)
	}
	v := &Device{d: d}
	opts := cmdstream.ReplayOptions{Pipelined: rc.Pipelined, Skip: skip, CheckpointEvery: rc.CheckpointEvery}
	if rc.Checkpoint != nil {
		opts.Checkpoint = func(cursor int64) error { return rc.Checkpoint(cursor, v) }
	}
	if err := cmdstream.ReplaySourceOpts(d, src, opts); err != nil {
		return nil, err
	}
	return v, nil
}

// WriteSnapshot serializes the device's complete state — object table,
// memory contents, statistics, trace, and fault-injection sequence — to w
// in the deterministic PIMS snapshot format (DESIGN.md §16), recording
// cursor as the resume position within the stream being replayed. The
// encoding is byte-stable: snapshotting a restored device reproduces the
// exact snapshot bytes. Snapshots cannot be taken inside WithRepeat or
// while stream recording is active.
func (v *Device) WriteSnapshot(w io.Writer, cursor int64) error {
	return v.d.WriteSnapshot(w, cursor)
}

// RestoreSnapshot rebuilds a device from a snapshot written by
// WriteSnapshot and returns it with the recorded resume cursor. workers is
// observational, as with replay. Damaged input fails with an error wrapping
// device.ErrSnapshotFormat, ErrSnapshotTruncated, or ErrSnapshotCorrupt —
// never a panic, never a silently different device.
func RestoreSnapshot(r io.Reader, workers int) (*Device, int64, error) {
	d, cursor, err := device.RestoreSnapshot(r, workers)
	if err != nil {
		return nil, 0, err
	}
	return &Device{d: d}, cursor, nil
}

// ResumeReplaySource restores a device from a snapshot and resumes
// replaying src from the snapshot's cursor: records the snapshotted run
// already executed are skipped, the tail executes, and the final device is
// bit-identical — data, statistics, report, trace, fault counters — to an
// uninterrupted replay of the whole stream. src must be the same stream the
// snapshot was taken during. rc's Trace and Record are ignored (trace state
// comes from the snapshot; a recorder cannot reproduce skipped records);
// Workers, Context, Pipelined, and the checkpoint knobs apply as in
// ReplaySource.
func ResumeReplaySource(snapshot io.Reader, src StreamSource, rc ReplayConfig) (*Device, error) {
	d, cursor, err := device.RestoreSnapshot(snapshot, rc.Workers)
	if err != nil {
		return nil, err
	}
	if err := d.CheckResume(src); err != nil {
		return nil, err
	}
	return replayOpts(d, src, rc, cursor)
}

package device

import (
	"bytes"
	"encoding/json"
	"fmt"

	"pimeval/internal/cmdstream"
)

// NewFromHeader builds a fresh device matching a recorded stream's header,
// without executing any records — the caller may enable tracing or recording
// on the new device before replaying. The header's target name must agree
// with its enum value, guarding against streams from a build with a
// different target numbering.
func NewFromHeader(h cmdstream.Header, workers int) (*Device, error) {
	t := Target(h.TargetID)
	if !t.Valid() || t.String() != h.Target {
		return nil, fmt.Errorf("%w: stream target %q (id %d)", ErrBadArgument,
			h.Target, h.TargetID)
	}
	return New(Config{
		Target:     t,
		Module:     h.Module,
		Functional: h.Functional,
		Workers:    workers,
		// Carrying the recorded fault configuration makes replays fault
		// bit-for-bit identically: injection is keyed by (seed, write
		// sequence) and the stream fixes the operation order.
		Faults: h.Faults,
	})
}

// NewFromStream builds a fresh device matching a materialized stream's
// header; see NewFromHeader.
func NewFromStream(s *cmdstream.Stream, workers int) (*Device, error) {
	return NewFromHeader(s.Header, workers)
}

// CheckResume verifies that src is a stream this device may resume: its
// header must describe the same device (see compatibleHeader). Callers that
// restore a snapshot (RestoreSnapshot) run this check before replaying the
// tail with cmdstream.ReplayOptions.Skip set to the snapshot's cursor.
func (d *Device) CheckResume(src cmdstream.Source) error {
	return compatibleHeader(d.streamHeader(), src.Header())
}

// compatibleHeader verifies that the stream being resumed describes the same
// device as the snapshot it resumes from: target, module geometry,
// functional mode, and fault configuration must all agree. Optimizer pass
// names are excluded — a device header never records them — so resuming a
// stream whose record sequence differs from the snapshotted replay's is the
// caller's responsibility (cursors are positions in one specific sequence).
func compatibleHeader(snap, stream cmdstream.Header) error {
	snapJSON, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	// Normalize the fields a snapshot header never carries.
	norm := stream
	norm.Optimized = nil
	streamJSON, err := json.Marshal(norm)
	if err != nil {
		return err
	}
	if !bytes.Equal(snapJSON, streamJSON) {
		return fmt.Errorf("%w: stream header does not match snapshot (snapshot %s, stream %s)",
			ErrBadArgument, snapJSON, streamJSON)
	}
	return nil
}

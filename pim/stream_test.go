package pim

import (
	"errors"
	"testing"

	"pimeval/internal/cmdstream"
)

// TestReplayRejectsRecordWithCheckpoint: a snapshot cannot be taken while a
// stream recorder is attached, so asking for both must fail up front with
// ErrBadArgument rather than at the first checkpoint, after records ran.
func TestReplayRejectsRecordWithCheckpoint(t *testing.T) {
	dev := newFunctional(t, Fulcrum)
	dev.RecordStream()
	a, err := dev.Alloc(64, Int32)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.AddScalar(a, 3, a); err != nil {
		t.Fatal(err)
	}
	if err := dev.Free(a); err != nil {
		t.Fatal(err)
	}
	s := dev.RecordedStream()

	calls := 0
	rc := ReplayConfig{
		Record:          true,
		CheckpointEvery: 1,
		Checkpoint: func(int64, *Device) error {
			calls++
			return nil
		},
	}
	if _, err := Replay(s, rc); !errors.Is(err, ErrBadArgument) {
		t.Errorf("Replay: err = %v, want ErrBadArgument", err)
	}
	if _, err := ReplaySource(cmdstream.FromStream(s), rc); !errors.Is(err, ErrBadArgument) {
		t.Errorf("ReplaySource: err = %v, want ErrBadArgument", err)
	}
	if calls != 0 {
		t.Errorf("Checkpoint called %d times before the configuration was rejected", calls)
	}
}

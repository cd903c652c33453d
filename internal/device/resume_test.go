package device

import (
	"bytes"
	"errors"
	"testing"

	"pimeval/internal/cmdstream"
	"pimeval/internal/dram"
)

// recordSnapStream drives the snapshot battery's op history on a recording
// device and returns the captured stream.
func recordSnapStream(t *testing.T, v snapVariant) *cmdstream.Stream {
	t.Helper()
	rec, err := New(Config{
		Target:     TargetFulcrum,
		Module:     dram.DDR4(1),
		Functional: v.functional,
		Workers:    1,
		Faults:     v.faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.StartRecording()
	driveSnapOps(t, rec, v.functional)
	s := rec.RecordedStream()
	if s == nil || len(s.Records) == 0 {
		t.Fatal("no records captured")
	}
	return s
}

// scopeDepths returns, for each record index i, the repeat-scope depth
// *after* consuming records [0, i).
func scopeDepths(s *cmdstream.Stream) []int {
	depths := make([]int, len(s.Records)+1)
	d := 0
	for i, r := range s.Records {
		depths[i] = d
		switch r.Kind {
		case cmdstream.KindRepeatBegin:
			d = 1
		case cmdstream.KindRepeatEnd:
			d = 0
		}
	}
	depths[len(s.Records)] = d
	return depths
}

// resumeFrom restores a snapshot and replays the tail of src from the
// snapshot's cursor, as pim.ResumeReplaySource does.
func resumeFrom(snap []byte, src cmdstream.Source) (*Device, error) {
	d, cursor, err := RestoreSnapshot(bytes.NewReader(snap), 1)
	if err != nil {
		return nil, err
	}
	if err := d.CheckResume(src); err != nil {
		return nil, err
	}
	return d, cmdstream.ReplaySourceOpts(d, src, cmdstream.ReplayOptions{Skip: cursor})
}

// TestResumeFromEveryCheckpoint checkpoints a replay at every unit boundary,
// then restores each snapshot and replays the tail: every resumed device
// must be bit-identical to the uninterrupted replay.
func TestResumeFromEveryCheckpoint(t *testing.T) {
	for _, v := range snapVariants() {
		t.Run(v.name, func(t *testing.T) {
			stream := recordSnapStream(t, v)

			ref, err := NewFromStream(stream, 1)
			if err != nil {
				t.Fatal(err)
			}
			ref.EnableTrace()
			if err := cmdstream.ReplaySourceOpts(ref, cmdstream.FromStream(stream), cmdstream.ReplayOptions{}); err != nil {
				t.Fatalf("reference replay: %v", err)
			}
			want := fingerprint(t, ref)

			// Checkpointed replay, snapshotting at every boundary.
			ckpt, err := NewFromStream(stream, 1)
			if err != nil {
				t.Fatal(err)
			}
			ckpt.EnableTrace()
			snaps := map[int64][]byte{}
			err = cmdstream.ReplaySourceOpts(ckpt, cmdstream.FromStream(stream), cmdstream.ReplayOptions{
				CheckpointEvery: 1,
				Checkpoint: func(cursor int64) error {
					var buf bytes.Buffer
					if err := ckpt.WriteSnapshot(&buf, cursor); err != nil {
						return err
					}
					snaps[cursor] = buf.Bytes()
					return nil
				},
			})
			if err != nil {
				t.Fatalf("checkpointed replay: %v", err)
			}
			if got := fingerprint(t, ckpt); got != want {
				t.Fatal("checkpointed replay diverged from reference")
			}
			if len(snaps) == 0 {
				t.Fatal("no checkpoints fired")
			}

			depths := scopeDepths(stream)
			for cursor, snap := range snaps {
				if cursor < 1 || cursor > int64(len(stream.Records)) {
					t.Fatalf("checkpoint cursor %d out of range", cursor)
				}
				if depths[cursor] != 0 {
					t.Fatalf("checkpoint cursor %d inside repeat scope", cursor)
				}
				r, err := resumeFrom(snap, cmdstream.FromStream(stream))
				if err != nil {
					t.Fatalf("resume at cursor %d: %v", cursor, err)
				}
				if got := fingerprint(t, r); got != want {
					t.Fatalf("resume at cursor %d diverged from uninterrupted replay", cursor)
				}
			}
		})
	}
}

// TestResumeCheckpointCadence verifies the interval contract: at least
// CheckpointEvery records between callbacks, cursors strictly increasing.
func TestResumeCheckpointCadence(t *testing.T) {
	stream := recordSnapStream(t, snapVariant{functional: true})
	d, err := NewFromStream(stream, 1)
	if err != nil {
		t.Fatal(err)
	}
	var cursors []int64
	err = cmdstream.ReplaySourceOpts(d, cmdstream.FromStream(stream), cmdstream.ReplayOptions{
		CheckpointEvery: 3,
		Checkpoint: func(cursor int64) error {
			cursors = append(cursors, cursor)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cursors) == 0 {
		t.Fatal("no checkpoints fired")
	}
	prev := int64(0)
	for _, c := range cursors {
		if c-prev < 3 {
			t.Fatalf("checkpoints at %d and %d closer than interval", prev, c)
		}
		prev = c
	}
}

// TestResumeCheckpointError proves a checkpoint failure aborts the replay.
func TestResumeCheckpointError(t *testing.T) {
	stream := recordSnapStream(t, snapVariant{functional: true})
	d, err := NewFromStream(stream, 1)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("checkpoint sink failed")
	err = cmdstream.ReplaySourceOpts(d, cmdstream.FromStream(stream), cmdstream.ReplayOptions{
		CheckpointEvery: 1,
		Checkpoint:      func(int64) error { return boom },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

// TestResumeCursorValidation covers hostile or stale resume cursors.
func TestResumeCursorValidation(t *testing.T) {
	stream := recordSnapStream(t, snapVariant{functional: true})
	total := int64(len(stream.Records))
	depths := scopeDepths(stream)

	newReplayDev := func() *Device {
		d, err := NewFromStream(stream, 1)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	if err := cmdstream.ReplaySourceOpts(newReplayDev(), cmdstream.FromStream(stream),
		cmdstream.ReplayOptions{Skip: -1}); err == nil {
		t.Error("negative skip accepted")
	}
	if err := cmdstream.ReplaySourceOpts(newReplayDev(), cmdstream.FromStream(stream),
		cmdstream.ReplayOptions{CheckpointEvery: -1}); err == nil {
		t.Error("negative interval accepted")
	}
	err := cmdstream.ReplaySourceOpts(newReplayDev(), cmdstream.FromStream(stream),
		cmdstream.ReplayOptions{Skip: total + 1})
	if !errors.Is(err, cmdstream.ErrTruncated) {
		t.Errorf("skip past end: %v", err)
	}
	// A cursor inside a repeat scope is structurally invalid.
	inScope := int64(-1)
	for i, d := range depths {
		if d != 0 {
			inScope = int64(i)
			break
		}
	}
	if inScope < 0 {
		t.Fatal("recorded stream has no repeat scope")
	}
	err = cmdstream.ReplaySourceOpts(newReplayDev(), cmdstream.FromStream(stream),
		cmdstream.ReplayOptions{Skip: inScope})
	if !errors.Is(err, cmdstream.ErrFormat) {
		t.Errorf("skip into scope: %v", err)
	}
}

// TestResumeHeaderMismatch proves a resume rejects a stream recorded on a
// different device than the snapshot's.
func TestResumeHeaderMismatch(t *testing.T) {
	v := snapVariant{functional: true}
	stream := recordSnapStream(t, v)
	var snap bytes.Buffer
	if err := buildSnapDevice(t, v).WriteSnapshot(&snap, 0); err != nil {
		t.Fatal(err)
	}
	other := *stream
	other.Header.Target = TargetBitSerial.String()
	other.Header.TargetID = int(TargetBitSerial)
	if _, err := resumeFrom(snap.Bytes(), cmdstream.FromStream(&other)); !errors.Is(err, ErrBadArgument) {
		t.Errorf("mismatched target accepted: %v", err)
	}
	modelHdr := stream.Header
	modelHdr.Functional = false
	if _, err := resumeFrom(snap.Bytes(), cmdstream.FromRecords(modelHdr, stream.Records)); !errors.Is(err, ErrBadArgument) {
		t.Errorf("mismatched functional mode accepted: %v", err)
	}
}

package cmdstream_test

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"pimeval/internal/cmdstream"
	"pimeval/internal/device"
	"pimeval/internal/dram"
	"pimeval/internal/isa"
	"pimeval/internal/perf"
	"pimeval/internal/streamopt"
)

// sampleStream builds a stream exercising every field class, including
// floats that have no short decimal form.
func sampleStream() *cmdstream.Stream {
	return &cmdstream.Stream{
		Header: cmdstream.Header{
			Version:    cmdstream.Version,
			Target:     "fulcrum",
			TargetID:   1,
			Module:     dram.DDR4(2),
			Functional: true,
		},
		Records: []cmdstream.Record{
			{Seq: 1, Kind: cmdstream.KindAlloc, Obj: 1, Type: "int32", N: 8},
			{Seq: 2, Kind: cmdstream.KindCopyH2D, Obj: 1, Data: []int64{1, -2, 3, 4, 5, 6, 7, 8}},
			{Seq: 3, Kind: cmdstream.KindRepeatBegin, Repeat: 7},
			{Seq: 4, Kind: cmdstream.KindExec, Form: cmdstream.FormScalar,
				Op: "mul", Type: "int32", N: 8, A: 1, Dst: 1, Scalar: 3},
			{Seq: 5, Kind: cmdstream.KindRepeatEnd},
			{Seq: 6, Kind: cmdstream.KindHost, TimeNS: 1.0 / 3.0, EnergyPJ: math.Pi * 1e6},
			{Seq: 7, Kind: cmdstream.KindExec, Form: cmdstream.FormRedSum,
				Op: "redsum", Type: "int32", N: 8, A: 1, Result: -12345},
			{Seq: 8, Kind: cmdstream.KindFree, Obj: 1},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := sampleStream()
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := cmdstream.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Errorf("decoded stream differs:\n got %+v\nwant %+v", got, s)
	}
	// Floats must survive the text encoding bit-for-bit — the replay
	// determinism guarantee depends on it.
	if b := math.Float64bits(got.Records[5].TimeNS); b != math.Float64bits(1.0/3.0) {
		t.Errorf("TimeNS bits changed: %x", b)
	}
}

func TestDecodeRejectsBadStreams(t *testing.T) {
	cases := map[string]func(*cmdstream.Stream){
		"version":  func(s *cmdstream.Stream) { s.Header.Version = 99 },
		"geometry": func(s *cmdstream.Stream) { s.Header.Module.Geometry.Ranks = 0 },
	}
	for name, corrupt := range cases {
		s := sampleStream()
		corrupt(s)
		var buf bytes.Buffer
		if err := s.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := cmdstream.Decode(&buf); err == nil {
			t.Errorf("%s: corrupted stream decoded without error", name)
		}
	}
	if _, err := cmdstream.Decode(strings.NewReader("{not json")); err == nil {
		t.Error("malformed JSON decoded without error")
	}
}

func newDev(t *testing.T) *device.Device {
	t.Helper()
	d, err := device.New(device.Config{
		Target: device.TargetFulcrum, Module: dram.DDR4(1), Functional: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestReplayMatchesLiveRun records a small program (with a repeat scope and
// reductions), replays it on a fresh device, and demands identical data,
// statistics, and trace.
func TestReplayMatchesLiveRun(t *testing.T) {
	run := func(d *device.Device) int64 {
		a, _ := d.Alloc(16, isa.Int32)
		b, _ := d.Alloc(16, isa.Int32)
		vals := make([]int64, 16)
		for i := range vals {
			vals[i] = int64(i) - 7
		}
		if err := d.CopyHostToDevice(device.ObjID(a), vals); err != nil {
			t.Fatal(err)
		}
		err := d.WithRepeat(5, func() error {
			return d.ExecBinary(isa.OpAdd, a, a, b)
		})
		if err != nil {
			t.Fatal(err)
		}
		d.RecordHost(perf.Cost{TimeNS: 100, EnergyPJ: 42})
		sum, err := d.RedSum(b)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.CopyDeviceToHost(b); err != nil {
			t.Fatal(err)
		}
		return sum
	}

	live := newDev(t)
	live.EnableTrace()
	live.StartRecording()
	liveSum := run(live)
	s := live.RecordedStream()
	if s == nil || len(s.Records) == 0 {
		t.Fatal("no stream recorded")
	}

	rep, err := device.NewFromStream(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep.EnableTrace()
	if err := cmdstream.Replay(rep, s); err != nil {
		t.Fatal(err)
	}
	if got, want := rep.TraceString(), live.TraceString(); got != want {
		t.Errorf("trace diverged:\n got:\n%s\nwant:\n%s", got, want)
	}
	lb, rb := live.Stats().Breakdown(), rep.Stats().Breakdown()
	if !reflect.DeepEqual(lb, rb) {
		t.Errorf("stats breakdown diverged:\n got %+v\nwant %+v", rb, lb)
	}
	_ = liveSum // verified inside Replay against the recorded Result
}

// TestScopeValidationRejectsNestedBeforeExecution pins down the static
// validator: a stream whose repeat scopes nest (with frees interleaved
// between the scope records) must be rejected by Decode AND by Replay
// before any record executes — previously the replayer discovered the
// nesting mid-walk, after a prefix of the stream had already run.
func TestScopeValidationRejectsNestedBeforeExecution(t *testing.T) {
	s := &cmdstream.Stream{
		Header: cmdstream.Header{
			Version: cmdstream.Version, Target: "fulcrum", TargetID: 1,
			Module: dram.DDR4(1), Functional: true,
		},
		Records: []cmdstream.Record{
			{Seq: 1, Kind: cmdstream.KindAlloc, Obj: 1, Type: "int32", N: 4},
			{Seq: 2, Kind: cmdstream.KindAlloc, Obj: 2, Type: "int32", N: 4},
			{Seq: 3, Kind: cmdstream.KindRepeatBegin, Repeat: 2},
			{Seq: 4, Kind: cmdstream.KindFree, Obj: 1},
			{Seq: 5, Kind: cmdstream.KindRepeatBegin, Repeat: 3}, // nested
			{Seq: 6, Kind: cmdstream.KindFree, Obj: 2},
			{Seq: 7, Kind: cmdstream.KindRepeatEnd},
			{Seq: 8, Kind: cmdstream.KindRepeatEnd},
		},
	}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "nested repeat") {
		t.Fatalf("Validate: %v, want nested-repeat error", err)
	}
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := cmdstream.Decode(&buf); err == nil || !strings.Contains(err.Error(), "nested repeat") {
		t.Errorf("Decode: %v, want nested-repeat error", err)
	}
	d := newDev(t)
	if err := cmdstream.Replay(d, s); err == nil || !strings.Contains(err.Error(), "nested repeat") {
		t.Fatalf("Replay: %v, want nested-repeat error", err)
	}
	// Nothing may have executed: the allocs before the malformed scope must
	// not exist on the device.
	if err := d.Free(device.ObjID(1)); err == nil {
		t.Error("replay executed a prefix of a malformed stream")
	}
}

// TestSequentialScopesRoundTrip is the legal counterpart: two back-to-back
// (non-nested) scopes with frees interleaved between them round-trip
// through encode/decode and replay cleanly.
func TestSequentialScopesRoundTrip(t *testing.T) {
	d := newDev(t)
	d.StartRecording()
	a, _ := d.Alloc(8, isa.Int32)
	b, _ := d.Alloc(8, isa.Int32)
	if err := d.CopyHostToDevice(a, []int64{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	if err := d.WithRepeat(3, func() error { return d.ExecScalar(isa.OpAdd, a, 1, b) }); err != nil {
		t.Fatal(err)
	}
	if err := d.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := d.WithRepeat(2, func() error { return d.ExecScalar(isa.OpMul, b, 2, b) }); err != nil {
		t.Fatal(err)
	}
	if err := d.Free(b); err != nil {
		t.Fatal(err)
	}
	s := d.RecordedStream()
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := cmdstream.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Errorf("decoded stream differs:\n got %+v\nwant %+v", got, s)
	}
	rep := newDev(t)
	if err := cmdstream.Replay(rep, got); err != nil {
		t.Fatalf("replay: %v", err)
	}
}

func TestReplayScopeErrors(t *testing.T) {
	hdr := cmdstream.Header{
		Version: cmdstream.Version, Target: "fulcrum", TargetID: 1,
		Module: dram.DDR4(1), Functional: true,
	}
	cases := map[string][]cmdstream.Record{
		"nested": {
			{Seq: 1, Kind: cmdstream.KindRepeatBegin, Repeat: 2},
			{Seq: 2, Kind: cmdstream.KindRepeatBegin, Repeat: 3},
			{Seq: 3, Kind: cmdstream.KindRepeatEnd},
			{Seq: 4, Kind: cmdstream.KindRepeatEnd},
		},
		"unterminated": {
			{Seq: 1, Kind: cmdstream.KindRepeatBegin, Repeat: 2},
		},
		"zero-factor": {
			{Seq: 1, Kind: cmdstream.KindRepeatBegin, Repeat: 0},
			{Seq: 2, Kind: cmdstream.KindRepeatEnd},
		},
		"unmatched-end": {
			{Seq: 1, Kind: cmdstream.KindRepeatEnd},
		},
		"unknown-kind": {
			{Seq: 1, Kind: cmdstream.Kind("warp")},
		},
		"unknown-op": {
			{Seq: 1, Kind: cmdstream.KindExec, Form: cmdstream.FormBinary, Op: "frobnicate"},
		},
		"unknown-form": {
			{Seq: 1, Kind: cmdstream.KindExec, Form: cmdstream.Form("ternary"), Op: "add"},
		},
		"unknown-type": {
			{Seq: 1, Kind: cmdstream.KindAlloc, Obj: 1, Type: "float128", N: 4},
		},
	}
	// Every replay path runs the same structural check, so each must reject
	// every case, and an unterminated scope must read as truncation.
	paths := map[string]func(d *device.Device, recs []cmdstream.Record) error{
		"Replay": func(d *device.Device, recs []cmdstream.Record) error {
			return cmdstream.Replay(d, &cmdstream.Stream{Header: hdr, Records: recs})
		},
		"serial": func(d *device.Device, recs []cmdstream.Record) error {
			return cmdstream.ReplaySourceOpts(d, cmdstream.FromRecords(hdr, recs), cmdstream.ReplayOptions{})
		},
		"pipelined": func(d *device.Device, recs []cmdstream.Record) error {
			return cmdstream.ReplaySourceOpts(d, cmdstream.FromRecords(hdr, recs),
				cmdstream.ReplayOptions{Pipelined: true})
		},
		"OptimizeSource": func(d *device.Device, recs []cmdstream.Record) error {
			src, _, err := streamopt.OptimizeSource(cmdstream.FromRecords(hdr, recs),
				streamopt.Config{DeadCode: true, Hoist: true})
			if err != nil {
				return err
			}
			return cmdstream.ReplaySourceOpts(d, src, cmdstream.ReplayOptions{})
		},
	}
	for name, recs := range cases {
		for path, replay := range paths {
			err := replay(newDev(t), recs)
			if err == nil {
				t.Errorf("%s/%s: replay accepted a malformed stream", name, path)
			}
			if name == "unterminated" && !errors.Is(err, cmdstream.ErrTruncated) {
				t.Errorf("%s/%s: error %v does not wrap ErrTruncated", name, path, err)
			}
		}
	}
}

// TestReplayDetectsDivergedAllocs verifies the deterministic-ID check: a
// stream whose recorded object ID cannot be reproduced fails loudly.
func TestReplayDetectsDivergedAllocs(t *testing.T) {
	d := newDev(t)
	s := &cmdstream.Stream{
		Header: cmdstream.Header{
			Version: cmdstream.Version, Target: "fulcrum", TargetID: 1,
			Module: dram.DDR4(1), Functional: true,
		},
		Records: []cmdstream.Record{
			{Seq: 1, Kind: cmdstream.KindAlloc, Obj: 42, Type: "int32", N: 4},
		},
	}
	err := cmdstream.Replay(d, s)
	if err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Errorf("want divergence error, got %v", err)
	}
}

// TestReplayVerifiesReductions verifies that functional replays check
// recorded reduction results.
func TestReplayVerifiesReductions(t *testing.T) {
	live := newDev(t)
	live.StartRecording()
	a, _ := live.Alloc(8, isa.Int32)
	if err := live.CopyHostToDevice(a, []int64{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := live.RedSum(a); err != nil {
		t.Fatal(err)
	}
	s := live.RecordedStream()
	// Tamper with the recorded result; the replay must notice.
	for i := range s.Records {
		if s.Records[i].Form == cmdstream.FormRedSum {
			s.Records[i].Result++
		}
	}
	rep, err := device.NewFromStream(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cmdstream.Replay(rep, s); err == nil {
		t.Error("replay accepted a tampered reduction result")
	}
}

func TestNewFromStreamRejectsMismatchedTarget(t *testing.T) {
	s := sampleStream()
	s.Header.Target = "banklevel" // disagrees with TargetID 1 (fulcrum)
	if _, err := device.NewFromStream(s, 1); err == nil {
		t.Error("mismatched target header accepted")
	}
}

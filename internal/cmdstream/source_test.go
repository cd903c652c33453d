package cmdstream_test

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"pimeval/internal/cmdstream"
	"pimeval/internal/device"
	"pimeval/internal/isa"
)

// TestSliceAdapters pins the Source/Sink adapter contract: FromStream →
// Collect and FromRecords → Pump(Collector) reproduce the original stream
// exactly, so the slice API is a zero-loss view of the streaming one.
func TestSliceAdapters(t *testing.T) {
	s := fullStream()
	got, err := cmdstream.Collect(cmdstream.FromStream(s))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Error("Collect(FromStream(s)) != s")
	}
	c := cmdstream.NewCollector()
	if err := cmdstream.Pump(c, cmdstream.FromRecords(s.Header, s.Records)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.Stream(), s) {
		t.Error("Pump into Collector lost records")
	}
	if c.Len() != len(s.Records) {
		t.Errorf("Collector.Len() = %d, want %d", c.Len(), len(s.Records))
	}
}

// TestJSONWriterMatchesEncode: the streaming JSON sink must emit bytes
// identical to the one-shot Stream.Encode, so files written by either path
// are interchangeable.
func TestJSONWriterMatchesEncode(t *testing.T) {
	s := sampleStream()
	var want bytes.Buffer
	if err := s.Encode(&want); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	w := cmdstream.NewWriter(&got, cmdstream.FormatJSON)
	if err := cmdstream.Pump(w, cmdstream.FromStream(s)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("streaming JSON writer output differs from Encode:\n got: %s\nwant: %s", got.String(), want.String())
	}
}

// TestOpenSourceAutoDetect: OpenSource must detect the format from the
// leading bytes — JSON (with or without leading whitespace) and binary —
// and the decoded streams must agree.
func TestOpenSourceAutoDetect(t *testing.T) {
	s := sampleStream()
	var jbuf, bbuf bytes.Buffer
	if err := s.Encode(&jbuf); err != nil {
		t.Fatal(err)
	}
	if err := s.EncodeBinary(&bbuf); err != nil {
		t.Fatal(err)
	}
	inputs := map[string][]byte{
		"json":            jbuf.Bytes(),
		"json-whitespace": append([]byte(" \t\r\n "), jbuf.Bytes()...),
		"binary":          bbuf.Bytes(),
	}
	for name, in := range inputs {
		got, err := cmdstream.Decode(bytes.NewReader(in))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(got, s) {
			t.Errorf("%s: decoded stream differs", name)
		}
	}
}

// TestParseFormat covers the flag-value parser and its String inverse.
func TestParseFormat(t *testing.T) {
	for in, want := range map[string]cmdstream.Format{
		"json": cmdstream.FormatJSON, "bin": cmdstream.FormatBinary, "binary": cmdstream.FormatBinary,
	} {
		f, err := cmdstream.ParseFormat(in)
		if err != nil || f != want {
			t.Errorf("ParseFormat(%q) = %v, %v", in, f, err)
		}
	}
	if _, err := cmdstream.ParseFormat("xml"); err == nil {
		t.Error("ParseFormat accepted an unknown format")
	}
	if cmdstream.FormatJSON.String() != "json" || cmdstream.FormatBinary.String() != "bin" {
		t.Error("Format.String round-trip broken")
	}
}

// recordSample runs a small program (repeat scope, payload uploads,
// reduction, readback) on a recording device and returns the device and its
// recorded stream.
func recordSample(t *testing.T) (*device.Device, *cmdstream.Stream) {
	t.Helper()
	d := newDev(t)
	d.EnableTrace()
	d.StartRecording()
	a, err := d.Alloc(16, isa.Int32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Alloc(16, isa.Int32)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, 16)
	for i := range vals {
		vals[i] = int64(i*3 - 7)
	}
	if err := d.CopyHostToDevice(a, vals); err != nil {
		t.Fatal(err)
	}
	if err := d.CopyHostToDevice(b, vals); err != nil {
		t.Fatal(err)
	}
	err = d.WithRepeat(3, func() error {
		return d.ExecBinary(isa.OpAdd, a, b, b)
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.RedSum(b); err != nil {
		t.Fatal(err)
	}
	if _, err := d.CopyDeviceToHost(b); err != nil {
		t.Fatal(err)
	}
	s := d.RecordedStream()
	if s == nil || len(s.Records) == 0 {
		t.Fatal("no stream recorded")
	}
	return d, s
}

// TestReplaySourceMatchesReplay: replaying through the streaming Source
// path (binary-encoded, chunked h2d payloads) must produce the same trace
// and statistics as the materialized Replay path and the live run.
func TestReplaySourceMatchesReplay(t *testing.T) {
	live, s := recordSample(t)

	sliceDev, err := device.NewFromStream(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	sliceDev.EnableTrace()
	if err := cmdstream.Replay(sliceDev, s); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := s.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	src, err := cmdstream.OpenSource(&buf)
	if err != nil {
		t.Fatal(err)
	}
	streamDev, err := device.NewFromHeader(src.Header(), 1)
	if err != nil {
		t.Fatal(err)
	}
	streamDev.EnableTrace()
	if err := cmdstream.ReplaySourceOpts(streamDev, src, cmdstream.ReplayOptions{}); err != nil {
		t.Fatal(err)
	}

	if got, want := streamDev.TraceString(), live.TraceString(); got != want {
		t.Errorf("streaming replay trace diverged from live run:\n got:\n%s\nwant:\n%s", got, want)
	}
	if got, want := streamDev.TraceString(), sliceDev.TraceString(); got != want {
		t.Errorf("streaming replay trace diverged from slice replay:\n got:\n%s\nwant:\n%s", got, want)
	}
	sb, lb := streamDev.Stats().Breakdown(), live.Stats().Breakdown()
	if !reflect.DeepEqual(sb, lb) {
		t.Errorf("stats breakdown diverged:\n got %+v\nwant %+v", sb, lb)
	}
}

// TestReplaySourceUnterminatedScope: a Source that ends inside a repeat
// scope is truncation, and must be rejected as such.
func TestReplaySourceUnterminatedScope(t *testing.T) {
	_, s := recordSample(t)
	// Cut the stream inside the repeat scope.
	cut := -1
	for i, rec := range s.Records {
		if rec.Kind == cmdstream.KindRepeatBegin {
			cut = i + 1
			break
		}
	}
	if cut < 0 {
		t.Fatal("sample has no repeat scope")
	}
	d, err := device.NewFromStream(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	err = cmdstream.ReplaySourceOpts(d, cmdstream.FromRecords(s.Header, s.Records[:cut]), cmdstream.ReplayOptions{})
	if !errors.Is(err, cmdstream.ErrTruncated) {
		t.Errorf("unterminated scope: error %v does not wrap ErrTruncated", err)
	}
}

// TestStartRecordingTo: the device must fan records out to an attached
// sink while also keeping the in-memory recording, and both views must
// agree with the bytes a plain Encode would produce.
func TestStartRecordingTo(t *testing.T) {
	d := newDev(t)
	var binFile, jsonFile bytes.Buffer
	if err := d.StartRecordingTo(cmdstream.NewWriter(&binFile, cmdstream.FormatBinary)); err != nil {
		t.Fatal(err)
	}
	if err := d.StartRecordingTo(cmdstream.NewWriter(&jsonFile, cmdstream.FormatJSON)); err != nil {
		t.Fatal(err)
	}
	d.StartRecording()
	a, err := d.Alloc(8, isa.UInt8)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CopyHostToDevice(a, []int64{1, 2, 3, 4, 5, 6, 7, 255}); err != nil {
		t.Fatal(err)
	}
	if err := d.ExecScalar(isa.OpAdd, a, 1, a); err != nil {
		t.Fatal(err)
	}
	if err := d.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := d.FinishRecording(); err != nil {
		t.Fatal(err)
	}
	s := d.RecordedStream()
	if s == nil {
		t.Fatal("in-memory recording lost when sinks attached")
	}
	var wantBin, wantJSON bytes.Buffer
	if err := s.EncodeBinary(&wantBin); err != nil {
		t.Fatal(err)
	}
	if err := s.Encode(&wantJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(binFile.Bytes(), wantBin.Bytes()) {
		t.Error("streamed binary bytes differ from Encode of the in-memory recording")
	}
	if !bytes.Equal(jsonFile.Bytes(), wantJSON.Bytes()) {
		t.Error("streamed JSON bytes differ from Encode of the in-memory recording")
	}
}

// TestCopyHostToDeviceFrom: the chunked upload must behave exactly like the
// one-shot CopyHostToDevice — same device data, same stats, same recorded
// payload — and reject short or oversized chunk streams.
func TestCopyHostToDeviceFrom(t *testing.T) {
	const n = 1000
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i * 37)
	}
	chunks := func(sizes ...int) func() ([]int64, error) {
		off := 0
		i := 0
		return func() ([]int64, error) {
			if i >= len(sizes) || off >= len(vals) {
				return nil, io.EOF
			}
			c := vals[off:min(off+sizes[i], len(vals))]
			off += len(c)
			i++
			return c, nil
		}
	}

	ref := newDev(t)
	ref.StartRecording()
	refObj, err := ref.Alloc(n, isa.Int16)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.CopyHostToDevice(refObj, vals); err != nil {
		t.Fatal(err)
	}

	got := newDev(t)
	got.StartRecording()
	gotObj, err := got.Alloc(n, isa.Int16)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.CopyHostToDeviceFrom(gotObj, chunks(100, 500, 399, 1)); err != nil {
		t.Fatal(err)
	}

	refData, err := ref.CopyDeviceToHost(refObj)
	if err != nil {
		t.Fatal(err)
	}
	gotData, err := got.CopyDeviceToHost(gotObj)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(refData, gotData) {
		t.Error("chunked upload produced different device data")
	}
	if !reflect.DeepEqual(ref.Stats().Breakdown(), got.Stats().Breakdown()) {
		t.Error("chunked upload produced different stats")
	}
	// The recorded h2d payloads must match too (the chunked path buffers
	// the pre-truncation values just like the one-shot path).
	rs, gs := ref.RecordedStream(), got.RecordedStream()
	if !reflect.DeepEqual(rs.Records[1].Data, gs.Records[1].Data) {
		t.Error("chunked upload recorded a different payload")
	}

	// Short chunk stream: fewer elements than the object holds.
	short := newDev(t)
	o, err := short.Alloc(n, isa.Int16)
	if err != nil {
		t.Fatal(err)
	}
	if err := short.CopyHostToDeviceFrom(o, chunks(100)); err == nil {
		t.Error("short chunk stream accepted")
	}
	// Oversized chunk stream: more elements than the object holds.
	over := newDev(t)
	o2, err := over.Alloc(10, isa.Int16)
	if err != nil {
		t.Fatal(err)
	}
	if err := over.CopyHostToDeviceFrom(o2, chunks(100)); err == nil {
		t.Error("oversized chunk stream accepted")
	}
}

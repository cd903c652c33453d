package cmdstream_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"pimeval/internal/cmdstream"
	"pimeval/internal/device"
	"pimeval/internal/dram"
	"pimeval/internal/isa"
)

// fullStream builds a stream exercising every record kind, every exec form,
// every element type, payload edge cases (empty, narrow-packed, and a
// raw64 fallback where a value does not fit its object's element width),
// and floats with no short decimal form.
func fullStream() *cmdstream.Stream {
	types := []string{"int8", "int16", "int32", "int64", "uint8", "uint16", "uint32", "uint64"}
	s := &cmdstream.Stream{
		Header: cmdstream.Header{
			Version:    cmdstream.Version,
			Target:     "fulcrum",
			TargetID:   1,
			Module:     dram.DDR4(2),
			Functional: true,
		},
	}
	seq := int64(0)
	add := func(rec cmdstream.Record) {
		seq++
		rec.Seq = seq
		s.Records = append(s.Records, rec)
	}
	rng := rand.New(rand.NewSource(7))
	for i, typ := range types {
		obj := int64(i + 1)
		data := make([]int64, 64)
		for j := range data {
			// Values that fit the element width, including negatives for
			// the signed types (sign-extension must round-trip).
			data[j] = rng.Int63() % 100
			if typ[0] == 'i' && j%2 == 1 {
				data[j] = -data[j]
			}
		}
		add(cmdstream.Record{Kind: cmdstream.KindAlloc, Obj: obj, Type: typ, N: 64})
		add(cmdstream.Record{Kind: cmdstream.KindCopyH2D, Obj: obj, Data: data})
	}
	// Payload-less h2d (model-only recording) and a payload that does not
	// fit its object's width (forces the raw64 fallback).
	add(cmdstream.Record{Kind: cmdstream.KindCopyH2D, Obj: 1})
	add(cmdstream.Record{Kind: cmdstream.KindCopyH2D, Obj: 5, Data: []int64{123456789, -5}})
	// A payload for an object with no preceding alloc (untracked type).
	add(cmdstream.Record{Kind: cmdstream.KindCopyH2D, Obj: 99, Data: []int64{1, 2, 3}})

	add(cmdstream.Record{Kind: cmdstream.KindExec, Form: cmdstream.FormBinary,
		Op: "add", Type: "int32", N: 64, A: 3, B: 3, Dst: 3})
	add(cmdstream.Record{Kind: cmdstream.KindExec, Form: cmdstream.FormScalar,
		Op: "mul", Type: "int16", N: 64, A: 2, Dst: 2, Scalar: -7})
	add(cmdstream.Record{Kind: cmdstream.KindExec, Form: cmdstream.FormUnary,
		Op: "not", Type: "uint8", N: 64, A: 5, Dst: 5})
	add(cmdstream.Record{Kind: cmdstream.KindExec, Form: cmdstream.FormShift,
		Op: "shift.l", Type: "uint32", N: 64, A: 7, Dst: 7, Amount: 3})
	add(cmdstream.Record{Kind: cmdstream.KindExec, Form: cmdstream.FormSelect,
		Op: "select", Type: "int64", N: 64, Cond: 4, A: 4, B: 4, Dst: 4})
	add(cmdstream.Record{Kind: cmdstream.KindExec, Form: cmdstream.FormBroadcast,
		Op: "broadcast", Type: "int8", N: 64, Dst: 1, Scalar: -128})
	add(cmdstream.Record{Kind: cmdstream.KindRepeatBegin, Repeat: 9})
	add(cmdstream.Record{Kind: cmdstream.KindExec, Form: cmdstream.FormRedSum,
		Op: "redsum", Type: "int32", N: 64, A: 3, Result: -123456789})
	add(cmdstream.Record{Kind: cmdstream.KindRepeatEnd})
	add(cmdstream.Record{Kind: cmdstream.KindExec, Form: cmdstream.FormRedSumSeg,
		Op: "redsum.seg", Type: "int32", N: 64, A: 3, SegLen: 16,
		Results: []int64{1, -2, 3, -4}})
	add(cmdstream.Record{Kind: cmdstream.KindExec, Form: cmdstream.FormFused,
		Form1: cmdstream.FormBinary, Form2: cmdstream.FormScalar,
		Op: "add", Op2: "mul", Type: "int32", N: 64, A: 3, B: 3, Dst: 3,
		Scalar: 0, Scalar2: 5})
	add(cmdstream.Record{Kind: cmdstream.KindExec, Form: cmdstream.FormFused,
		Form1: cmdstream.FormScalar, Form2: cmdstream.FormBinary,
		Op: "mul", Op2: "add", Type: "int32", N: 64, A: 3, B: 3, Dst: 3,
		Scalar: -3, Scalar2: 0})
	add(cmdstream.Record{Kind: cmdstream.KindCopyD2D, Src: 3, Dst: 4})
	add(cmdstream.Record{Kind: cmdstream.KindCopyD2DRange, Src: 3, SrcOff: 8, Dst: 4, DstOff: 16, N: 32})
	add(cmdstream.Record{Kind: cmdstream.KindCopyD2H, Obj: 3})
	add(cmdstream.Record{Kind: cmdstream.KindHost, TimeNS: 1.0 / 3.0, EnergyPJ: math.Pi * 1e6})
	for i := len(types); i >= 1; i-- {
		add(cmdstream.Record{Kind: cmdstream.KindFree, Obj: int64(i)})
	}
	return s
}

// TestBinaryRoundTrip proves the binary encoding lossless: encode → decode
// must reproduce every record exactly (the same DeepEqual contract the JSON
// round-trip test enforces), and re-encoding the decoded stream must be
// byte-identical.
func TestBinaryRoundTrip(t *testing.T) {
	for name, s := range map[string]*cmdstream.Stream{"sample": sampleStream(), "full": fullStream()} {
		var buf bytes.Buffer
		if err := s.EncodeBinary(&buf); err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		got, err := cmdstream.Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Errorf("%s: binary round trip differs:\n got %+v\nwant %+v", name, got, s)
		}
		var buf2 bytes.Buffer
		if err := got.EncodeBinary(&buf2); err != nil {
			t.Fatalf("%s: re-encode: %v", name, err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Errorf("%s: re-encoding is not byte-identical (%d vs %d bytes)", name, buf.Len(), buf2.Len())
		}
	}
}

// TestBinaryGoldenBytes pins the PIMB encoding of fullStream byte for byte.
// Streams and journals written by earlier builds must keep decoding, so the
// wire format may not drift.
func TestBinaryGoldenBytes(t *testing.T) {
	var buf bytes.Buffer
	if err := fullStream().EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got, want := hex.EncodeToString(sum[:]), "55f7c77c15c21a941a36e1f3e4d1de68078bd51aef1f41f1c33c72e5f5348804"; got != want {
		t.Errorf("PIMB encoding of fullStream changed: sha256 %s, want %s", got, want)
	}
}

// TestBinaryMatchesJSON proves cross-format identity: the binary decode of
// a stream equals the JSON decode of the same stream, record for record.
func TestBinaryMatchesJSON(t *testing.T) {
	s := fullStream()
	var jbuf, bbuf bytes.Buffer
	if err := s.Encode(&jbuf); err != nil {
		t.Fatal(err)
	}
	if err := s.EncodeBinary(&bbuf); err != nil {
		t.Fatal(err)
	}
	fromJSON, err := cmdstream.Decode(&jbuf)
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := cmdstream.Decode(&bbuf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromJSON, fromBin) {
		t.Errorf("binary and JSON decodes differ:\n json %+v\n bin  %+v", fromJSON, fromBin)
	}
}

// TestBinarySizeRatio pins the headline size claim: on a payload-bearing
// recorded stream of 8-bit elements (packed 1 byte/element against JSON's
// decimal int64s) interleaved with exec records (one-byte enums against
// JSON's field names and mnemonics), the binary encoding is at least 4x
// smaller.
func TestBinarySizeRatio(t *testing.T) {
	s := &cmdstream.Stream{Header: fullStream().Header}
	rng := rand.New(rand.NewSource(3))
	const n = 4096
	data := make([]int64, n)
	for i := range data {
		data[i] = rng.Int63() & 0xFF
	}
	seq := int64(0)
	add := func(rec cmdstream.Record) {
		seq++
		rec.Seq = seq
		s.Records = append(s.Records, rec)
	}
	add(cmdstream.Record{Kind: cmdstream.KindAlloc, Obj: 1, Type: "uint8", N: n})
	add(cmdstream.Record{Kind: cmdstream.KindAlloc, Obj: 2, Type: "uint8", N: n})
	add(cmdstream.Record{Kind: cmdstream.KindCopyH2D, Obj: 1, Data: data})
	add(cmdstream.Record{Kind: cmdstream.KindCopyH2D, Obj: 2, Data: data})
	// An iterative 8-bit kernel: the exec-record mix of a real recorded
	// benchmark, where the binary form's dense enums pay off hardest.
	for i := 0; i < 64; i++ {
		add(cmdstream.Record{Kind: cmdstream.KindExec, Form: cmdstream.FormBinary,
			Op: "add", Type: "uint8", N: n, A: 1, B: 2, Dst: 2})
		add(cmdstream.Record{Kind: cmdstream.KindExec, Form: cmdstream.FormShift,
			Op: "shift.r", Type: "uint8", N: n, A: 2, Dst: 2, Amount: 1})
		add(cmdstream.Record{Kind: cmdstream.KindExec, Form: cmdstream.FormScalar,
			Op: "and", Type: "uint8", N: n, A: 2, Dst: 2, Scalar: 0x7F})
	}
	add(cmdstream.Record{Kind: cmdstream.KindExec, Form: cmdstream.FormRedSum,
		Op: "redsum", Type: "uint8", N: n, A: 2, Result: 12345})
	add(cmdstream.Record{Kind: cmdstream.KindCopyD2H, Obj: 2})
	add(cmdstream.Record{Kind: cmdstream.KindFree, Obj: 1})
	add(cmdstream.Record{Kind: cmdstream.KindFree, Obj: 2})

	var jbuf, bbuf bytes.Buffer
	if err := s.Encode(&jbuf); err != nil {
		t.Fatal(err)
	}
	if err := s.EncodeBinary(&bbuf); err != nil {
		t.Fatal(err)
	}
	ratio := float64(jbuf.Len()) / float64(bbuf.Len())
	t.Logf("JSON %d B, binary %d B, ratio %.2fx (%d records)", jbuf.Len(), bbuf.Len(), ratio, len(s.Records))
	if ratio < 4.0 {
		t.Errorf("binary encoding only %.2fx smaller than JSON, want >= 4x", ratio)
	}
	got, err := cmdstream.Decode(&bbuf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Error("ratio stream does not round-trip")
	}
}

// TestBinaryTruncation cuts a binary stream at hostile offsets — inside the
// magic/header, inside a record, and inside a payload frame — and demands
// the sentinel ErrTruncated every time.
func TestBinaryTruncation(t *testing.T) {
	s := fullStream()
	var buf bytes.Buffer
	if err := s.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Locate the payload region of the first h2d record: it follows the
	// first alloc record, so cutting at header-end + a small offset lands
	// mid-record, and a cut far before the end lands mid-payload.
	cases := map[string]int{
		"mid-magic":   2,
		"mid-header":  8,
		"mid-record":  headerEnd(t, full) + 3,
		"mid-payload": headerEnd(t, full) + 20,
		"mid-stream":  len(full) / 2,
		"no-marker":   len(full) - 1,
	}
	for name, cut := range cases {
		_, err := cmdstream.Decode(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Errorf("%s (cut at %d): truncated stream decoded without error", name, cut)
			continue
		}
		if !errors.Is(err, cmdstream.ErrTruncated) {
			t.Errorf("%s (cut at %d): error %v does not wrap ErrTruncated", name, cut, err)
		}
	}
}

// headerEnd returns the offset just past the encoded header blob: magic,
// version byte, uvarint length, and the length itself.
func headerEnd(t *testing.T, b []byte) int {
	t.Helper()
	off := len("PIMB") + 1
	hlen, n := uvarintAt(b, off)
	if n <= 0 {
		t.Fatal("bad header length varint")
	}
	return off + n + int(hlen)
}

func uvarintAt(b []byte, off int) (uint64, int) {
	var v uint64
	for i := 0; ; i++ {
		if off+i >= len(b) || i > 9 {
			return 0, -1
		}
		c := b[off+i]
		v |= uint64(c&0x7F) << (7 * i)
		if c < 0x80 {
			return v, i + 1
		}
	}
}

// TestJSONTruncation cuts the JSON encoding mid-header and mid-record; the
// decode error must wrap ErrTruncated, not surface as a bare unmarshal
// failure.
func TestJSONTruncation(t *testing.T) {
	s := sampleStream()
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{5, 40, len(full) / 2, len(full) - 3} {
		_, err := cmdstream.Decode(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Errorf("cut at %d: truncated stream decoded without error", cut)
			continue
		}
		if !errors.Is(err, cmdstream.ErrTruncated) {
			t.Errorf("cut at %d: error %v does not wrap ErrTruncated", cut, err)
		}
	}
}

// TestDecodeRejectsGarbage: input that is neither JSON nor binary fails
// with ErrFormat; an empty input is truncation.
func TestDecodeRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"PIMX1234", "hello world", "\x00\x01\x02"} {
		_, err := cmdstream.Decode(bytes.NewReader([]byte(bad)))
		if !errors.Is(err, cmdstream.ErrFormat) {
			t.Errorf("%q: error %v does not wrap ErrFormat", bad, err)
		}
	}
	if _, err := cmdstream.Decode(bytes.NewReader(nil)); !errors.Is(err, cmdstream.ErrTruncated) {
		t.Errorf("empty input: error %v does not wrap ErrTruncated", err)
	}
	// A bad binary version byte is a distinct, explicit error.
	if _, err := cmdstream.Decode(bytes.NewReader([]byte("PIMB\x02rest"))); err == nil ||
		errors.Is(err, cmdstream.ErrFormat) {
		t.Errorf("bad version: want explicit version error, got %v", err)
	}
}

// mergedFrameEncoding encodes a 262144-element int8 h2d payload, then merges
// its two canonical 131072-element frames into one frame. The result is a
// valid, non-canonical stream: decoders accept frames up to 2Mi elements.
func mergedFrameEncoding(tb testing.TB) []byte {
	const n, frame = 262144, 131072
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(int8(i*7 - 3))
	}
	s := &cmdstream.Stream{Header: fullStream().Header, Records: []cmdstream.Record{
		{Seq: 1, Kind: cmdstream.KindAlloc, Obj: 1, Type: "int8", N: n},
		{Seq: 2, Kind: cmdstream.KindCopyH2D, Obj: 1, Data: data},
	}}
	var buf bytes.Buffer
	if err := s.EncodeBinary(&buf); err != nil {
		tb.Fatal(err)
	}
	enc := buf.Bytes()
	hdr := binary.AppendUvarint(nil, frame)
	i := bytes.Index(enc, hdr)
	second := i + len(hdr) + frame
	if i < 0 || !bytes.Equal(enc[second:second+len(hdr)], hdr) {
		tb.Fatal("encoding does not hold two full payload frames")
	}
	merged := append([]byte(nil), enc[:i]...)
	merged = binary.AppendUvarint(merged, n)
	merged = append(merged, enc[i+len(hdr):second]...)
	return append(merged, enc[second+len(hdr):]...)
}

// FuzzBinaryRoundTrip feeds arbitrary bytes to the binary decoder. Any
// input that decodes must round-trip: re-encoding reaches a fixpoint within
// one iteration (encode(decode(x)) is canonical), the canonical bytes
// decode back to identical records, and the JSON transcoding of those
// records decodes identically too.
func FuzzBinaryRoundTrip(f *testing.F) {
	for _, s := range []*cmdstream.Stream{sampleStream(), fullStream()} {
		var buf bytes.Buffer
		if err := s.EncodeBinary(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("PIMB\x01"))
	f.Add(mergedFrameEncoding(f))
	f.Fuzz(func(t *testing.T, in []byte) {
		src, err := cmdstream.OpenSource(bytes.NewReader(in))
		if err != nil {
			return
		}
		s, err := cmdstream.Collect(src)
		if err != nil {
			return
		}
		// e1 is the canonical encoding of the decoded records (hostile
		// inputs may use non-canonical payload frame boundaries, so the
		// input bytes themselves need not be canonical).
		var e1 bytes.Buffer
		if err := s.EncodeBinary(&e1); err != nil {
			t.Fatalf("decoded stream failed to encode: %v", err)
		}
		s2, err := cmdstream.Decode(bytes.NewReader(e1.Bytes()))
		if err != nil {
			// Decode runs Stream.Validate; a structurally invalid stream
			// (unbalanced scopes) re-decodes with that error only.
			if s.Validate() != nil {
				return
			}
			t.Fatalf("canonical encoding failed to decode: %v", err)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("binary round trip diverged:\n  %+v\n  %+v", s, s2)
		}
		var e2 bytes.Buffer
		if err := s2.EncodeBinary(&e2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(e1.Bytes(), e2.Bytes()) {
			t.Fatal("canonical encoding is not a fixpoint")
		}
		// Cross-format: JSON transcoding preserves every record.
		var j bytes.Buffer
		if err := s.Encode(&j); err != nil {
			t.Fatal(err)
		}
		s3, err := cmdstream.Decode(&j)
		if err != nil {
			if s.Validate() != nil {
				return
			}
			t.Fatalf("JSON transcoding failed to decode: %v", err)
		}
		if !streamsEquivalent(s, s3) {
			t.Fatalf("JSON transcoding diverged:\n  %+v\n  %+v", s, s3)
		}
	})
}

// streamsEquivalent compares streams modulo JSON's nil/empty-slice
// collapse: a zero-length Data/Results slice encodes as an omitted field
// and decodes as nil.
func streamsEquivalent(a, b *cmdstream.Stream) bool {
	if len(a.Records) != len(b.Records) || !reflect.DeepEqual(a.Header, b.Header) {
		return false
	}
	for i := range a.Records {
		ra, rb := a.Records[i], b.Records[i]
		if len(ra.Data) == 0 && len(rb.Data) == 0 {
			ra.Data, rb.Data = nil, nil
		}
		if len(ra.Results) == 0 && len(rb.Results) == 0 {
			ra.Results, rb.Results = nil, nil
		}
		if !reflect.DeepEqual(ra, rb) {
			return false
		}
	}
	return true
}

// benchStream builds the benchmark workload: a payload-heavy functional
// recording (1M int32 elements uploaded, exec records interleaved).
func benchStream() *cmdstream.Stream {
	s := &cmdstream.Stream{Header: fullStream().Header}
	rng := rand.New(rand.NewSource(11))
	const n = 1 << 20
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(int32(rng.Int63()))
	}
	s.Records = append(s.Records,
		cmdstream.Record{Seq: 1, Kind: cmdstream.KindAlloc, Obj: 1, Type: "int32", N: n},
		cmdstream.Record{Seq: 2, Kind: cmdstream.KindCopyH2D, Obj: 1, Data: data},
		cmdstream.Record{Seq: 3, Kind: cmdstream.KindExec, Form: cmdstream.FormBinary,
			Op: "add", Type: "int32", N: n, A: 1, B: 1, Dst: 1},
		cmdstream.Record{Seq: 4, Kind: cmdstream.KindCopyD2H, Obj: 1},
		cmdstream.Record{Seq: 5, Kind: cmdstream.KindFree, Obj: 1},
	)
	return s
}

// recordStream builds the record-heavy workload: about 300k small records
// with no payload (binary and scalar execs plus ranged copies), so the
// per-record codec cost is what the benchmarks see.
func recordStream() *cmdstream.Stream {
	s := &cmdstream.Stream{Header: fullStream().Header}
	add := func(rec cmdstream.Record) {
		rec.Seq = int64(len(s.Records) + 1)
		s.Records = append(s.Records, rec)
	}
	for obj := int64(1); obj <= 3; obj++ {
		add(cmdstream.Record{Kind: cmdstream.KindAlloc, Obj: obj, Type: "int32", N: 4096})
	}
	for i := int64(0); len(s.Records) < 300_000; i++ {
		add(cmdstream.Record{Kind: cmdstream.KindExec, Form: cmdstream.FormBinary,
			Op: "add", Type: "int32", N: 4096, A: 1, B: 2, Dst: 3})
		add(cmdstream.Record{Kind: cmdstream.KindExec, Form: cmdstream.FormScalar,
			Op: "mul", Type: "int32", N: 4096, A: 3, Dst: 1, Scalar: i - 500})
		add(cmdstream.Record{Kind: cmdstream.KindCopyD2DRange, Src: 1, SrcOff: i % 64, Dst: 2, DstOff: 7, N: 1024})
	}
	return s
}

func benchEncode(b *testing.B, s *cmdstream.Stream, f cmdstream.Format) {
	var buf bytes.Buffer
	if err := s.EncodeFormat(&buf, f); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := s.EncodeFormat(&buf, f); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len())/float64(len(s.Records)), "bytes/record")
}

func benchDecode(b *testing.B, s *cmdstream.Stream, f cmdstream.Format) {
	var buf bytes.Buffer
	if err := s.EncodeFormat(&buf, f); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := cmdstream.OpenSource(bytes.NewReader(buf.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		for {
			rec, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			if err := cmdstream.Materialize(src, rec); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkBinaryStreamEncode(b *testing.B) { benchEncode(b, benchStream(), cmdstream.FormatBinary) }
func BenchmarkBinaryStreamDecode(b *testing.B) { benchDecode(b, benchStream(), cmdstream.FormatBinary) }
func BenchmarkJSONStreamEncode(b *testing.B)   { benchEncode(b, benchStream(), cmdstream.FormatJSON) }
func BenchmarkJSONStreamDecode(b *testing.B)   { benchDecode(b, benchStream(), cmdstream.FormatJSON) }

func BenchmarkBinaryStreamRecordsEncode(b *testing.B) {
	benchEncode(b, recordStream(), cmdstream.FormatBinary)
}
func BenchmarkBinaryStreamRecordsDecode(b *testing.B) {
	benchDecode(b, recordStream(), cmdstream.FormatBinary)
}

// TestBinaryRejectsBadFields drives both codec directions at every enum
// slot and every non-negative field. The encoder must reject the record
// without writing any of its bytes, so the stream stays decodable; the
// decoder must fail with an error, never a panic or a truncation report.
func TestBinaryRejectsBadFields(t *testing.T) {
	h := fullStream().Header
	first := cmdstream.Record{Seq: 1, Kind: cmdstream.KindAlloc, Obj: 1, Type: "int32", N: 8}
	last := cmdstream.Record{Seq: 2, Kind: cmdstream.KindExec, Form: cmdstream.FormBinary,
		Op: "add", Type: "int32", N: 8, A: 1, B: 1, Dst: 1}
	fused := cmdstream.Record{Seq: 2, Kind: cmdstream.KindExec, Form: cmdstream.FormFused,
		Form1: cmdstream.FormBinary, Form2: cmdstream.FormScalar, Op: "add", Op2: "mul",
		Type: "int32", N: 8, A: 1, B: 1, Dst: 1, Scalar2: 3}
	bad := map[string]func(r *cmdstream.Record){
		"kind":     func(r *cmdstream.Record) { r.Kind = "bogus" },
		"form":     func(r *cmdstream.Record) { r.Form = "bogus" },
		"form1":    func(r *cmdstream.Record) { r.Form1 = "bogus" },
		"form2":    func(r *cmdstream.Record) { r.Form2 = "bogus" },
		"op":       func(r *cmdstream.Record) { r.Op = "bogus" },
		"op2":      func(r *cmdstream.Record) { r.Op2 = "bogus" },
		"type":     func(r *cmdstream.Record) { r.Type = "int3" },
		"seq":      func(r *cmdstream.Record) { r.Seq = -1 },
		"obj":      func(r *cmdstream.Record) { *r = first; r.Obj = -1 },
		"n":        func(r *cmdstream.Record) { r.N = -1 },
		"operand":  func(r *cmdstream.Record) { r.B = -2 },
		"seglen":   func(r *cmdstream.Record) { r.Form, r.Op, r.SegLen = cmdstream.FormRedSumSeg, "redsum.seg", -4 },
		"alloc-ty": func(r *cmdstream.Record) { *r = first; r.Type = "float" },
	}
	for name, mutate := range bad {
		rec := fused
		mutate(&rec)
		var buf bytes.Buffer
		w := cmdstream.NewWriter(&buf, cmdstream.FormatBinary)
		if err := w.Begin(h); err != nil {
			t.Fatal(err)
		}
		if err := w.Write(&first); err != nil {
			t.Fatal(err)
		}
		if err := w.Write(&rec); err == nil {
			t.Errorf("encode %s: bad record %+v accepted", name, rec)
		}
		if err := w.Write(&last); err != nil {
			t.Fatalf("encode %s: valid record after rejection: %v", name, err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := cmdstream.Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("encode %s: stream after rejection does not decode: %v", name, err)
		}
		if want := []cmdstream.Record{first, last}; !reflect.DeepEqual(got.Records, want) {
			t.Errorf("encode %s: decoded %+v, want %+v", name, got.Records, want)
		}
	}

	// Hand-built record bodies, each followed by the end marker. off is
	// the byte of the body that a decode case overwrites.
	var head bytes.Buffer
	if err := (&cmdstream.Stream{Header: h}).EncodeBinary(&head); err != nil {
		t.Fatal(err)
	}
	prefix := head.Bytes()[:head.Len()-1]
	// Fused exec: kind 7, seq 1, form 9, form1 1, form2 2, op 0, op2 2,
	// type 2, n 8, a, b, dst, scalar, scalar2.
	fusedBody := []byte{7, 1, 9, 1, 2, 0, 2, 2, 8, 1, 1, 1, 0, 6}
	// h2d with an int8 payload of one element: kind 3, seq 1, obj 1,
	// flag 1, type 0, frame of 1, element, end frame.
	h2dBody := []byte{3, 1, 1, 1, 0, 1, 5, 0}
	decode := []struct {
		name string
		body []byte
		off  int
		code byte
	}{
		{"kind", fusedBody, 0, 0xEE},
		{"form", fusedBody, 2, 0xEE},
		{"form-unused", fusedBody, 2, 0},
		{"form1", fusedBody, 3, 0xEE},
		{"form2", fusedBody, 4, 0xEE},
		{"op", fusedBody, 5, 0xEE},
		{"op2", fusedBody, 6, 0xEE},
		{"type", fusedBody, 7, 0xEE},
		{"payload flag", h2dBody, 3, 2},
		{"payload type", h2dBody, 4, 0xEE},
	}
	for _, body := range [][]byte{fusedBody, h2dBody} {
		in := append(append(append([]byte(nil), prefix...), body...), 0)
		if _, err := cmdstream.Decode(bytes.NewReader(in)); err != nil {
			t.Fatalf("unmutated body %v does not decode: %v", body, err)
		}
	}
	for _, c := range decode {
		body := append([]byte(nil), c.body...)
		body[c.off] = c.code
		in := append(append(append([]byte(nil), prefix...), body...), 0)
		_, err := cmdstream.Decode(bytes.NewReader(in))
		if err == nil || errors.Is(err, cmdstream.ErrTruncated) {
			t.Errorf("decode %s code %#x: err = %v, want a field error", c.name, c.code, err)
		}
	}
	// A uvarint field above MaxInt64, at a free record's seq and at its obj.
	over := binary.AppendUvarint(nil, 1<<63)
	for _, body := range [][]byte{
		append(append([]byte{2}, over...), 1), // free: seq, obj
		append([]byte{2, 1}, over...),         // free: seq, obj
	} {
		in := append(append(append([]byte(nil), prefix...), body...), 0)
		_, err := cmdstream.Decode(bytes.NewReader(in))
		if err == nil || errors.Is(err, cmdstream.ErrTruncated) {
			t.Errorf("decode uvarint above MaxInt64 in %v: err = %v, want an overflow error", body, err)
		}
	}
}

// TestBinaryWriterPackedPayload: the writer emits a packed payload of its
// object's tracked type as it is, recut to the canonical frame size, and
// widens any other through the Fits path — so every form of one payload
// encodes to the same bytes as its int64 carriers. A packed payload the
// wire cannot carry is an error, not a panic.
func TestBinaryWriterPackedPayload(t *testing.T) {
	const n = 1<<17 + 1000 // spans two canonical frames
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i%60000) - 30000
	}
	pack := func(dt isa.DataType, cuts ...int) *cmdstream.Payload {
		p := &cmdstream.Payload{Type: dt}
		for lo := 0; lo < n; {
			hi := n
			if len(cuts) > 0 {
				hi, cuts = min(lo+cuts[0], n), cuts[1:]
			}
			f := make([]byte, (hi-lo)*dt.Bytes())
			dt.Pack(f, vals[lo:hi])
			p.Frames = append(p.Frames, f)
			lo = hi
		}
		return p
	}
	encode := func(h2d cmdstream.Record) ([]byte, error) {
		h2d.Seq, h2d.Kind, h2d.Obj = 2, cmdstream.KindCopyH2D, 1
		var buf bytes.Buffer
		err := (&cmdstream.Stream{Header: fullStream().Header, Records: []cmdstream.Record{
			{Seq: 1, Kind: cmdstream.KindAlloc, Obj: 1, Type: "int16", N: n}, h2d,
		}}).EncodeBinary(&buf)
		return buf.Bytes(), err
	}
	want, err := encode(cmdstream.Record{Data: vals})
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]*cmdstream.Payload{
		"in-type canonical": pack(isa.Int16),
		"in-type ragged":    pack(isa.Int16, 5, 1<<17, 77),
		"raw int64":         pack(isa.Int64, 1000),
		"int32":             pack(isa.Int32),
	} {
		got, err := encode(cmdstream.Record{Packed: p})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: packed payload encodes differently from its carriers", name)
		}
	}
	for name, p := range map[string]*cmdstream.Payload{
		"invalid type":  {Type: isa.DataType(99), Frames: [][]byte{{1, 2, 3}}},
		"partial frame": {Type: isa.Int16, Frames: [][]byte{{1, 2, 3}}},
		"partial raw":   {Type: isa.Int64, Frames: [][]byte{{1, 2, 3}}},
	} {
		if _, err := encode(cmdstream.Record{Packed: p}); !errors.Is(err, cmdstream.ErrFormat) {
			t.Errorf("%s: got %v, want ErrFormat", name, err)
		}
	}
}

// TestPumpMatchesReRecording: transcoding a PIMB stream (Pump, which
// materializes payloads at element width) and re-recording its replay
// (the device records in-type frames packed) both reproduce the stream's
// bytes exactly, raw int64 fallback payloads included.
func TestPumpMatchesReRecording(t *testing.T) {
	d := newDev(t)
	d.StartRecording()
	const n = 1<<17 + 300
	for i, dt := range []isa.DataType{isa.UInt8, isa.Int16, isa.Int32, isa.Int64} {
		id, err := d.Alloc(n, dt)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]int64, n)
		for j := range vals {
			vals[j] = dt.Truncate(int64(j*(i+3)) * 40503)
		}
		if i == 1 {
			vals[n-1] = 1 << 40 // does not fit int16: the raw fallback
		}
		if err := d.CopyHostToDevice(id, vals); err != nil {
			t.Fatal(err)
		}
		if err := d.WithRepeat(2, func() error { return d.CopyHostToDevice(id, vals) }); err != nil {
			t.Fatal(err)
		}
	}
	var enc bytes.Buffer
	if err := d.RecordedStream().EncodeBinary(&enc); err != nil {
		t.Fatal(err)
	}
	open := func() cmdstream.Source {
		src, err := cmdstream.OpenSource(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	var pumped bytes.Buffer
	if err := cmdstream.Pump(cmdstream.NewWriter(&pumped, cmdstream.FormatBinary), open()); err != nil {
		t.Fatal(err)
	}
	src := open()
	r, err := device.NewFromHeader(src.Header(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var rerecorded bytes.Buffer
	if err := r.StartRecordingTo(cmdstream.NewWriter(&rerecorded, cmdstream.FormatBinary)); err != nil {
		t.Fatal(err)
	}
	if err := cmdstream.ReplaySourceOpts(r, src, cmdstream.ReplayOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := r.FinishRecording(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pumped.Bytes(), enc.Bytes()) {
		t.Error("Pump transcoding changed the stream's bytes")
	}
	if !bytes.Equal(rerecorded.Bytes(), enc.Bytes()) {
		t.Error("re-recording the replay changed the stream's bytes")
	}
}

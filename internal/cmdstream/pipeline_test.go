package cmdstream_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pimeval/internal/cmdstream"
	"pimeval/internal/device"
	"pimeval/internal/dram"
	"pimeval/internal/isa"
)

// TestPipelineSourceEquivalence: reading a stream through the decode-ahead
// pipeline must produce exactly the records the wrapped source produces, in
// order, for both encodings — including chunked h2d payloads, which
// Materialize reassembles from the forwarded frames. Binary streams are
// also read through both payload faces (packed frames through
// ReadPayloadFrame, or []int64 chunks behind chunkFace) serially and
// pipelined, and include a stream whose
// payload type differs from its object's (a hostile stream); fullStream
// itself carries raw int64 fallback payloads.
func TestPipelineSourceEquivalence(t *testing.T) {
	s := fullStream()
	encode := func(t *testing.T, f cmdstream.Format) []byte {
		var buf bytes.Buffer
		if err := s.EncodeFormat(&buf, f); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	collect := func(t *testing.T, enc []byte, packed, pipelined bool) *cmdstream.Stream {
		src, err := cmdstream.OpenSource(bytes.NewReader(enc))
		if err != nil {
			t.Fatal(err)
		}
		src = faced(src, packed)
		if pipelined {
			ps := cmdstream.NewPipelineSource(src, 4) // tiny depth to force backpressure
			defer func() {
				if err := ps.Close(); err != nil {
					t.Fatal(err)
				}
			}()
			src = ps
		}
		got, err := cmdstream.Collect(src)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	for _, c := range []struct {
		name    string
		hostile bool // decodes to other payload values than s holds
		enc     func(t *testing.T) []byte
	}{
		{"bin", false, func(t *testing.T) []byte { return encode(t, cmdstream.FormatBinary) }},
		{"json", false, func(t *testing.T) []byte { return encode(t, cmdstream.FormatJSON) }},
		{"bin-hostile-paytype", true, func(t *testing.T) []byte {
			// Object 1's first h2d (the pinned wire codes: kind h2d 3,
			// seq 2, obj 1, payload flag 1, type int8 0) relabelled uint8
			// (4): frames of the same width under another type.
			enc := encode(t, cmdstream.FormatBinary)
			at := bytes.Index(enc, []byte{3, 2, 1, 1, 0})
			if at < 0 {
				t.Fatal("object 1's h2d record not found")
			}
			enc[at+4] = 4
			return enc
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			enc := c.enc(t)
			want := collect(t, enc, true, false)
			if streamsEquivalent(want, s) == c.hostile {
				t.Fatalf("serial collect equivalent to the encoded stream: %v, want %v", !c.hostile, c.hostile)
			}
			for _, m := range replayModes {
				if got := collect(t, enc, m.packed, m.pipelined); !streamsEquivalent(want, got) {
					t.Fatalf("%s collect differs from serial collect", m.name)
				}
			}
		})
	}
}

// nextCounter counts the records pulled from the wrapped source, from
// whichever goroutine pulls them.
type nextCounter struct {
	cmdstream.Source
	n atomic.Int64
}

func (c *nextCounter) Next() (*cmdstream.Record, error) {
	c.n.Add(1)
	return c.Source.Next()
}

// TestPipelineSourceBoundsPackedPayloads: materialized records, such as an
// optimizer window's, carry their payloads packed at element width. The
// pipeline charges them by element count (Record.PayloadLen) against its
// inline payload budget, so the producer blocks behind a payload over the
// budget, and a pipelined replay of them is bit-identical to the serial
// one.
func TestPipelineSourceBoundsPackedPayloads(t *testing.T) {
	const n = 8<<20 + 1 // one element over the pipeline's inline budget
	h := fullStream().Header
	var recs []cmdstream.Record
	for obj := int64(1); obj <= 3; obj++ {
		frame := make([]byte, n)
		for i := range frame {
			frame[i] = byte(i*7 + int(obj))
		}
		recs = append(recs,
			cmdstream.Record{Seq: 2*obj - 1, Kind: cmdstream.KindAlloc, Obj: obj, Type: "uint8", N: n},
			cmdstream.Record{Seq: 2 * obj, Kind: cmdstream.KindCopyH2D, Obj: obj,
				Packed: &cmdstream.Payload{Type: isa.UInt8, Frames: [][]byte{frame[:n/2], frame[n/2:]}}})
	}

	counted := &nextCounter{Source: cmdstream.FromRecords(h, recs)}
	ps := cmdstream.NewPipelineSource(counted, 64)
	for i := 0; i < 2; i++ {
		if _, err := ps.Next(); err != nil {
			t.Fatal(err)
		}
	}
	// The consumer holds the first payload: the producer must stop there.
	time.Sleep(50 * time.Millisecond)
	if got := counted.n.Load(); got != 2 {
		t.Errorf("producer pulled %d records while a payload over the budget was in flight, want 2", got)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}

	replay := func(pipelined bool) *device.Device {
		d, err := device.NewFromHeader(h, 1)
		if err != nil {
			t.Fatal(err)
		}
		d.EnableTrace()
		if err := cmdstream.ReplaySourceOpts(d, cmdstream.FromRecords(h, recs), cmdstream.ReplayOptions{Pipelined: pipelined}); err != nil {
			t.Fatal(err)
		}
		return d
	}
	serial, piped := replay(false), replay(true)
	if serial.TraceString() != piped.TraceString() || serial.ReportString() != piped.ReportString() {
		t.Error("pipelined replay of packed payloads diverged from the serial replay")
	}
	for obj := int64(1); obj <= 3; obj++ {
		got, err := piped.CopyDeviceToHost(cmdstream.ObjID(obj))
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if want := int64(byte(i*7 + int(obj))); v != want {
				t.Fatalf("object %d element %d = %d, want %d", obj, i, v, want)
			}
		}
	}
}

// TestPipelineSourceDiscardsPayload: calling Next with an undrained pending
// payload must skip the remaining frames, exactly like the chunked binary
// decoder itself.
func TestPipelineSourceDiscardsPayload(t *testing.T) {
	s := fullStream()
	var buf bytes.Buffer
	if err := s.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	serial, err := cmdstream.OpenSource(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	piped, err := cmdstream.OpenSource(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ps := cmdstream.NewPipelineSource(piped, 2)
	defer ps.Close()
	for {
		wantRec, wantErr := serial.Next()
		gotRec, gotErr := ps.Next()
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("error divergence: serial %v, pipelined %v", wantErr, gotErr)
		}
		if wantErr != nil {
			if wantErr != io.EOF || gotErr != io.EOF {
				t.Fatalf("terminal errors differ: serial %v, pipelined %v", wantErr, gotErr)
			}
			break
		}
		if wantRec.Kind != gotRec.Kind || wantRec.Seq != gotRec.Seq {
			t.Fatalf("record divergence at seq %d/%d (%s vs %s)",
				wantRec.Seq, gotRec.Seq, wantRec.Kind, gotRec.Kind)
		}
		// Never drain payloads: both sources must discard identically.
	}
}

// TestPipelineSourcePropagatesError: a decode failure (truncation) must
// surface through the pipeline, and stay sticky.
func TestPipelineSourcePropagatesError(t *testing.T) {
	s := fullStream()
	var buf bytes.Buffer
	if err := s.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()/2]
	src, err := cmdstream.OpenSource(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	ps := cmdstream.NewPipelineSource(src, 0)
	defer ps.Close()
	var lastErr error
	for {
		_, err := ps.Next()
		if err != nil {
			lastErr = err
			break
		}
		// Drain payloads so truncation mid-payload also surfaces.
		for ps.PendingPayload() {
			if _, err := ps.NextPayloadChunk(); err != nil && err != io.EOF {
				lastErr = err
				break
			}
		}
		if lastErr != nil {
			break
		}
	}
	if !errors.Is(lastErr, cmdstream.ErrTruncated) {
		t.Fatalf("got %v, want ErrTruncated", lastErr)
	}
	if _, err := ps.Next(); !errors.Is(err, cmdstream.ErrTruncated) {
		t.Fatalf("error not sticky: got %v", err)
	}
}

// panicSource is a Source whose Next panics after its first n records.
type panicSource struct {
	cmdstream.Source
	n int
}

func (s *panicSource) Next() (*cmdstream.Record, error) {
	if s.n == 0 {
		panic("poisoned source")
	}
	s.n--
	return s.Source.Next()
}

// TestPipelineSourceRecoversPanic: a panic in the wrapped source runs on the
// decode goroutine, where no caller could recover it; the pipeline must
// surface it as the consumer's next error, after the records before it.
func TestPipelineSourceRecoversPanic(t *testing.T) {
	ps := cmdstream.NewPipelineSource(&panicSource{Source: cmdstream.FromStream(sampleStream()), n: 2}, 0)
	defer ps.Close()
	for i := 0; i < 2; i++ {
		if _, err := ps.Next(); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	_, err := ps.Next()
	if err == nil || err == io.EOF || !strings.Contains(err.Error(), "poisoned source") {
		t.Fatalf("got %v, want the recovered panic", err)
	}
}

// TestPipelineSourceCloseMidStream: closing a pipeline with most of the
// stream unread must return promptly and leave the wrapped source owned by
// the caller (not closed).
func TestPipelineSourceCloseMidStream(t *testing.T) {
	header := cmdstream.Header{
		Version: cmdstream.Version, Target: "fulcrum", TargetID: 1,
		Module: dram.DDR4(1), Functional: true,
	}
	var buf bytes.Buffer
	sink := cmdstream.NewWriter(&buf, cmdstream.FormatBinary)
	if err := sink.Begin(header); err != nil {
		t.Fatal(err)
	}
	data := make([]int64, 1<<16)
	seq := int64(0)
	write := func(rec cmdstream.Record) {
		seq++
		rec.Seq = seq
		if err := sink.Write(&rec); err != nil {
			t.Fatal(err)
		}
	}
	write(cmdstream.Record{Kind: cmdstream.KindAlloc, Obj: 1, Type: "uint8", N: int64(len(data))})
	for i := 0; i < 64; i++ {
		write(cmdstream.Record{Kind: cmdstream.KindCopyH2D, Obj: 1, Data: data})
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	src, err := cmdstream.OpenSource(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ps := cmdstream.NewPipelineSource(src, 2)
	if _, err := ps.Next(); err != nil {
		t.Fatal(err)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatalf("wrapped source unusable after pipeline Close: %v", err)
	}
}

// uint8Upload encodes a stream that allocates an n-element uint8 object
// and uploads a payload to it, packed in canonical frames of 128 KiB.
func uint8Upload(t *testing.T, n int) []byte {
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(uint8(i * 31))
	}
	s := &cmdstream.Stream{Header: fullStream().Header, Records: []cmdstream.Record{
		{Seq: 1, Kind: cmdstream.KindAlloc, Obj: 1, Type: "uint8", N: int64(n)},
		{Seq: 2, Kind: cmdstream.KindCopyH2D, Obj: 1, Data: data},
	}}
	var buf bytes.Buffer
	if err := s.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPipelineSourceFrameBuffersFitFrames: the producer reads each payload
// frame straight into a pipeline frame buffer that grows to the frame's
// size, so pipelining a 2 Mi-element uint8 payload (16 frames of 128 KiB)
// allocates one 128 KiB buffer per token, well under 1 MiB — not a 1 MiB
// buffer per token plus a decoder buffer to copy from.
func TestPipelineSourceFrameBuffersFitFrames(t *testing.T) {
	const n, frameSize = 2 << 20, 128 << 10
	src, err := cmdstream.OpenSource(bytes.NewReader(uint8Upload(t, n)))
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, frameSize)
	frames := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ps := cmdstream.NewPipelineSource(src, 0)
	for {
		rec, err := ps.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for rec.Kind == cmdstream.KindCopyH2D {
			err := ps.ReadPayloadFrame(func(dt isa.DataType, size int, r io.Reader) error {
				if dt != isa.UInt8 || size != frameSize {
					return fmt.Errorf("frame of %d bytes as %v", size, dt)
				}
				_, err := io.ReadFull(r, frame)
				return err
			})
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			for j, b := range frame {
				if want := uint8((frames*frameSize + j) * 31); b != want {
					t.Fatalf("frame %d byte %d = %d, want %d", frames, j, b, want)
				}
			}
			frames++
		}
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if frames != n/frameSize {
		t.Fatalf("drained %d frames, want %d", frames, n/frameSize)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d frames of %d bytes: %.2f MiB allocated", frames, frameSize, float64(got)/(1<<20))
	if got >= 1<<20 {
		t.Errorf("pipelining %d frames of %d bytes allocated %d bytes, want under 1 MiB", frames, frameSize, got)
	}
}

// frameCounter is a nextCounter that forwards the packed payload face, so
// the pipeline streams the wrapped source's payloads frame by frame.
type frameCounter struct{ nextCounter }

func (c *frameCounter) PendingPayload() bool {
	return c.Source.(cmdstream.FrameReader).PendingPayload()
}

func (c *frameCounter) ReadPayloadFrame(fn cmdstream.FrameFunc) error {
	return c.Source.(cmdstream.FrameReader).ReadPayloadFrame(fn)
}

// TestPipelineSourceReadsPastPayloadEnd: with a four-frame payload queued
// and unread, the producer still finds the payload's end and pulls the next
// record, so a consumer that lands the frames finds what follows them
// already decoded. Four frames is what one phase of the benchmark's replay
// trace uploads (two operands of two frames); if seeing the end had to wait
// for the consumer to free a frame buffer, the consumer would stall on the
// decoder once per phase.
func TestPipelineSourceReadsPastPayloadEnd(t *testing.T) {
	const frameElems = 1 << 17 // the encoder's frame size
	src, err := cmdstream.OpenSource(bytes.NewReader(uint8Upload(t, 4*frameElems)))
	if err != nil {
		t.Fatal(err)
	}
	counted := &frameCounter{nextCounter{Source: src}}
	ps := cmdstream.NewPipelineSource(counted, 0)
	defer ps.Close()
	for i := 0; i < 2; i++ {
		if _, err := ps.Next(); err != nil {
			t.Fatal(err)
		}
	}
	// The producer's third Next follows the payload's end (it returns
	// io.EOF: the stream holds the alloc and the h2d only). The consumer
	// reads no frame, so none of the four frame buffers comes back.
	for deadline := time.Now().Add(5 * time.Second); counted.n.Load() < 3; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("producer stopped before the payload's end with four frames in flight")
		}
	}
}

// TestPipelineSourceCloseWithFramesInFlight: when every frame buffer holds
// a frame the consumer has not read and the input stalls mid-payload, Close
// still returns. The producer borrows a buffer before it reads a frame, so
// it waits on the free list, where Close reaches it, not on the input.
func TestPipelineSourceCloseWithFramesInFlight(t *testing.T) {
	const frameElems = 1 << 17 // the encoder's frame size
	const inFlight = cmdstream.PipelineFrameTokens
	enc := uint8Upload(t, 2*inFlight*frameElems)
	// The payload ends with its frames (a uvarint count, then that many
	// bytes), the payload terminator and the end-of-stream marker; deliver
	// one frame per buffer and stop at the next frame's head.
	head := binary.AppendUvarint(nil, frameElems)
	cut := len(enc) - 2 - inFlight*(len(head)+frameElems)
	if !bytes.Equal(enc[len(enc)-2:], []byte{0, 0}) || !bytes.Equal(enc[cut:cut+len(head)], head) {
		t.Fatal("unexpected payload framing")
	}
	pr, pw := io.Pipe()
	defer pw.Close()
	written := make(chan struct{})
	go func() {
		defer close(written)
		pw.Write(enc[:cut])
	}()
	src, err := cmdstream.OpenSource(pr)
	if err != nil {
		t.Fatal(err)
	}
	ps := cmdstream.NewPipelineSource(src, 0)
	for i := 0; i < 2; i++ {
		if _, err := ps.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if !ps.PendingPayload() {
		t.Fatal("h2d record has no pending payload")
	}
	// The producer has read every delivered frame once the writer returns;
	// give it time to queue the last one and reach its next step.
	<-written
	time.Sleep(50 * time.Millisecond)
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		ps.Close()
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Error("Close blocked with every frame buffer in flight and the input stalled")
	}
	pw.CloseWithError(errors.New("input stalled"))
	<-closed
}

// TestReplayPipelinedMatchesSerial replays the same recorded program
// serially and pipelined and compares re-recorded streams — the strongest
// single-package equivalence check (every record, result, and payload must
// match; the suite-level battery in benchmarks/suite/replaytest widens this
// across benchmarks, formats, optimization, and fault configs).
func TestReplayPipelinedMatchesSerial(t *testing.T) {
	_, s := recordSample(t)
	var buf bytes.Buffer
	if err := s.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}

	replay := func(pipelined bool) *cmdstream.Stream {
		t.Helper()
		src, err := cmdstream.OpenSource(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		dev, err := device.NewFromStream(s, 1)
		if err != nil {
			t.Fatal(err)
		}
		dev.StartRecording()
		if pipelined {
			err = cmdstream.ReplaySourceOpts(dev, src, cmdstream.ReplayOptions{Pipelined: true})
		} else {
			err = cmdstream.ReplaySourceOpts(dev, src, cmdstream.ReplayOptions{})
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := dev.FinishRecording(); err != nil {
			t.Fatal(err)
		}
		return dev.RecordedStream()
	}

	want := replay(false)
	got := replay(true)
	if !streamsEquivalent(want, got) {
		t.Fatal("pipelined replay re-recorded a different stream than serial replay")
	}
}

// TestAsyncSinkByteIdentical: pumping a stream through AsyncSink must
// produce byte-identical output to the wrapped writer alone, for both
// encodings.
func TestAsyncSinkByteIdentical(t *testing.T) {
	s := fullStream()
	for _, f := range []cmdstream.Format{cmdstream.FormatBinary, cmdstream.FormatJSON} {
		t.Run(f.String(), func(t *testing.T) {
			var want, got bytes.Buffer
			if err := cmdstream.Pump(cmdstream.NewWriter(&want, f), cmdstream.FromStream(s)); err != nil {
				t.Fatal(err)
			}
			async := cmdstream.NewAsyncSink(cmdstream.NewWriter(&got, f), 8)
			if err := cmdstream.Pump(async, cmdstream.FromStream(s)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want.Bytes(), got.Bytes()) {
				t.Fatal("async sink bytes differ from serial sink bytes")
			}
		})
	}
}

// TestAsyncSinkDeferredError: an encode failure inside the background stage
// must surface by Close (or an earlier Write), matching the recorder's
// deferred-error contract.
func TestAsyncSinkDeferredError(t *testing.T) {
	var buf bytes.Buffer
	async := cmdstream.NewAsyncSink(cmdstream.NewWriter(&buf, cmdstream.FormatBinary), 4)
	if err := async.Begin(fullStream().Header); err != nil {
		t.Fatal(err)
	}
	bad := &cmdstream.Record{Seq: 1, Kind: "no.such.kind"}
	var firstErr error
	if err := async.Write(bad); err != nil {
		firstErr = err
	}
	if err := async.Close(); firstErr == nil {
		firstErr = err
	}
	if firstErr == nil {
		t.Fatal("encode error of an invalid record never surfaced")
	}
}

// pipelineBenchStream encodes an out-of-core style binary workload: iters
// rounds of a chunked h2d upload followed by a small compute kernel (three
// element-wise commands and two verified reductions over the chunk). It is
// the TestOutOfCoreReplay shape with the compute:upload ratio of a real
// replayed benchmark, sized for benchmarking.
func pipelineBenchStream(tb testing.TB, iters int, n int64) (cmdstream.Header, []byte) {
	header := cmdstream.Header{
		Version: cmdstream.Version, Target: "fulcrum", TargetID: 1,
		Module: dram.DDR4(1), Functional: true,
	}
	var buf bytes.Buffer
	sink := cmdstream.NewWriter(&buf, cmdstream.FormatBinary)
	if err := sink.Begin(header); err != nil {
		tb.Fatal(err)
	}
	seq := int64(0)
	emit := func(rec cmdstream.Record) {
		seq++
		rec.Seq = seq
		if err := sink.Write(&rec); err != nil {
			tb.Fatal(err)
		}
	}
	emit(cmdstream.Record{Kind: cmdstream.KindAlloc, Obj: 1, Type: "uint8", N: n})
	emit(cmdstream.Record{Kind: cmdstream.KindAlloc, Obj: 2, Type: "uint8", N: n})
	rng := rand.New(rand.NewSource(42))
	data := make([]int64, n)
	for i := 0; i < iters; i++ {
		sum, sum2 := int64(0), int64(0)
		for j := range data {
			v := rng.Int63() & 0xFF
			data[j] = v
			sum += v
			// Mirror the device kernel below with uint8 wraparound.
			t := (v * 3) & 0xFF
			t = (t + v) & 0xFF
			t ^= 0x5A
			t = (t - v) & 0xFF
			t |= v
			t = (t + 17) & 0xFF
			sum2 += t
		}
		emit(cmdstream.Record{Kind: cmdstream.KindCopyH2D, Obj: 1, Data: data})
		emit(cmdstream.Record{Kind: cmdstream.KindExec, Form: cmdstream.FormScalar,
			Op: "mul", Type: "uint8", N: n, A: 1, Dst: 2, Scalar: 3})
		emit(cmdstream.Record{Kind: cmdstream.KindExec, Form: cmdstream.FormBinary,
			Op: "add", Type: "uint8", N: n, A: 2, B: 1, Dst: 2})
		emit(cmdstream.Record{Kind: cmdstream.KindExec, Form: cmdstream.FormScalar,
			Op: "xor", Type: "uint8", N: n, A: 2, Dst: 2, Scalar: 0x5A})
		emit(cmdstream.Record{Kind: cmdstream.KindExec, Form: cmdstream.FormBinary,
			Op: "sub", Type: "uint8", N: n, A: 2, B: 1, Dst: 2})
		emit(cmdstream.Record{Kind: cmdstream.KindExec, Form: cmdstream.FormBinary,
			Op: "or", Type: "uint8", N: n, A: 2, B: 1, Dst: 2})
		emit(cmdstream.Record{Kind: cmdstream.KindExec, Form: cmdstream.FormScalar,
			Op: "add", Type: "uint8", N: n, A: 2, Dst: 2, Scalar: 17})
		emit(cmdstream.Record{Kind: cmdstream.KindExec, Form: cmdstream.FormRedSum,
			Op: "redsum", Type: "uint8", N: n, A: 1, Result: sum})
		emit(cmdstream.Record{Kind: cmdstream.KindExec, Form: cmdstream.FormRedSum,
			Op: "redsum", Type: "uint8", N: n, A: 2, Result: sum2})
	}
	emit(cmdstream.Record{Kind: cmdstream.KindFree, Obj: 1})
	emit(cmdstream.Record{Kind: cmdstream.KindFree, Obj: 2})
	if err := sink.Close(); err != nil {
		tb.Fatal(err)
	}
	return header, buf.Bytes()
}

// pacedReader throttles reads to a fixed byte rate, modeling a stream that
// arrives from storage or the network rather than RAM — the pimserved
// scenario, and the case where decode-ahead pays most: while the producer
// goroutine waits on "I/O", the scheduler runs the execute stage, so stall
// time is hidden even on a single CPU.
type pacedReader struct {
	r         io.Reader
	bytesPerS float64
	debt      time.Duration
}

func (p *pacedReader) Read(buf []byte) (int, error) {
	n, err := p.r.Read(buf)
	// Each read of n bytes occupies the link for n/bandwidth of wall time.
	// Accumulate the transfer time and sleep in >=2ms slices so scheduler
	// granularity doesn't swamp the model.
	p.debt += time.Duration(float64(n) / p.bytesPerS * 1e9)
	if p.debt >= 2*time.Millisecond {
		t0 := time.Now()
		time.Sleep(p.debt)
		// Deduct what was actually slept: scheduler overshoot is credited
		// against future transfer debt, so the cumulative pace converges on
		// the nominal link rate instead of drifting below it.
		p.debt -= time.Since(t0)
	}
	return n, err
}

// BenchmarkPipelinedReplay compares serial ReplaySourceOpts against its
// Pipelined mode on a payload-heavy binary stream (the out-of-core shape;
// reduction results are verified during replay, so a completed run proves
// bit-identity). MB/s of encoded stream replayed is the headline pipeline
// number. The paced variants feed the stream at 100 MB/s — saturated
// gigabit or remote-storage delivery — where the pipeline hides I/O stalls
// behind execution; the in-memory variants measure raw stage overhead.
func BenchmarkPipelinedReplay(b *testing.B) {
	header, enc := pipelineBenchStream(b, 24, 1<<20)
	const pacedRate = 100e6
	for _, bc := range []struct {
		name      string
		pipelined bool
		paced     bool
	}{
		{"inmem/serial", false, false},
		{"inmem/pipelined", true, false},
		{"paced100MBps/serial", false, true},
		{"paced100MBps/pipelined", true, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(enc)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var r io.Reader = bytes.NewReader(enc)
				if bc.paced {
					r = &pacedReader{r: r, bytesPerS: pacedRate}
				}
				src, err := cmdstream.OpenSource(r)
				if err != nil {
					b.Fatal(err)
				}
				dev, err := device.NewFromHeader(header, 1)
				if err != nil {
					b.Fatal(err)
				}
				if bc.pipelined {
					err = cmdstream.ReplaySourceOpts(dev, src, cmdstream.ReplayOptions{Pipelined: true})
				} else {
					err = cmdstream.ReplaySourceOpts(dev, src, cmdstream.ReplayOptions{})
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecordStream compares recording a live run straight into a
// binary writer against recording through AsyncSink, which moves encode
// work off the execution goroutine.
func BenchmarkRecordStream(b *testing.B) {
	const n = 1 << 18
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i & 0xFF)
	}
	for _, mode := range []string{"sync", "async"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dev, err := device.New(device.Config{
					Target: device.TargetFulcrum, Module: dram.DDR4(1),
					Functional: true, Workers: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				var sink cmdstream.Sink = cmdstream.NewWriter(io.Discard, cmdstream.FormatBinary)
				if mode == "async" {
					sink = cmdstream.NewAsyncSink(sink, 0)
				}
				if err := dev.StartRecordingTo(sink); err != nil {
					b.Fatal(err)
				}
				a, err := dev.Alloc(n, isa.UInt8)
				if err != nil {
					b.Fatal(err)
				}
				if err := dev.CopyHostToDevice(a, vals); err != nil {
					b.Fatal(err)
				}
				for r := 0; r < 8; r++ {
					if err := dev.ExecScalar(isa.OpAdd, a, 1, a); err != nil {
						b.Fatal(err)
					}
				}
				if err := dev.Free(a); err != nil {
					b.Fatal(err)
				}
				if err := dev.FinishRecording(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipelineSourceDecode measures the pure source-stage overhead of
// the pipeline wrapper (channel hop + record pooling) against direct
// decoding, on a record-dense stream with no payloads.
func BenchmarkPipelineSourceDecode(b *testing.B) {
	header := cmdstream.Header{
		Version: cmdstream.Version, Target: "fulcrum", TargetID: 1,
		Module: dram.DDR4(1), Functional: true,
	}
	var buf bytes.Buffer
	sink := cmdstream.NewWriter(&buf, cmdstream.FormatBinary)
	if err := sink.Begin(header); err != nil {
		b.Fatal(err)
	}
	for seq := int64(1); seq <= 100000; seq++ {
		rec := cmdstream.Record{Seq: seq, Kind: cmdstream.KindExec, Form: cmdstream.FormBinary,
			Op: "add", Type: "int32", N: 64, A: 1, B: 2, Dst: 3}
		if err := sink.Write(&rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		b.Fatal(err)
	}
	enc := buf.Bytes()
	for _, mode := range []string{"direct", "pipelined"} {
		b.Run(mode, func(b *testing.B) {
			b.SetBytes(int64(len(enc)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				src, err := cmdstream.OpenSource(bytes.NewReader(enc))
				if err != nil {
					b.Fatal(err)
				}
				rd := cmdstream.Source(src)
				var ps *cmdstream.PipelineSource
				if mode == "pipelined" {
					ps = cmdstream.NewPipelineSource(src, 0)
					rd = ps
				}
				count := 0
				for {
					_, err := rd.Next()
					if err == io.EOF {
						break
					}
					if err != nil {
						b.Fatal(err)
					}
					count++
				}
				if ps != nil {
					if err := ps.Close(); err != nil {
						b.Fatal(err)
					}
				}
				if count != 100000 {
					b.Fatal(fmt.Errorf("decoded %d records", count))
				}
			}
		})
	}
}

package cmdstream_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"pimeval/internal/cmdstream"
	"pimeval/internal/device"
	"pimeval/internal/dram"
	"pimeval/internal/isa"
)

// countingWriter tallies bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// memSamplingSource wraps a binary source, forwarding both payload faces,
// and samples heap usage on every record and payload frame, tracking the
// peak.
type memSamplingSource struct {
	src  cmdstream.Source
	peak uint64
	recs int64
	mu   sync.Mutex // the pipeline samples from its decode goroutine
}

func (m *memSamplingSource) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.mu.Lock()
	m.peak = max(m.peak, ms.HeapAlloc)
	m.mu.Unlock()
}

func (m *memSamplingSource) Header() cmdstream.Header { return m.src.Header() }
func (m *memSamplingSource) Close() error             { return m.src.Close() }
func (m *memSamplingSource) Next() (*cmdstream.Record, error) {
	rec, err := m.src.Next()
	if err == nil {
		m.recs++
		if m.recs%64 == 0 {
			m.sample()
		}
	}
	return rec, err
}
func (m *memSamplingSource) PendingPayload() bool {
	return m.src.(cmdstream.FrameReader).PendingPayload()
}
func (m *memSamplingSource) NextPayloadChunk() ([]int64, error) {
	chunk, err := m.src.(cmdstream.ChunkedSource).NextPayloadChunk()
	if err == nil {
		m.sample()
	}
	return chunk, err
}
func (m *memSamplingSource) ReadPayloadFrame(fn cmdstream.FrameFunc) error {
	err := m.src.(cmdstream.FrameReader).ReadPayloadFrame(fn)
	if err == nil {
		m.sample()
	}
	return err
}

// chunkFace offers only the []int64 payload face of the wrapped source,
// hiding ReadPayloadFrame, as a wrapper written before the packed face does
// (the benchmark harness's timed source is one).
type chunkFace struct{ cmdstream.Source }

func (c chunkFace) PendingPayload() bool {
	cs, ok := c.Source.(cmdstream.ChunkedSource)
	return ok && cs.PendingPayload()
}
func (c chunkFace) NextPayloadChunk() ([]int64, error) {
	cs, ok := c.Source.(cmdstream.ChunkedSource)
	if !ok {
		return nil, io.EOF
	}
	return cs.NextPayloadChunk()
}

// replayModes are the h2d paths a streamed replay takes: packed frames
// landing in object storage, or []int64 chunks from a source hiding the
// packed face, each serial and behind the decode-ahead pipeline (which
// ships a chunk-only source's chunks as int64 frames).
var replayModes = []struct {
	name              string
	packed, pipelined bool
}{
	{"packed/serial", true, false},
	{"packed/pipelined", true, true},
	{"chunks/serial", false, false},
	{"chunks/pipelined", false, true},
}

// faced returns src as a replay mode sees it: as it is, or behind chunkFace.
func faced(src cmdstream.Source, packed bool) cmdstream.Source {
	if packed {
		return src
	}
	return chunkFace{src}
}

// TestOutOfCoreReplay streams a multi-hundred-MB binary command stream
// through an io.Pipe into the streaming replay path, in every replay mode,
// and proves two things:
//
//  1. Bounded memory: peak heap stays a small multiple of the device
//     footprint — far below the encoded stream size — because payloads
//     move in O(frame) pieces and records are never materialized.
//  2. Bit-identical replay: every iteration embeds the generator-computed
//     reduction result, which the replayer verifies against the
//     functionally replayed data; any divergence fails the replay.
//
// The full run pushes >512 MiB of encoded stream per mode (the
// acceptance-scale number quoted in EXPERIMENTS.md); -short scales down to
// ~64 MiB. The payload edge cases follow in their own subtests.
func TestOutOfCoreReplay(t *testing.T) {
	for _, m := range replayModes {
		t.Run(m.name, func(t *testing.T) { outOfCoreReplay(t, m.packed, m.pipelined) })
	}
	payloadEdgeCases(t)
}

func outOfCoreReplay(t *testing.T, packed, pipelined bool) {
	iters := 256
	if testing.Short() {
		iters = 32
	}
	const n = 2 << 20 // elements per upload; ~2 MiB of encoded uint8 payload

	header := cmdstream.Header{
		Version:    cmdstream.Version,
		Target:     "fulcrum",
		TargetID:   1,
		Module:     dram.DDR4(1),
		Functional: true,
	}

	pr, pw := io.Pipe()
	cw := &countingWriter{w: pw}
	var wg sync.WaitGroup
	var genErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer pw.Close()
		sink := cmdstream.NewWriter(cw, cmdstream.FormatBinary)
		if genErr = sink.Begin(header); genErr != nil {
			return
		}
		seq := int64(0)
		emit := func(rec cmdstream.Record) bool {
			if genErr != nil {
				return false
			}
			seq++
			rec.Seq = seq
			genErr = sink.Write(&rec)
			return genErr == nil
		}
		emit(cmdstream.Record{Kind: cmdstream.KindAlloc, Obj: 1, Type: "uint8", N: n})
		// Each upload is one seeded random pattern offset by the iteration,
		// so consecutive payloads differ without a generator call per
		// element.
		rng := rand.New(rand.NewSource(42))
		base := make([]uint8, n)
		rng.Read(base)
		data := make([]int64, n)
		for i := 0; i < iters; i++ {
			sum := int64(0)
			for j, b := range base {
				data[j] = int64(b + uint8(i))
				sum += data[j]
			}
			if !emit(cmdstream.Record{Kind: cmdstream.KindCopyH2D, Obj: 1, Data: data}) {
				return
			}
			// The generator-computed reduction: replay re-executes it on
			// the uploaded data and fails on any mismatch, so a clean
			// replay proves the payload arrived bit-identical.
			if !emit(cmdstream.Record{Kind: cmdstream.KindExec, Form: cmdstream.FormRedSum,
				Op: "redsum", Type: "uint8", N: n, A: 1, Result: sum}) {
				return
			}
		}
		emit(cmdstream.Record{Kind: cmdstream.KindFree, Obj: 1})
		if genErr == nil {
			genErr = sink.Close()
		}
	}()

	src, err := cmdstream.OpenSource(pr)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := src.(cmdstream.FrameReader); !ok {
		t.Fatal("binary source does not support packed payloads")
	}
	dev, err := device.NewFromHeader(header, 1)
	if err != nil {
		t.Fatal(err)
	}
	ms := &memSamplingSource{src: src}
	ms.sample()
	opts := cmdstream.ReplayOptions{Pipelined: pipelined}
	if err := cmdstream.ReplaySourceOpts(dev, faced(ms, packed), opts); err != nil {
		t.Fatalf("streaming replay failed: %v", err)
	}
	wg.Wait()
	if genErr != nil {
		t.Fatalf("generator failed: %v", genErr)
	}

	streamMB := float64(cw.n) / (1 << 20)
	peakMB := float64(ms.peak) / (1 << 20)
	t.Logf("encoded stream %.0f MiB, %d records, peak heap %.0f MiB", streamMB, ms.recs, peakMB)
	if !testing.Short() && cw.n < 512<<20 {
		t.Errorf("encoded stream only %.0f MiB, want >= 512 MiB", streamMB)
	}
	// The device's functional backing for the 2 Mi-element object is
	// 2 MiB; allow generous slack for the runtime, the generator, frame
	// buffers and GC lag — the stream itself is an order of magnitude
	// bigger than the bound.
	const peakLimit = 160 << 20
	if ms.peak > peakLimit {
		t.Errorf("peak heap %.0f MiB exceeds %d MiB bound (stream was %.0f MiB — not out-of-core)",
			peakMB, peakLimit>>20, streamMB)
	}
	if sum := fmt.Sprintf("%.0f", streamMB); sum == "0" {
		t.Error("no stream bytes generated")
	}
}

// materialized completes every record's payload as it is pulled
// (cmdstream.Materialize), so the replay walker receives records that hold
// their payloads packed at element width — the form an optimizer window
// hands it.
type materialized struct{ cmdstream.Source }

func (m materialized) Next() (*cmdstream.Record, error) {
	rec, err := m.Source.Next()
	if err == nil {
		err = cmdstream.Materialize(m.Source, rec)
	}
	return rec, err
}

// payloadForms are where a replayed h2d payload is held when it lands:
// streamed from the source, materialized before the walker sees it, or
// buffered in a repeat-scope body.
var payloadForms = []string{"streamed", "materialized", "scope"}

// payloadEdgeCases replays, in every replay mode and payload form, the h2d
// payloads that do not land as one packed copy or do not match their
// object: a raw int64 fallback payload (values that do not fit the
// object's type), a frame whose payload type differs from the object's (a
// hostile stream), and payloads over and under the object's length,
// spanning two frames. The first two
// must land exactly as their values truncated to the object's type; the
// last two must fail with ErrShapeMismatch, never panic.
func payloadEdgeCases(t *testing.T) {
	const frame = 1 << 17 // the encoder's frame size
	const n = frame + 10
	vals := make([]int64, n+10)
	for i := range vals {
		vals[i] = int64(i*40503) - 1<<20
	}
	h := fullStream().Header
	stream := func(typ string, payload []int64, scope bool) []byte {
		var buf bytes.Buffer
		s := &cmdstream.Stream{Header: h, Records: []cmdstream.Record{
			{Seq: 1, Kind: cmdstream.KindAlloc, Obj: 1, Type: typ, N: n},
			{Seq: 2, Kind: cmdstream.KindCopyH2D, Obj: 1, Data: payload},
		}}
		if scope {
			s.Records = []cmdstream.Record{s.Records[0],
				{Seq: 2, Kind: cmdstream.KindRepeatBegin, Repeat: 2},
				{Seq: 3, Kind: cmdstream.KindCopyH2D, Obj: 1, Data: payload},
				{Seq: 4, Kind: cmdstream.KindRepeatEnd}}
		}
		if err := s.EncodeBinary(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	fits := make([]int64, n)
	for i := range fits {
		fits[i] = isa.UInt16.Truncate(vals[i])
	}
	// The hostile stream is a uint16 object's stream whose alloc is
	// rewritten to int8 (the pinned wire codes: kind alloc 1, seq 1, obj 1,
	// type uint16 5 → int8 0), so its payload frames stay packed as uint16.
	hostile := func(scope bool) []byte {
		enc := stream("uint16", fits, scope)
		at := bytes.Index(enc, []byte{1, 1, 1, 5})
		if at < 0 {
			t.Fatal("alloc record not found")
		}
		enc[at+3] = 0
		return enc
	}
	cases := []struct {
		name  string
		enc   func(scope bool) []byte
		typ   isa.DataType
		vals  []int64 // the payload's values, before truncation to typ
		shape bool    // want ErrShapeMismatch
	}{
		{"raw-int64", func(sc bool) []byte { return stream("int16", vals[:n], sc) }, isa.Int16, vals[:n], false},
		{"hostile-paytype", hostile, isa.Int8, fits, false},
		{"over", func(sc bool) []byte { return stream("int32", vals, sc) }, isa.Int32, nil, true},
		{"under", func(sc bool) []byte { return stream("int32", vals[:frame], sc) }, isa.Int32, nil, true},
	}
	for _, c := range cases {
		for _, form := range payloadForms {
			enc := c.enc(form == "scope")
			for _, m := range replayModes {
				name := c.name + "/" + form + "/" + m.name
				if form == "streamed" {
					name = c.name + "/" + m.name
				}
				t.Run(name, func(t *testing.T) {
					src, err := cmdstream.OpenSource(bytes.NewReader(enc))
					if err != nil {
						t.Fatal(err)
					}
					if src = faced(src, m.packed); form == "materialized" {
						src = materialized{src}
					}
					dev, err := device.NewFromHeader(h, 1)
					if err != nil {
						t.Fatal(err)
					}
					err = cmdstream.ReplaySourceOpts(dev, src, cmdstream.ReplayOptions{Pipelined: m.pipelined})
					if c.shape {
						if !errors.Is(err, device.ErrShapeMismatch) {
							t.Fatalf("got %v, want ErrShapeMismatch", err)
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					got, err := dev.CopyDeviceToHost(1)
					if err != nil {
						t.Fatal(err)
					}
					for i, v := range c.vals {
						if want := c.typ.Truncate(v); got[i] != want {
							t.Fatalf("element %d = %d, want %d", i, got[i], want)
						}
					}
				})
			}
		}
	}
}

// TestReplayHostilePackedPayload: a materialized record whose packed
// payload no element loop can read (an invalid element type, a partial
// element) or whose length does not match its object fails with a typed
// device error, never a panic — landed directly, in a repeat-scope body,
// and behind the pipeline.
func TestReplayHostilePackedPayload(t *testing.T) {
	h := fullStream().Header
	cases := []struct {
		name string
		pay  cmdstream.Payload
		want error
	}{
		{"invalid-type", cmdstream.Payload{Type: isa.DataType(99), Frames: [][]byte{make([]byte, 16)}}, device.ErrBadArgument},
		{"partial-element", cmdstream.Payload{Type: isa.Int32, Frames: [][]byte{make([]byte, 30)}}, device.ErrBadArgument},
		{"short", cmdstream.Payload{Type: isa.Int16, Frames: [][]byte{make([]byte, 6), make([]byte, 8)}}, device.ErrShapeMismatch},
		{"long", cmdstream.Payload{Type: isa.Int16, Frames: [][]byte{make([]byte, 8), make([]byte, 10)}}, device.ErrShapeMismatch},
	}
	for _, c := range cases {
		for _, scope := range []bool{false, true} {
			for _, pipelined := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/scope=%v/pipelined=%v", c.name, scope, pipelined), func(t *testing.T) {
					pay := c.pay
					recs := []cmdstream.Record{
						{Seq: 1, Kind: cmdstream.KindAlloc, Obj: 1, Type: "int16", N: 8},
						{Seq: 2, Kind: cmdstream.KindCopyH2D, Obj: 1, Packed: &pay},
					}
					if scope {
						recs = []cmdstream.Record{recs[0],
							{Seq: 2, Kind: cmdstream.KindRepeatBegin, Repeat: 3},
							{Seq: 3, Kind: cmdstream.KindCopyH2D, Obj: 1, Packed: &pay},
							{Seq: 4, Kind: cmdstream.KindRepeatEnd}}
					}
					dev, err := device.NewFromHeader(h, 1)
					if err != nil {
						t.Fatal(err)
					}
					err = cmdstream.ReplaySourceOpts(dev, cmdstream.FromRecords(h, recs), cmdstream.ReplayOptions{Pipelined: pipelined})
					if !errors.Is(err, c.want) {
						t.Fatalf("got %v, want %v", err, c.want)
					}
				})
			}
		}
	}
}

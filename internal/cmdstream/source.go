package cmdstream

import (
	"bytes"
	"fmt"
	"io"
	"slices"

	"pimeval/internal/isa"
)

// Source is the streaming producer side of the record pipeline: a header
// plus an iterator over records. Every stream consumer in the repo (replay,
// the optimizer, the tools) speaks Source, so records flow through bounded
// buffers instead of whole-stream slices; FromStream adapts the materialized
// slice API onto it.
//
// Contract: Next returns io.EOF after the last record. The returned *Record
// may reuse one backing struct across calls, but its slice and pointer
// fields (Data, Packed, Results) are freshly allocated per record — a
// consumer that retains a record may copy the struct shallowly. Sources that
// stream h2d payloads out-of-core additionally implement FrameReader (the
// packed face) or ChunkedSource (the []int64 one).
type Source interface {
	// Header identifies the device the stream was recorded on. It is valid
	// immediately (before the first Next call).
	Header() Header
	// Next returns the next record, or io.EOF at end of stream.
	Next() (*Record, error)
	// Close releases the source. Sources never close an underlying reader
	// they were handed; the caller owns it.
	Close() error
}

// Sink is the streaming consumer side: Begin is called once with the stream
// header before any record, Write once per record in stream order, and Close
// exactly once at the end (flushing any buffered encoding state). The
// format writers (NewWriter) and the in-memory Collector implement it.
type Sink interface {
	Begin(h Header) error
	Write(rec *Record) error
	Close() error
}

// ChunkedSource is implemented by sources that can stream the h2d payload
// of the record most recently returned by Next in bounded chunks instead of
// materializing Record.Data. After Next returns a KindCopyH2D record with
// nil Data and PendingPayload reports true, the consumer drains the payload
// with NextPayloadChunk until io.EOF; chunks share one backing buffer, so
// they must be consumed (copied or written) before the next call. Calling
// Next with an undrained payload discards the remainder.
type ChunkedSource interface {
	PendingPayload() bool
	NextPayloadChunk() ([]int64, error)
}

// FrameReader is the packed payload face: a source that streams the h2d
// payload of the record most recently returned by Next frame by frame, as
// the PIMB wire packs it — little-endian elements at the width of the
// frame's element type, the object's own type or, for a payload whose
// values do not fit it, isa.Int64. After Next returns a KindCopyH2D record
// whose PendingPayload reports true, ReadPayloadFrame reads the next frame
// through fn, or returns io.EOF after the last. The binary decoder reads
// the frame straight from its input, so a consumer that lands it in object
// storage moves each byte once; PipelineSource and CountingSource implement
// it too. Calling Next with an undrained payload discards the remainder.
type FrameReader interface {
	PendingPayload() bool
	ReadPayloadFrame(fn FrameFunc) error
}

// A FrameFunc consumes one packed payload frame: size bytes of
// little-endian elements of type dt, read from r. Whatever fn leaves unread
// is skipped, so a frame fn rejects does not desynchronize the stream; fn's
// error, or the source's own read error, is the result.
type FrameFunc func(dt isa.DataType, size int, r io.Reader) error

// skipFrame is the FrameFunc that reads nothing: the frame is discarded.
func skipFrame(isa.DataType, int, io.Reader) error { return nil }

// chunker is the []int64 face over a FrameReader: chunk reads the next
// frame into a byte scratch buffer and widens it into a carrier buffer,
// both reused across calls.
type chunker struct {
	frame []byte
	buf   []int64
}

func (c *chunker) chunk(fr FrameReader) ([]int64, error) {
	var vals []int64
	err := fr.ReadPayloadFrame(func(dt isa.DataType, size int, r io.Reader) error {
		c.frame = slices.Grow(c.frame[:0], size)[:size]
		if _, err := io.ReadFull(r, c.frame); err != nil {
			return err
		}
		n := size / dt.Bytes()
		c.buf = slices.Grow(c.buf[:0], n)[:n]
		dt.Unpack(c.buf, c.frame)
		vals = c.buf
		return nil
	})
	return vals, err
}

// Materialize completes rec in place: if src has a pending streamed payload
// for rec, it is drained into rec.Packed, each frame read once into an
// exact-size buffer the payload owns (from a FrameReader, straight from its
// input; from a source with only the []int64 face, through packedFace). No
// frame is widened and no buffer grows by doubling. For every other record
// this is a no-op.
func Materialize(src Source, rec *Record) error {
	if rec.Kind != KindCopyH2D {
		return nil
	}
	fr := packedFace(src)
	if fr == nil || !fr.PendingPayload() {
		return nil
	}
	var p *Payload
	keep := func(dt isa.DataType, size int, r io.Reader) error {
		switch {
		case p == nil:
			p = &Payload{Type: dt}
		case dt != p.Type:
			return fmt.Errorf("cmdstream: %w: payload frames packed as both %v and %v", ErrFormat, p.Type, dt)
		}
		frame := make([]byte, size)
		if _, err := io.ReadFull(r, frame); err != nil {
			return err
		}
		p.Frames = append(p.Frames, frame)
		return nil
	}
	for {
		err := fr.ReadPayloadFrame(keep)
		if err == io.EOF {
			rec.Packed = p
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// Payload is a materialized h2d payload at element width: the frames a
// FrameReader produced, each little-endian elements of Type. Frames are
// owned by the payload and never modified once it is built.
type Payload struct {
	Type   isa.DataType
	Frames [][]byte
}

// Len returns the payload's length in elements (in bytes, for an invalid
// Type, so a hostile payload still measures without panicking).
func (p *Payload) Len() int64 {
	var n int
	for _, f := range p.Frames {
		n += len(f)
	}
	if p.Type.Valid() {
		n /= p.Type.Bytes()
	}
	return int64(n)
}

// check reports a payload no element loop can read: an invalid element
// type or a frame that is not a whole number of elements.
func (p *Payload) check() error {
	if !p.Type.Valid() {
		return fmt.Errorf("cmdstream: %w: payload element type %d", ErrFormat, p.Type)
	}
	for _, f := range p.Frames {
		if len(f)%p.Type.Bytes() != 0 {
			return fmt.Errorf("cmdstream: %w: payload frame of %d bytes as %v", ErrFormat, len(f), p.Type)
		}
	}
	return nil
}

// Int64s widens the payload to int64 carriers in one allocation at its
// exact length: the host-boundary form (Record.Data).
func (p *Payload) Int64s() ([]int64, error) {
	if err := p.check(); err != nil {
		return nil, err
	}
	vals := make([]int64, p.Len())
	off := 0
	for _, f := range p.Frames {
		n := len(f) / p.Type.Bytes()
		p.Type.Unpack(vals[off:off+n], f)
		off += n
	}
	return vals, nil
}

// frames returns a reader over the payload's frames in the shape of
// FrameReader.ReadPayloadFrame, for Executor.CopyHostToDevicePacked.
func (p *Payload) frames() func(FrameFunc) error {
	i := 0
	var r bytes.Reader
	return func(fn FrameFunc) error {
		if i == len(p.Frames) {
			return io.EOF
		}
		i++
		r.Reset(p.Frames[i-1])
		return fn(p.Type, len(p.Frames[i-1]), &r)
	}
}

// PayloadLen returns the length in elements of the record's h2d payload,
// in whichever form it is held.
func (r *Record) PayloadLen() int64 {
	if r.Packed != nil {
		return r.Packed.Len()
	}
	return int64(len(r.Data))
}

// Widened returns a copy of r with a packed payload widened into Data
// (Payload.Int64s) and Packed cleared: the record as the host boundary
// carries it. A record without a packed payload is copied as it is.
func (r *Record) Widened() (Record, error) {
	w := *r
	if w.Packed == nil {
		return w, nil
	}
	data, err := w.Packed.Int64s()
	if err != nil {
		return w, err
	}
	w.Data, w.Packed = data, nil
	return w, nil
}

// int64Frames is the packed face over a source with only the []int64 one:
// each chunk is packed as an isa.Int64 frame, the wire's lossless form.
type int64Frames struct {
	ChunkedSource
	buf []byte
	r   bytes.Reader
}

func (f *int64Frames) ReadPayloadFrame(fn FrameFunc) error {
	chunk, err := f.NextPayloadChunk()
	if err != nil {
		return err
	}
	size := len(chunk) * isa.Int64.Bytes()
	f.buf = slices.Grow(f.buf[:0], size)[:size]
	isa.Int64.Pack(f.buf, chunk)
	f.r.Reset(f.buf)
	return fn(isa.Int64, size, &f.r)
}

// packedFace returns src's packed payload face: src itself, src's chunks
// through int64Frames when it has only the []int64 face, or nil when it
// streams no payloads.
func packedFace(src Source) FrameReader {
	switch s := src.(type) {
	case FrameReader:
		return s
	case ChunkedSource:
		return &int64Frames{ChunkedSource: s}
	}
	return nil
}

// CountingSource counts the records pulled through it (N) and forwards the
// wrapped source's payloads through the packed face (packedFace), so
// counting a replay never changes how its payloads land.
type CountingSource struct {
	Source
	N      int64
	frames FrameReader // packedFace(Source), resolved on first use
}

func (c *CountingSource) Next() (*Record, error) {
	rec, err := c.Source.Next()
	if err == nil {
		c.N++
	}
	return rec, err
}

func (c *CountingSource) PendingPayload() bool {
	return c.face() != nil && c.frames.PendingPayload()
}

func (c *CountingSource) ReadPayloadFrame(fn FrameFunc) error {
	if c.face() == nil {
		return io.EOF
	}
	return c.frames.ReadPayloadFrame(fn)
}

// face resolves the wrapped source's packed face on first use.
func (c *CountingSource) face() FrameReader {
	if c.frames == nil {
		c.frames = packedFace(c.Source)
	}
	return c.frames
}

// sliceSource iterates a materialized record slice.
type sliceSource struct {
	h    Header
	recs []Record
	pos  int
}

// FromStream adapts a materialized stream onto the Source interface.
func FromStream(s *Stream) Source { return &sliceSource{h: s.Header, recs: s.Records} }

// FromRecords adapts a header and record slice onto the Source interface.
func FromRecords(h Header, recs []Record) Source { return &sliceSource{h: h, recs: recs} }

func (s *sliceSource) Header() Header { return s.h }

func (s *sliceSource) Next() (*Record, error) {
	if s.pos >= len(s.recs) {
		return nil, io.EOF
	}
	rec := &s.recs[s.pos]
	s.pos++
	return rec, nil
}

func (s *sliceSource) Close() error { return nil }

// Collector is the in-memory Sink: it accumulates records into a slice,
// making the materialized stream API a thin wrapper over the streaming one.
type Collector struct {
	h     Header
	recs  []Record
	began bool
}

// NewCollector returns an empty Collector.
func NewCollector() *Collector { return &Collector{} }

// Begin stores the stream header.
func (c *Collector) Begin(h Header) error {
	c.h = h
	c.began = true
	return nil
}

// Write appends a copy of the record, a packed payload widened into Data.
func (c *Collector) Write(rec *Record) error {
	w, err := rec.Widened()
	if err != nil {
		return err
	}
	c.recs = append(c.recs, w)
	return nil
}

// Close is a no-op; the Collector stays readable.
func (c *Collector) Close() error { return nil }

// Len returns the number of collected records.
func (c *Collector) Len() int { return len(c.recs) }

// Stream returns a snapshot of the collected stream.
func (c *Collector) Stream() *Stream {
	return &Stream{Header: c.h, Records: append([]Record(nil), c.recs...)}
}

// Collect materializes a source into a stream, draining streamed h2d
// payloads into Record.Data, each widened with one allocation at its exact
// length. It does not close the source.
func Collect(src Source) (*Stream, error) {
	s := &Stream{Header: src.Header()}
	for {
		rec, err := src.Next()
		if err == io.EOF {
			return s, nil
		}
		if err != nil {
			return nil, err
		}
		if err := Materialize(src, rec); err != nil {
			return nil, err
		}
		w, err := rec.Widened()
		if err != nil {
			return nil, err
		}
		s.Records = append(s.Records, w)
	}
}

// Pump drives every record of src through dst: Begin with the source
// header, one Write per record (with streamed payloads materialized at
// element width — the per-record frames are the only allocation, so a
// multi-GB stream transcodes with bounded memory), and a final Close on
// dst. The source is not closed.
func Pump(dst Sink, src Source) error {
	if err := dst.Begin(src.Header()); err != nil {
		return err
	}
	for {
		rec, err := src.Next()
		if err == io.EOF {
			return dst.Close()
		}
		if err != nil {
			return err
		}
		if err := Materialize(src, rec); err != nil {
			return err
		}
		if err := dst.Write(rec); err != nil {
			return err
		}
	}
}

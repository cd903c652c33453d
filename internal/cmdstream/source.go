package cmdstream

import (
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
// may reuse one backing struct across calls, but its slice fields (Data,
// Results) are freshly allocated per record — a consumer that retains a
// record may copy the struct shallowly. Sources that stream h2d payloads
// out-of-core additionally implement ChunkedSource.
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

// PackedSource is a ChunkedSource that can also surface each frame of a
// pending h2d payload as the PIMB wire packs it: little-endian elements at
// the width of the returned element type, the object's own type or, for a
// payload whose values do not fit it, isa.Int64. NextPayloadFrame and
// NextPayloadChunk read the same frame sequence, so one payload may be
// drained through either face; the frame's bytes are reused by the next
// call on either. The binary decoder and PipelineSource implement it.
type PackedSource interface {
	ChunkedSource
	NextPayloadFrame() (isa.DataType, []byte, error)
}

// ChunkedExecutor is implemented by executors that can consume an h2d
// payload in bounded chunks (the out-of-core replay path). next returns
// successive chunks and io.EOF at end; the executor copies each chunk out
// before requesting the next.
type ChunkedExecutor interface {
	CopyHostToDeviceFrom(id ObjID, next func() ([]int64, error)) error
}

// PackedExecutor is implemented by executors that land packed payload
// frames (PackedSource.NextPayloadFrame) in object storage directly, with no
// int64 carrier in between. Replay takes this path when both sides offer it.
type PackedExecutor interface {
	CopyHostToDevicePacked(id ObjID, next func() (isa.DataType, []byte, error)) error
}

// chunker is the []int64 face over a packed frame reader: chunk widens one
// frame (NextPayloadFrame's results) into a buffer reused across calls.
type chunker struct{ buf []int64 }

func (c *chunker) chunk(dt isa.DataType, frame []byte, err error) ([]int64, error) {
	if err != nil {
		return nil, err
	}
	n := len(frame) / dt.Bytes()
	if cap(c.buf) < n {
		c.buf = make([]int64, max(n, payloadFrameElems))
	}
	vals := c.buf[:n]
	dt.Unpack(vals, frame)
	return vals, nil
}

// Materialize completes rec in place: if src has a pending streamed payload
// for rec (a ChunkedSource h2d record), it is drained into rec.Data, each
// packed frame unpacked once straight into it. For every other record this
// is a no-op.
func Materialize(src Source, rec *Record) error {
	cs, ok := src.(ChunkedSource)
	if !ok || !cs.PendingPayload() || rec.Kind != KindCopyH2D {
		return nil
	}
	ps, packed := src.(PackedSource)
	for {
		if !packed {
			chunk, err := cs.NextPayloadChunk()
			if err != nil {
				return eofNil(err)
			}
			rec.Data = append(rec.Data, chunk...)
			continue
		}
		dt, frame, err := ps.NextPayloadFrame()
		if err != nil {
			return eofNil(err)
		}
		have, n := len(rec.Data), len(frame)/dt.Bytes()
		rec.Data = slices.Grow(rec.Data, n)[:have+n]
		dt.Unpack(rec.Data[have:], frame)
	}
}

// eofNil maps the end of a payload (io.EOF) to success.
func eofNil(err error) error {
	if err == io.EOF {
		return nil
	}
	return err
}

// int64Frames is the packed face over a source with only the []int64 one:
// each chunk is packed as an isa.Int64 frame, the wire's lossless form.
type int64Frames struct {
	ChunkedSource
	buf []byte
}

func (f *int64Frames) NextPayloadFrame() (isa.DataType, []byte, error) {
	chunk, err := f.NextPayloadChunk()
	if err != nil {
		return 0, nil, err
	}
	size := len(chunk) * isa.Int64.Bytes()
	f.buf = slices.Grow(f.buf[:0], size)[:size]
	isa.Int64.Pack(f.buf, chunk)
	return isa.Int64, f.buf, nil
}

// packedFace returns src's packed payload face: src itself, src's chunks
// through int64Frames when it has only the []int64 face, or nil when it
// streams no payloads.
func packedFace(src Source) PackedSource {
	switch s := src.(type) {
	case PackedSource:
		return s
	case ChunkedSource:
		return &int64Frames{ChunkedSource: s}
	}
	return nil
}

// CountingSource counts the records pulled through it (N) and forwards
// every payload face of the wrapped source: chunks, packed frames (through
// packedFace) and the decode-ahead pipeline's buffer swap. Counting a
// replay therefore never changes which h2d path it takes.
type CountingSource struct {
	Source
	N      int64
	frames PackedSource // packedFace(Source), resolved on first use
}

func (c *CountingSource) Next() (*Record, error) {
	rec, err := c.Source.Next()
	if err == nil {
		c.N++
	}
	return rec, err
}

func (c *CountingSource) PendingPayload() bool {
	cs, ok := c.Source.(ChunkedSource)
	return ok && cs.PendingPayload()
}

func (c *CountingSource) NextPayloadChunk() ([]int64, error) {
	cs, ok := c.Source.(ChunkedSource)
	if !ok {
		return nil, io.EOF
	}
	return cs.NextPayloadChunk()
}

func (c *CountingSource) NextPayloadFrame() (isa.DataType, []byte, error) {
	if c.frames == nil {
		if c.frames = packedFace(c.Source); c.frames == nil {
			return 0, nil, io.EOF
		}
	}
	return c.frames.NextPayloadFrame()
}

func (c *CountingSource) swapPayloadBuffer(buf []byte) ([]byte, bool) {
	sw, ok := c.Source.(payloadBufferSwapper)
	if !ok {
		return nil, false
	}
	return sw.swapPayloadBuffer(buf)
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

// Write appends a copy of the record.
func (c *Collector) Write(rec *Record) error {
	c.recs = append(c.recs, *rec)
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
// payloads into Record.Data. It does not close the source.
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
		s.Records = append(s.Records, *rec)
	}
}

// Pump drives every record of src through dst: Begin with the source
// header, one Write per record (with streamed payloads materialized — the
// per-record buffer is the only allocation, so a multi-GB stream transcodes
// with bounded memory), and a final Close on dst. The source is not closed.
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

package cmdstream

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"pimeval/internal/isa"
)

// The bit-packed binary stream encoding (DESIGN.md §13). Compared to the
// JSON encoding it stores dense one-byte enums instead of kind/form/op/type
// strings, varint sequence numbers and object IDs, and h2d payload elements
// packed at their true width (1 byte per uint8 element, not a decimal
// int64), framed in bounded chunks so multi-GB payloads encode, decode, and
// replay with O(chunk) memory.
//
// Layout:
//
//	magic "PIMB" | version byte | uvarint len | header JSON | records… | 0x00
//
// Each record opens with a one-byte kind code (0x00 is the end-of-stream
// marker) followed by its uvarint sequence number and per-kind fields; exec
// records add a form code selecting the operand layout. h2d payloads are a
// flag byte, an element-type code, then frames of [uvarint count, count
// packed elements] terminated by a zero-count frame. The header rides as a
// length-prefixed JSON blob: it is a few hundred bytes written once, and
// reusing the JSON schema keeps the two formats' headers trivially in sync.

// BinaryVersion is the binary wire-format version written after the magic.
const BinaryVersion = 1

// binMagic opens every binary stream; JSON streams open with '{', which is
// how Decode and OpenSource auto-detect the format.
const binMagic = "PIMB"

const (
	// payloadFrameElems is the canonical payload frame size: 128Ki elements,
	// 1 MiB at the widest (8-byte) packing. Encoders always emit full frames
	// except the last, making re-encoding byte-identical.
	payloadFrameElems = 1 << 17
	// maxFrameElems bounds a decoded frame (and the segmented-reduction
	// result count): decoders reject larger claims as corrupt before
	// allocating, so a hostile stream cannot demand unbounded memory.
	maxFrameElems = 1 << 21
	// maxHeaderLen bounds the header blob.
	maxHeaderLen = 1 << 20
)

// The kind codes. Index = wire value; 0 is the end-of-stream marker.
var binKinds = []Kind{
	1: KindAlloc, 2: KindFree, 3: KindCopyH2D, 4: KindCopyD2H,
	5: KindCopyD2D, 6: KindCopyD2DRange, 7: KindExec, 8: KindHost,
	9: KindRepeatBegin, 10: KindRepeatEnd,
}

// The exec form codes. Index = wire value; 0 is unused.
var binForms = []Form{
	1: FormBinary, 2: FormScalar, 3: FormUnary, 4: FormShift, 5: FormSelect,
	6: FormBroadcast, 7: FormRedSum, 8: FormRedSumSeg, 9: FormFused,
}

// The op codes, by mnemonic. Index = wire value. The table is pinned here
// (not derived from internal/isa) so the wire format cannot drift if the
// in-memory enum is ever reordered; appending is the only legal change.
var binOps = []string{
	"add", "sub", "mul", "div", "and", "or", "xor", "xnor", "not",
	"shift.l", "shift.r", "min", "max", "lt", "gt", "eq", "abs", "select",
	"popcount", "aes.sbox", "aes.sbox.inv", "redsum", "redsum.seg",
	"broadcast", "copy.d2d",
}

// The element-type codes. Index = wire value; pinned like binOps. Payload
// elements pack at the type's width (isa.DataType.Pack). 0xFF (binTypeRaw)
// marks a payload packed as isa.Int64 — the lossless fallback when a
// payload value does not fit its object's element width.
var binTypes = []isa.DataType{
	isa.Int8, isa.Int16, isa.Int32, isa.Int64, isa.UInt8, isa.UInt16, isa.UInt32, isa.UInt64,
}

const binTypeRaw = 0xFF

// binTypeNames are binTypes by name, the form Record.Type carries.
var binTypeNames = func() []string {
	names := make([]string, len(binTypes))
	for c, t := range binTypes {
		names[c] = t.String()
	}
	return names
}()

var (
	binKindCode = binCodes(binKinds)
	binFormCode = binCodes(binForms)
	binOpCode   = binCodes(binOps)
	binTypeCode = binCodes(binTypeNames)
)

// binCodes inverts a pinned code table; zero entries are unused codes.
func binCodes[T comparable](table []T) map[T]byte {
	var zero T
	m := make(map[T]byte, len(table))
	for c, v := range table {
		if v != zero {
			m[v] = byte(c)
		}
	}
	return m
}

// binCoder walks record fields in wire order in either direction, so each
// record layout is stated once (fields). Encoding (r == nil) appends to buf;
// decoding reads from r into the record. The first error sticks: every
// later field is a no-op, and the caller checks err once per record.
type binCoder struct {
	r   *bufio.Reader
	buf []byte
	err error
	f64 [8]byte

	// The h2d payload head: hasPayload is the wire's payload flag and
	// payType its element-type code. An encoder sets payType before the
	// walk; a decoder reads both.
	hasPayload byte
	payType    byte
}

func (c *binCoder) fail(format string, args ...any) {
	if c.r == nil {
		c.err = fmt.Errorf("cmdstream: binary encoding: "+format, args...)
	} else {
		c.err = fmt.Errorf("cmdstream: decode record: "+format, args...)
	}
}

// uint codes a non-negative field (sequence numbers, object IDs, counts,
// offsets) as a uvarint.
func (c *binCoder) uint(v *int64, what string) {
	if c.err != nil {
		return
	}
	if c.r == nil {
		if *v < 0 {
			c.fail("negative %s %d", what, *v)
			return
		}
		c.buf = binary.AppendUvarint(c.buf, uint64(*v))
		return
	}
	u, err := binary.ReadUvarint(c.r)
	if err != nil {
		c.err = binErr(what, err)
	} else if u > math.MaxInt64 {
		c.fail("%s %d overflows", what, u)
	} else {
		*v = int64(u)
	}
}

// int codes a signed field as a zigzag varint.
func (c *binCoder) int(v *int64, what string) {
	if c.err != nil {
		return
	}
	if c.r == nil {
		c.buf = binary.AppendVarint(c.buf, *v)
		return
	}
	u, err := binary.ReadVarint(c.r)
	if err != nil {
		c.err = binErr(what, err)
	} else {
		*v = u
	}
}

// float codes a little-endian IEEE 754 double.
func (c *binCoder) float(v *float64, what string) {
	if c.err != nil {
		return
	}
	if c.r == nil {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, math.Float64bits(*v))
		return
	}
	if _, err := io.ReadFull(c.r, c.f64[:]); err != nil {
		c.err = binErr(what, err)
	} else {
		*v = math.Float64frombits(binary.LittleEndian.Uint64(c.f64[:]))
	}
}

// byte codes one raw byte.
func (c *binCoder) byte(v *byte, what string) {
	if c.err != nil {
		return
	}
	if c.r == nil {
		c.buf = append(c.buf, *v)
		return
	}
	b, err := c.r.ReadByte()
	if err != nil {
		c.err = binErr(what, err)
	} else {
		*v = b
	}
}

// binEnum codes *v as its one-byte index in a pinned table; codes is the
// table's inverse (binCodes).
func binEnum[T comparable](c *binCoder, v *T, table []T, codes map[T]byte, what string) {
	if c.err != nil {
		return
	}
	if c.r == nil {
		code, ok := codes[*v]
		if !ok {
			c.fail("unknown %s %q", what, *v)
			return
		}
		c.buf = append(c.buf, code)
		return
	}
	b, err := c.r.ReadByte()
	var zero T
	switch {
	case err != nil:
		c.err = binErr(what, err)
	case int(b) >= len(table) || table[b] == zero:
		c.fail("unknown %s code %d", what, b)
	default:
		*v = table[b]
	}
}

// fields walks one record in wire order: kind code, sequence number, then
// the kind's fields (DESIGN.md §13). For h2d it stops after the payload
// head; the payload frames follow outside the record.
func (c *binCoder) fields(rec *Record) {
	binEnum(c, &rec.Kind, binKinds, binKindCode, "record kind")
	c.uint(&rec.Seq, "seq")
	switch rec.Kind {
	case KindAlloc:
		c.uint(&rec.Obj, "obj")
		binEnum(c, &rec.Type, binTypeNames, binTypeCode, "element type")
		c.uint(&rec.N, "n")
	case KindFree, KindCopyD2H:
		c.uint(&rec.Obj, "obj")
	case KindCopyH2D:
		c.uint(&rec.Obj, "obj")
		c.hasPayload = 0
		if len(rec.Data) > 0 {
			c.hasPayload = 1
		}
		c.byte(&c.hasPayload, "payload flag")
		switch {
		case c.err != nil || c.hasPayload == 0:
		case c.hasPayload > 1:
			c.fail("bad payload flag %d", c.hasPayload)
		default:
			c.byte(&c.payType, "payload type")
			if c.err == nil && c.payType != binTypeRaw && int(c.payType) >= len(binTypes) {
				c.fail("unknown payload type code %d", c.payType)
			}
		}
	case KindCopyD2D:
		c.uint(&rec.Src, "src")
		c.uint(&rec.Dst, "dst")
	case KindCopyD2DRange:
		c.uint(&rec.Src, "src")
		c.uint(&rec.SrcOff, "srcoff")
		c.uint(&rec.Dst, "dst")
		c.uint(&rec.DstOff, "dstoff")
		c.uint(&rec.N, "n")
	case KindHost:
		c.float(&rec.TimeNS, "host time")
		c.float(&rec.EnergyPJ, "host energy")
	case KindRepeatBegin:
		c.uint(&rec.Repeat, "repeat")
	case KindExec:
		c.exec(rec)
	}
}

// exec walks a KindExec record body: form code (plus the fused pair), op
// code(s), element type and count, then the form's operands.
func (c *binCoder) exec(rec *Record) {
	binEnum(c, &rec.Form, binForms, binFormCode, "exec form")
	fused := rec.Form == FormFused
	if fused {
		binEnum(c, &rec.Form1, binForms, binFormCode, "fused form1")
		binEnum(c, &rec.Form2, binForms, binFormCode, "fused form2")
	}
	binEnum(c, &rec.Op, binOps, binOpCode, "op")
	if fused {
		binEnum(c, &rec.Op2, binOps, binOpCode, "op2")
	}
	binEnum(c, &rec.Type, binTypeNames, binTypeCode, "element type")
	c.uint(&rec.N, "n")
	switch rec.Form {
	case FormBinary:
		c.uint(&rec.A, "a")
		c.uint(&rec.B, "b")
		c.uint(&rec.Dst, "dst")
	case FormScalar:
		c.uint(&rec.A, "a")
		c.uint(&rec.Dst, "dst")
		c.int(&rec.Scalar, "scalar")
	case FormUnary:
		c.uint(&rec.A, "a")
		c.uint(&rec.Dst, "dst")
	case FormShift:
		c.uint(&rec.A, "a")
		c.uint(&rec.Dst, "dst")
		amount := int64(rec.Amount)
		c.int(&amount, "amount")
		if c.r != nil {
			rec.Amount = int(amount)
		}
	case FormSelect:
		c.uint(&rec.Cond, "cond")
		c.uint(&rec.A, "a")
		c.uint(&rec.B, "b")
		c.uint(&rec.Dst, "dst")
	case FormBroadcast:
		c.uint(&rec.Dst, "dst")
		c.int(&rec.Scalar, "scalar")
	case FormRedSum:
		c.uint(&rec.A, "a")
		c.int(&rec.Result, "result")
	case FormRedSumSeg:
		c.uint(&rec.A, "a")
		c.uint(&rec.SegLen, "seglen")
		count := int64(len(rec.Results))
		c.uint(&count, "result count")
		if c.r != nil && c.err == nil {
			if count > maxFrameElems {
				c.fail("%d segment results exceeds limit", count)
			} else if count > 0 {
				rec.Results = make([]int64, count)
			}
		}
		for i := range rec.Results {
			c.int(&rec.Results[i], "segment result")
		}
	case FormFused:
		c.uint(&rec.A, "a")
		c.uint(&rec.B, "b")
		c.uint(&rec.Dst, "dst")
		c.int(&rec.Scalar, "scalar")
		c.int(&rec.Scalar2, "scalar2")
	}
}

// binWriter streams records into the binary encoding. It tracks each live
// object's element type from the alloc records flowing through it, so h2d
// payloads pack at their true width.
//
// Each record is encoded by appending into the coder's reusable buffer and
// handed to the underlying writer with a single Write (payload frames, which
// are already batched at frame granularity, bypass it). Besides saving a
// bufio call per field, this makes record emission atomic: a validation
// error leaves no partial record bytes behind.
type binWriter struct {
	w        *bufio.Writer
	c        binCoder
	objTypes map[int64]byte
	began    bool
	packbuf  []byte
}

// newBinaryWriter returns a Sink writing the binary stream encoding to w.
// Close writes the end-of-stream marker and flushes, but does not close w.
func newBinaryWriter(w io.Writer) *binWriter {
	return &binWriter{w: bufio.NewWriterSize(w, 64<<10), objTypes: make(map[int64]byte)}
}

func (bw *binWriter) Begin(h Header) error {
	if bw.began {
		return fmt.Errorf("cmdstream: binary writer: Begin called twice")
	}
	bw.began = true
	hb, err := json.Marshal(h)
	if err != nil {
		return err
	}
	bw.c.buf = append(bw.c.buf[:0], binMagic...)
	bw.c.buf = append(bw.c.buf, BinaryVersion)
	bw.c.buf = binary.AppendUvarint(bw.c.buf, uint64(len(hb)))
	bw.c.buf = append(bw.c.buf, hb...)
	return bw.flush()
}

// flush hands the coder's buffered bytes to the buffered writer in one
// Write and resets the buffer.
func (bw *binWriter) flush() error {
	_, err := bw.w.Write(bw.c.buf)
	bw.c.buf = bw.c.buf[:0]
	return err
}

func (bw *binWriter) Write(rec *Record) error {
	if !bw.began {
		return fmt.Errorf("cmdstream: binary writer: Write before Begin")
	}
	// The payload packs at the object's tracked element type when every
	// value fits it; otherwise the raw 8-byte fallback keeps the encoding
	// lossless.
	if rec.Kind == KindCopyH2D {
		bw.c.payType = binTypeRaw
		if tc, ok := bw.objTypes[rec.Obj]; ok && binTypes[tc].Fits(rec.Data) {
			bw.c.payType = tc
		}
	}
	bw.c.buf, bw.c.err = bw.c.buf[:0], nil
	bw.c.fields(rec)
	if bw.c.err != nil {
		return bw.c.err
	}
	switch rec.Kind {
	case KindAlloc:
		bw.objTypes[rec.Obj] = binTypeCode[rec.Type]
	case KindFree:
		delete(bw.objTypes, rec.Obj)
	}
	if err := bw.flush(); err != nil {
		return err
	}
	if rec.Kind == KindCopyH2D && bw.c.hasPayload == 1 {
		return bw.payload(rec.Data)
	}
	return nil
}

// payload writes the h2d payload frames after the record head: each a
// uvarint count and that many elements packed at the payload type's width,
// then a zero-count frame.
func (bw *binWriter) payload(data []int64) error {
	dt := isa.Int64
	if bw.c.payType != binTypeRaw {
		dt = binTypes[bw.c.payType]
	}
	width := dt.Bytes()
	if cap(bw.packbuf) < payloadFrameElems*width {
		bw.packbuf = make([]byte, payloadFrameElems*width)
	}
	for off := 0; off < len(data); off += payloadFrameElems {
		n := min(len(data)-off, payloadFrameElems)
		bw.c.buf = binary.AppendUvarint(bw.c.buf, uint64(n))
		if err := bw.flush(); err != nil {
			return err
		}
		buf := bw.packbuf[:n*width]
		dt.Pack(buf, data[off:off+n])
		if _, err := bw.w.Write(buf); err != nil {
			return err
		}
	}
	return bw.w.WriteByte(0)
}

func (bw *binWriter) Close() error {
	if !bw.began {
		return fmt.Errorf("cmdstream: binary writer: Close before Begin")
	}
	if err := bw.w.WriteByte(0); err != nil {
		return err
	}
	return bw.w.Flush()
}

// binSource streams records out of a binary-encoded stream. It implements
// PackedSource: h2d payloads are surfaced frame by frame, as the packed
// bytes the wire carries (NextPayloadFrame) or widened to int64 carriers
// (NextPayloadChunk), never materialized unless the consumer asks
// (Materialize).
type binSource struct {
	c   binCoder
	h   Header
	rec Record

	// Pending-payload state (the h2d record most recently returned).
	pending  bool
	pendType isa.DataType // packing of the pending payload
	packbuf  []byte
	chunks   chunker
	ended    bool // end-of-stream marker consumed
}

// newBinSource parses the magic, version, and header (the magic is assumed
// already verified by the caller via peek).
func newBinSource(r *bufio.Reader) (*binSource, error) {
	magic := make([]byte, len(binMagic)+1)
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, binErr("header", err)
	}
	if string(magic[:len(binMagic)]) != binMagic {
		return nil, fmt.Errorf("cmdstream: decode: %w", ErrFormat)
	}
	if v := magic[len(binMagic)]; v != BinaryVersion {
		return nil, fmt.Errorf("cmdstream: unsupported binary stream version %d (want %d)", v, BinaryVersion)
	}
	hlen, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, binErr("header", err)
	}
	if hlen > maxHeaderLen {
		return nil, fmt.Errorf("cmdstream: decode header: length %d exceeds limit", hlen)
	}
	hb := make([]byte, hlen)
	if _, err := io.ReadFull(r, hb); err != nil {
		return nil, binErr("header", err)
	}
	s := &binSource{c: binCoder{r: r}}
	if err := json.Unmarshal(hb, &s.h); err != nil {
		return nil, fmt.Errorf("cmdstream: decode header: %w", err)
	}
	if err := s.h.validate(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *binSource) Header() Header { return s.h }

// binErr wraps a binary decoding failure, mapping EOF onto ErrTruncated: a
// well-formed stream always ends with the 0x00 marker, so running out of
// bytes anywhere else means the stream was cut off.
func binErr(what string, err error) error {
	if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("cmdstream: decode %s: %w", what, ErrTruncated)
	}
	return fmt.Errorf("cmdstream: decode %s: %w", what, err)
}

func (s *binSource) PendingPayload() bool { return s.pending }

// frameLen reads the element count of the pending payload's next frame,
// reporting io.EOF at the terminating zero-count frame. Any error ends the
// payload.
func (s *binSource) frameLen() (int, error) {
	if !s.pending {
		return 0, io.EOF
	}
	var n int64
	s.c.err = nil
	s.c.uint(&n, "payload frame")
	switch {
	case s.c.err != nil:
		s.pending = false
		return 0, s.c.err
	case n == 0:
		s.pending = false
		return 0, io.EOF
	case n > maxFrameElems:
		s.pending = false
		return 0, fmt.Errorf("cmdstream: decode payload: frame of %d elements exceeds limit", n)
	}
	return int(n), nil
}

// NextPayloadFrame returns the next payload frame of the pending h2d record
// as the wire packs it, with its element type, or io.EOF after the
// terminating zero-count frame. The returned bytes are reused by the next
// call.
func (s *binSource) NextPayloadFrame() (isa.DataType, []byte, error) {
	n, err := s.frameLen()
	if err != nil {
		return 0, nil, err
	}
	// Any frame up to maxFrameElems is valid, though encoders only emit
	// payloadFrameElems; the buffer holds a canonical frame at the widest
	// packing, so frames of every type reuse it.
	size := n * s.pendType.Bytes()
	if cap(s.packbuf) < size {
		s.packbuf = make([]byte, max(size, payloadFrameElems*8))
	}
	buf := s.packbuf[:size]
	if _, err := io.ReadFull(s.c.r, buf); err != nil {
		s.pending = false
		return 0, nil, binErr("payload frame", err)
	}
	return s.pendType, buf, nil
}

// NextPayloadChunk returns the next payload frame widened to int64
// carriers; see chunker.
func (s *binSource) NextPayloadChunk() ([]int64, error) {
	return s.chunks.chunk(s.NextPayloadFrame())
}

// swapPayloadBuffer installs buf (which may be nil) as the buffer the next
// payload frame is read into and returns the previous one — the buffer
// backing the frame most recently returned by NextPayloadFrame. A
// decode-ahead pipeline uses this to ship frames downstream without copying:
// it trades a recycled buffer for the filled one each frame.
func (s *binSource) swapPayloadBuffer(buf []byte) ([]byte, bool) {
	old := s.packbuf
	s.packbuf = buf
	return old, true
}

// discardPayload skips the rest of an unconsumed pending payload.
func (s *binSource) discardPayload() error {
	for {
		n, err := s.frameLen()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if _, err := s.c.r.Discard(n * s.pendType.Bytes()); err != nil {
			s.pending = false
			return binErr("payload frame", err)
		}
	}
}

func (s *binSource) Next() (*Record, error) {
	if err := s.discardPayload(); err != nil {
		return nil, err
	}
	if s.ended {
		return nil, io.EOF
	}
	kb, err := s.c.r.Peek(1)
	if err != nil {
		return nil, binErr("record", err)
	}
	if kb[0] == 0 {
		s.c.r.Discard(1)
		s.ended = true
		return nil, io.EOF
	}
	s.rec = Record{}
	s.c.err = nil
	s.c.fields(&s.rec)
	if s.c.err != nil {
		return nil, s.c.err
	}
	if s.rec.Kind == KindCopyH2D && s.c.hasPayload == 1 {
		s.pending, s.pendType = true, isa.Int64
		if s.c.payType != binTypeRaw {
			s.pendType = binTypes[s.c.payType]
		}
	}
	return &s.rec, nil
}

func (s *binSource) Close() error { return nil }

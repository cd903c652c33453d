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

var (
	binKindCode = func() map[Kind]byte {
		m := make(map[Kind]byte)
		for c, k := range binKinds {
			if k != "" {
				m[k] = byte(c)
			}
		}
		return m
	}()
	binFormCode = func() map[Form]byte {
		m := make(map[Form]byte)
		for c, f := range binForms {
			if f != "" {
				m[f] = byte(c)
			}
		}
		return m
	}()
	binOpCode = func() map[string]byte {
		m := make(map[string]byte)
		for c, op := range binOps {
			m[op] = byte(c)
		}
		return m
	}()
	binTypeCode = func() map[string]byte {
		m := make(map[string]byte)
		for c, t := range binTypes {
			m[t.String()] = byte(c)
		}
		return m
	}()
)

// binWriter streams records into the binary encoding. It tracks each live
// object's element type from the alloc records flowing through it, so h2d
// payloads pack at their true width.
//
// Each record is encoded by appending into the reusable scratch buffer and
// handed to the underlying writer with a single Write (payload frames, which
// are already batched at frame granularity, bypass scratch). Besides saving
// a bufio call per field, this makes record emission atomic: a validation
// error leaves no partial record bytes behind.
type binWriter struct {
	w        *bufio.Writer
	objTypes map[int64]byte
	began    bool
	varbuf   [binary.MaxVarintLen64]byte
	packbuf  []byte
	scratch  []byte
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
	bw.scratch = bw.scratch[:0]
	bw.scratch = append(bw.scratch, binMagic...)
	bw.scratch = append(bw.scratch, BinaryVersion)
	bw.uvarint(uint64(len(hb)))
	bw.scratch = append(bw.scratch, hb...)
	return bw.flush()
}

// flush hands the accumulated scratch bytes to the buffered writer in one
// Write and resets the scratch buffer.
func (bw *binWriter) flush() error {
	if len(bw.scratch) == 0 {
		return nil
	}
	_, err := bw.w.Write(bw.scratch)
	bw.scratch = bw.scratch[:0]
	return err
}

// uvarint appends v to the record scratch buffer.
func (bw *binWriter) uvarint(v uint64) {
	bw.scratch = binary.AppendUvarint(bw.scratch, v)
}

// svarint appends v (zigzag-encoded) to the record scratch buffer.
func (bw *binWriter) svarint(v int64) {
	bw.scratch = binary.AppendVarint(bw.scratch, v)
}

// byte appends a single byte to the record scratch buffer.
func (bw *binWriter) byte(b byte) {
	bw.scratch = append(bw.scratch, b)
}

// id appends a non-negative field (sequence numbers, object IDs, counts,
// offsets) as a uvarint.
func (bw *binWriter) id(v int64, what string) error {
	if v < 0 {
		return fmt.Errorf("cmdstream: binary encoding: negative %s %d", what, v)
	}
	bw.uvarint(uint64(v))
	return nil
}

// f64 appends a little-endian IEEE 754 double to the record scratch buffer.
func (bw *binWriter) f64(v float64) {
	bw.scratch = binary.LittleEndian.AppendUint64(bw.scratch, math.Float64bits(v))
}

func (bw *binWriter) Write(rec *Record) error {
	if !bw.began {
		return fmt.Errorf("cmdstream: binary writer: Write before Begin")
	}
	kc, ok := binKindCode[rec.Kind]
	if !ok {
		return fmt.Errorf("cmdstream: binary encoding: unknown record kind %q", rec.Kind)
	}
	bw.scratch = bw.scratch[:0]
	bw.byte(kc)
	if err := bw.id(rec.Seq, "seq"); err != nil {
		return err
	}
	switch rec.Kind {
	case KindAlloc:
		tc, ok := binTypeCode[rec.Type]
		if !ok {
			return fmt.Errorf("cmdstream: binary encoding: unknown element type %q", rec.Type)
		}
		bw.objTypes[rec.Obj] = tc
		if err := bw.id(rec.Obj, "obj"); err != nil {
			return err
		}
		bw.byte(tc)
		if err := bw.id(rec.N, "n"); err != nil {
			return err
		}
	case KindFree:
		delete(bw.objTypes, rec.Obj)
		if err := bw.id(rec.Obj, "obj"); err != nil {
			return err
		}
	case KindCopyH2D:
		if err := bw.id(rec.Obj, "obj"); err != nil {
			return err
		}
		if len(rec.Data) == 0 {
			bw.byte(0)
			break
		}
		bw.byte(1)
		return bw.payload(rec)
	case KindCopyD2H:
		if err := bw.id(rec.Obj, "obj"); err != nil {
			return err
		}
	case KindCopyD2D:
		if err := bw.id(rec.Src, "src"); err != nil {
			return err
		}
		if err := bw.id(rec.Dst, "dst"); err != nil {
			return err
		}
	case KindCopyD2DRange:
		for _, f := range []struct {
			v    int64
			what string
		}{{rec.Src, "src"}, {rec.SrcOff, "srcoff"}, {rec.Dst, "dst"}, {rec.DstOff, "dstoff"}, {rec.N, "n"}} {
			if err := bw.id(f.v, f.what); err != nil {
				return err
			}
		}
	case KindHost:
		bw.f64(rec.TimeNS)
		bw.f64(rec.EnergyPJ)
	case KindRepeatBegin:
		if err := bw.id(rec.Repeat, "repeat"); err != nil {
			return err
		}
	case KindRepeatEnd:
	case KindExec:
		if err := bw.exec(rec); err != nil {
			return err
		}
	default:
		return fmt.Errorf("cmdstream: binary encoding: unhandled kind %q", rec.Kind)
	}
	return bw.flush()
}

// payload writes an h2d payload: element-type code, then zero-terminated
// frames packed at that type's width. The object's tracked element type is
// used when every value fits it; otherwise the raw 8-byte fallback keeps
// the encoding lossless. The record head accumulated in scratch is flushed
// first; frames then go to the buffered writer directly, already batched at
// frame granularity.
func (bw *binWriter) payload(rec *Record) error {
	code, dt := byte(binTypeRaw), isa.Int64
	if tc, ok := bw.objTypes[rec.Obj]; ok {
		code, dt = tc, binTypes[tc]
		if !dt.Fits(rec.Data) {
			code, dt = binTypeRaw, isa.Int64
		}
	}
	bw.byte(code)
	if err := bw.flush(); err != nil {
		return err
	}
	width := dt.Bytes()
	if cap(bw.packbuf) < payloadFrameElems*width {
		bw.packbuf = make([]byte, payloadFrameElems*width)
	}
	for off := 0; off < len(rec.Data); off += payloadFrameElems {
		n := len(rec.Data) - off
		if n > payloadFrameElems {
			n = payloadFrameElems
		}
		nb := binary.PutUvarint(bw.varbuf[:], uint64(n))
		if _, err := bw.w.Write(bw.varbuf[:nb]); err != nil {
			return err
		}
		buf := bw.packbuf[:n*width]
		dt.Pack(buf, rec.Data[off:off+n])
		if _, err := bw.w.Write(buf); err != nil {
			return err
		}
	}
	nb := binary.PutUvarint(bw.varbuf[:], 0)
	_, err := bw.w.Write(bw.varbuf[:nb])
	return err
}

// exec appends a KindExec record body: form code, op code, element type and
// count, then the form-specific operands.
func (bw *binWriter) exec(rec *Record) error {
	fc, ok := binFormCode[rec.Form]
	if !ok {
		return fmt.Errorf("cmdstream: binary encoding: unknown exec form %q", rec.Form)
	}
	bw.byte(fc)
	if rec.Form == FormFused {
		f1, ok := binFormCode[rec.Form1]
		if !ok {
			return fmt.Errorf("cmdstream: binary encoding: unknown fused form1 %q", rec.Form1)
		}
		f2, ok := binFormCode[rec.Form2]
		if !ok {
			return fmt.Errorf("cmdstream: binary encoding: unknown fused form2 %q", rec.Form2)
		}
		bw.byte(f1)
		bw.byte(f2)
	}
	oc, ok := binOpCode[rec.Op]
	if !ok {
		return fmt.Errorf("cmdstream: binary encoding: unknown op %q", rec.Op)
	}
	bw.byte(oc)
	if rec.Form == FormFused {
		oc2, ok := binOpCode[rec.Op2]
		if !ok {
			return fmt.Errorf("cmdstream: binary encoding: unknown op %q", rec.Op2)
		}
		bw.byte(oc2)
	}
	tc, ok := binTypeCode[rec.Type]
	if !ok {
		return fmt.Errorf("cmdstream: binary encoding: unknown element type %q", rec.Type)
	}
	bw.byte(tc)
	if err := bw.id(rec.N, "n"); err != nil {
		return err
	}
	switch rec.Form {
	case FormBinary:
		return bw.ids(rec.A, rec.B, rec.Dst)
	case FormScalar:
		if err := bw.ids(rec.A, rec.Dst); err != nil {
			return err
		}
		bw.svarint(rec.Scalar)
		return nil
	case FormUnary:
		return bw.ids(rec.A, rec.Dst)
	case FormShift:
		if err := bw.ids(rec.A, rec.Dst); err != nil {
			return err
		}
		bw.svarint(int64(rec.Amount))
		return nil
	case FormSelect:
		return bw.ids(rec.Cond, rec.A, rec.B, rec.Dst)
	case FormBroadcast:
		if err := bw.ids(rec.Dst); err != nil {
			return err
		}
		bw.svarint(rec.Scalar)
		return nil
	case FormRedSum:
		if err := bw.ids(rec.A); err != nil {
			return err
		}
		bw.svarint(rec.Result)
		return nil
	case FormRedSumSeg:
		if err := bw.ids(rec.A); err != nil {
			return err
		}
		if err := bw.id(rec.SegLen, "seglen"); err != nil {
			return err
		}
		bw.uvarint(uint64(len(rec.Results)))
		for _, r := range rec.Results {
			bw.svarint(r)
		}
		return nil
	case FormFused:
		if err := bw.ids(rec.A, rec.B, rec.Dst); err != nil {
			return err
		}
		bw.svarint(rec.Scalar)
		bw.svarint(rec.Scalar2)
		return nil
	}
	return fmt.Errorf("cmdstream: binary encoding: unhandled form %q", rec.Form)
}

// ids appends a sequence of object-ID fields.
func (bw *binWriter) ids(vs ...int64) error {
	for _, v := range vs {
		if err := bw.id(v, "object id"); err != nil {
			return err
		}
	}
	return nil
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
// ChunkedSource: h2d payloads are surfaced frame by frame, never
// materialized unless the consumer asks (Materialize).
type binSource struct {
	r   *bufio.Reader
	h   Header
	rec Record

	// Pending-payload state (the h2d record most recently returned).
	pending  bool
	pendType isa.DataType // packing of the pending payload
	chunkBuf []int64
	packbuf  []byte
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
	s := &binSource{r: r}
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

func (s *binSource) uvarint(what string) (int64, error) {
	v, err := binary.ReadUvarint(s.r)
	if err != nil {
		return 0, binErr(what, err)
	}
	if v > math.MaxInt64 {
		return 0, fmt.Errorf("cmdstream: decode %s: value %d overflows", what, v)
	}
	return int64(v), nil
}

func (s *binSource) svarint(what string) (int64, error) {
	v, err := binary.ReadVarint(s.r)
	if err != nil {
		return 0, binErr(what, err)
	}
	return v, nil
}

func (s *binSource) byte(what string) (byte, error) {
	b, err := s.r.ReadByte()
	if err != nil {
		return 0, binErr(what, err)
	}
	return b, nil
}

func (s *binSource) f64(what string) (float64, error) {
	var b [8]byte
	if _, err := io.ReadFull(s.r, b[:]); err != nil {
		return 0, binErr(what, err)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:])), nil
}

func (s *binSource) PendingPayload() bool { return s.pending }

// NextPayloadChunk returns the next payload frame of the pending h2d
// record, or io.EOF after the terminating zero-count frame. The returned
// slice is reused by the next call.
func (s *binSource) NextPayloadChunk() ([]int64, error) {
	if !s.pending {
		return nil, io.EOF
	}
	n, err := s.uvarint("payload frame")
	if err != nil {
		s.pending = false
		return nil, err
	}
	if n == 0 {
		s.pending = false
		return nil, io.EOF
	}
	if n > maxFrameElems {
		s.pending = false
		return nil, fmt.Errorf("cmdstream: decode payload: frame of %d elements exceeds limit", n)
	}
	// Buffers are sized to the frame: any frame up to maxFrameElems is
	// valid, even though encoders only emit payloadFrameElems.
	size := max(int(n), payloadFrameElems)
	width := s.pendType.Bytes()
	if cap(s.packbuf) < int(n)*width {
		s.packbuf = make([]byte, size*width)
	}
	buf := s.packbuf[:int(n)*width]
	if _, err := io.ReadFull(s.r, buf); err != nil {
		s.pending = false
		return nil, binErr("payload frame", err)
	}
	if cap(s.chunkBuf) < int(n) {
		s.chunkBuf = make([]int64, size)
	}
	chunk := s.chunkBuf[:n]
	s.pendType.Unpack(chunk, buf)
	return chunk, nil
}

// swapPayloadBuffer installs buf (which may be nil) as the decode buffer
// for the next payload chunk and returns the previous one — the buffer
// backing the slice most recently returned by NextPayloadChunk. A
// decode-ahead pipeline uses this to ship decoded frames downstream without
// copying: it trades a recycled buffer for the filled one each frame.
func (s *binSource) swapPayloadBuffer(buf []int64) []int64 {
	old := s.chunkBuf
	s.chunkBuf = buf
	return old
}

// discardPayload drains an unconsumed pending payload.
func (s *binSource) discardPayload() error {
	for s.pending {
		if _, err := s.NextPayloadChunk(); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
	return nil
}

func (s *binSource) Next() (*Record, error) {
	if err := s.discardPayload(); err != nil {
		return nil, err
	}
	if s.ended {
		return nil, io.EOF
	}
	kb, err := s.r.ReadByte()
	if err != nil {
		return nil, binErr("record", err)
	}
	if kb == 0 {
		s.ended = true
		return nil, io.EOF
	}
	if int(kb) >= len(binKinds) || binKinds[kb] == "" {
		return nil, fmt.Errorf("cmdstream: decode record: unknown kind code %d", kb)
	}
	s.rec = Record{Kind: binKinds[kb]}
	rec := &s.rec
	if rec.Seq, err = s.uvarint("seq"); err != nil {
		return nil, err
	}
	switch rec.Kind {
	case KindAlloc:
		if rec.Obj, err = s.uvarint("obj"); err != nil {
			return nil, err
		}
		tc, err := s.byte("element type")
		if err != nil {
			return nil, err
		}
		if int(tc) >= len(binTypes) {
			return nil, fmt.Errorf("cmdstream: decode record: unknown element-type code %d", tc)
		}
		rec.Type = binTypes[tc].String()
		if rec.N, err = s.uvarint("n"); err != nil {
			return nil, err
		}
	case KindFree, KindCopyD2H:
		if rec.Obj, err = s.uvarint("obj"); err != nil {
			return nil, err
		}
	case KindCopyH2D:
		if rec.Obj, err = s.uvarint("obj"); err != nil {
			return nil, err
		}
		flag, err := s.byte("payload flag")
		if err != nil {
			return nil, err
		}
		switch flag {
		case 0:
		case 1:
			tc, err := s.byte("payload type")
			if err != nil {
				return nil, err
			}
			pt := isa.Int64
			if tc != binTypeRaw {
				if int(tc) >= len(binTypes) {
					return nil, fmt.Errorf("cmdstream: decode payload: unknown element-type code %d", tc)
				}
				pt = binTypes[tc]
			}
			s.pending, s.pendType = true, pt
		default:
			return nil, fmt.Errorf("cmdstream: decode record: bad payload flag %d", flag)
		}
	case KindCopyD2D:
		if rec.Src, err = s.uvarint("src"); err != nil {
			return nil, err
		}
		if rec.Dst, err = s.uvarint("dst"); err != nil {
			return nil, err
		}
	case KindCopyD2DRange:
		for _, f := range []*int64{&rec.Src, &rec.SrcOff, &rec.Dst, &rec.DstOff, &rec.N} {
			if *f, err = s.uvarint("ranged copy field"); err != nil {
				return nil, err
			}
		}
	case KindHost:
		if rec.TimeNS, err = s.f64("host time"); err != nil {
			return nil, err
		}
		if rec.EnergyPJ, err = s.f64("host energy"); err != nil {
			return nil, err
		}
	case KindRepeatBegin:
		if rec.Repeat, err = s.uvarint("repeat"); err != nil {
			return nil, err
		}
	case KindRepeatEnd:
	case KindExec:
		if err := s.exec(rec); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// exec parses a KindExec record body.
func (s *binSource) exec(rec *Record) error {
	fb, err := s.byte("exec form")
	if err != nil {
		return err
	}
	if int(fb) >= len(binForms) || binForms[fb] == "" {
		return fmt.Errorf("cmdstream: decode record: unknown form code %d", fb)
	}
	rec.Form = binForms[fb]
	if rec.Form == FormFused {
		f1, err := s.byte("fused form1")
		if err != nil {
			return err
		}
		f2, err := s.byte("fused form2")
		if err != nil {
			return err
		}
		if int(f1) >= len(binForms) || binForms[f1] == "" || int(f2) >= len(binForms) || binForms[f2] == "" {
			return fmt.Errorf("cmdstream: decode record: unknown fused form codes %d/%d", f1, f2)
		}
		rec.Form1, rec.Form2 = binForms[f1], binForms[f2]
	}
	ob, err := s.byte("op")
	if err != nil {
		return err
	}
	if int(ob) >= len(binOps) {
		return fmt.Errorf("cmdstream: decode record: unknown op code %d", ob)
	}
	rec.Op = binOps[ob]
	if rec.Form == FormFused {
		ob2, err := s.byte("op2")
		if err != nil {
			return err
		}
		if int(ob2) >= len(binOps) {
			return fmt.Errorf("cmdstream: decode record: unknown op code %d", ob2)
		}
		rec.Op2 = binOps[ob2]
	}
	tc, err := s.byte("element type")
	if err != nil {
		return err
	}
	if int(tc) >= len(binTypes) {
		return fmt.Errorf("cmdstream: decode record: unknown element-type code %d", tc)
	}
	rec.Type = binTypes[tc].String()
	if rec.N, err = s.uvarint("n"); err != nil {
		return err
	}
	switch rec.Form {
	case FormBinary:
		return s.objIDs(&rec.A, &rec.B, &rec.Dst)
	case FormScalar:
		if err := s.objIDs(&rec.A, &rec.Dst); err != nil {
			return err
		}
		rec.Scalar, err = s.svarint("scalar")
		return err
	case FormUnary:
		return s.objIDs(&rec.A, &rec.Dst)
	case FormShift:
		if err := s.objIDs(&rec.A, &rec.Dst); err != nil {
			return err
		}
		amt, err := s.svarint("amount")
		if err != nil {
			return err
		}
		rec.Amount = int(amt)
		return nil
	case FormSelect:
		return s.objIDs(&rec.Cond, &rec.A, &rec.B, &rec.Dst)
	case FormBroadcast:
		if err := s.objIDs(&rec.Dst); err != nil {
			return err
		}
		rec.Scalar, err = s.svarint("scalar")
		return err
	case FormRedSum:
		if err := s.objIDs(&rec.A); err != nil {
			return err
		}
		rec.Result, err = s.svarint("result")
		return err
	case FormRedSumSeg:
		if err := s.objIDs(&rec.A); err != nil {
			return err
		}
		if rec.SegLen, err = s.uvarint("seglen"); err != nil {
			return err
		}
		count, err := s.uvarint("result count")
		if err != nil {
			return err
		}
		if count > maxFrameElems {
			return fmt.Errorf("cmdstream: decode record: %d segment results exceeds limit", count)
		}
		if count > 0 {
			rec.Results = make([]int64, count)
			for i := range rec.Results {
				if rec.Results[i], err = s.svarint("segment result"); err != nil {
					return err
				}
			}
		}
		return nil
	case FormFused:
		if err := s.objIDs(&rec.A, &rec.B, &rec.Dst); err != nil {
			return err
		}
		if rec.Scalar, err = s.svarint("scalar"); err != nil {
			return err
		}
		rec.Scalar2, err = s.svarint("scalar2")
		return err
	}
	return fmt.Errorf("cmdstream: decode record: unhandled form %q", rec.Form)
}

// objIDs reads a sequence of object-ID fields.
func (s *binSource) objIDs(fields ...*int64) error {
	for _, f := range fields {
		v, err := s.uvarint("object id")
		if err != nil {
			return err
		}
		*f = v
	}
	return nil
}

func (s *binSource) Close() error { return nil }

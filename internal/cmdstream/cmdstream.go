// Package cmdstream defines the typed command-stream IR that sits between
// the public PIM API and the device backend: one self-contained record per
// device operation (allocations, frees, copies, exec commands, host phases,
// and repeat scopes), a JSON stream encoding, and a replayer that re-executes
// a recorded stream against a fresh device.
//
// The IR is the stable command-level contract the simulator dispatches
// through (SIMDRAM's command stream and PrIM's portable benchmark contract
// are the architectural precedents): every API call lowers to exactly one
// record, the staged pipeline in internal/device executes records, and a
// recorded stream replayed on a device built from the stream's header
// reproduces the live run's data, statistics, trace, latency, and energy
// bit-for-bit (the replay determinism guarantee, DESIGN.md §9).
package cmdstream

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"pimeval/internal/dram"
	"pimeval/internal/fault"
)

// Sentinel decode errors. Both are wrapped with context (what was being
// decoded when the stream failed), so match with errors.Is.
var (
	// ErrTruncated marks a stream that was cut off mid-header, mid-record,
	// or mid-payload in either encoding.
	ErrTruncated = errors.New("truncated stream")
	// ErrFormat marks input that is neither a JSON stream object nor a
	// binary stream (bad magic).
	ErrFormat = errors.New("unrecognized stream format")
)

// ObjID identifies a PIM data object in stream records. Object IDs are
// assigned deterministically (a sequential counter starting at 1), so a
// replayed stream resolves to the same IDs it recorded; the replayer checks
// this invariant on every allocation.
type ObjID int64

// Kind discriminates the record variants of the IR.
type Kind string

// The record kinds: one per device operation class.
const (
	KindAlloc        Kind = "alloc"          // allocate a PIM object (Obj = resulting id)
	KindFree         Kind = "free"           // release a PIM object
	KindCopyH2D      Kind = "copy.h2d"       // host-to-device copy (Data = payload, nil in model-only)
	KindCopyD2H      Kind = "copy.d2h"       // device-to-host copy
	KindCopyD2D      Kind = "copy.d2d"       // device-to-device copy / tiling broadcast
	KindCopyD2DRange Kind = "copy.d2d.range" // ranged device-to-device gather
	KindExec         Kind = "exec"           // PIM command dispatch (Form selects the shape)
	KindHost         Kind = "host"           // host-executed phase charged to the device
	KindRepeatBegin  Kind = "repeat.begin"   // open a WithRepeat scope (Repeat = factor)
	KindRepeatEnd    Kind = "repeat.end"     // close the innermost repeat scope
)

// Form discriminates the dispatch shapes of KindExec records.
type Form string

// The exec forms, mirroring the device dispatch entry points.
const (
	FormBinary    Form = "binary"     // dst = a op b
	FormScalar    Form = "scalar"     // dst = a op imm
	FormUnary     Form = "unary"      // dst = op a
	FormShift     Form = "shift"      // dst = a shifted by Amount
	FormSelect    Form = "select"     // dst = cond ? a : b
	FormBroadcast Form = "broadcast"  // dst = imm everywhere
	FormRedSum    Form = "redsum"     // full reduction (Result)
	FormRedSumSeg Form = "redsum.seg" // segmented reduction (Results)
	// FormFused is a two-stage element-wise command produced by the stream
	// optimizer (internal/streamopt): stage 1 is Form1/Op (binary or scalar),
	// stage 2 is Form2/Op2 (unary, scalar, or — when stage 1 is scalar — a
	// binary consuming B), and only the final result is written to Dst.
	FormFused Form = "fused"
)

// Record is one self-contained IR record. Only the fields relevant to the
// record's Kind (and Form) are populated; the rest stay at their zero value
// and are omitted from the JSON encoding. Object references are raw int64
// IDs — deterministic allocation makes them stable across replays.
type Record struct {
	Seq  int64 `json:"seq,omitempty"`
	Kind Kind  `json:"kind"`

	// Alloc / copies: object identity and shape.
	Obj  int64  `json:"obj,omitempty"`  // alloc result, free target, h2d/d2h object
	Type string `json:"type,omitempty"` // element type name (alloc, exec)
	N    int64  `json:"n,omitempty"`    // alloc/exec element count, ranged-copy length

	// Exec operands.
	Form   Form   `json:"form,omitempty"`
	Op     string `json:"op,omitempty"` // command mnemonic (isa.Op.String)
	A      int64  `json:"a,omitempty"`
	B      int64  `json:"b,omitempty"`
	Cond   int64  `json:"cond,omitempty"`
	Dst    int64  `json:"dst,omitempty"`
	Scalar int64  `json:"scalar,omitempty"` // immediate operand / broadcast value
	Amount int    `json:"amount,omitempty"` // shift distance
	SegLen int64  `json:"seglen,omitempty"` // segment length (redsum.seg)

	// Fused-command stages (Form == FormFused). Stage 1 reads A (and B when
	// Form1 is binary) applying Op/Scalar; stage 2 applies Op2/Scalar2 to the
	// intermediate (and B when Form2 is binary, which requires Form1 scalar).
	Form1   Form   `json:"form1,omitempty"`
	Form2   Form   `json:"form2,omitempty"`
	Op2     string `json:"op2,omitempty"`
	Scalar2 int64  `json:"scalar2,omitempty"`

	// Device-to-device copies.
	Src    int64 `json:"src,omitempty"`
	SrcOff int64 `json:"srcoff,omitempty"`
	DstOff int64 `json:"dstoff,omitempty"`

	// Host-to-device payload (functional recordings only), in one of two
	// forms: int64 carriers (Data), the form of the host boundary — live
	// recording, JSON and materialized streams (Collect, Decode) — or, for
	// a payload materialized from a packed source, the frames the PIMB
	// decoder produced at the element's width (Packed). At most one is set;
	// PayloadLen measures either.
	Data   []int64  `json:"data,omitempty"`
	Packed *Payload `json:"-"`

	// Host-phase cost as issued (pre-repeat-scaling).
	TimeNS   float64 `json:"time_ns,omitempty"`
	EnergyPJ float64 `json:"energy_pj,omitempty"`

	// Repeat scope factor (repeat.begin).
	Repeat int64 `json:"repeat,omitempty"`

	// Reduction results captured at record time; replays of functional
	// streams verify them (the replay determinism guarantee).
	Result  int64   `json:"result,omitempty"`
	Results []int64 `json:"results,omitempty"`
}

// Version is the stream schema version written into headers.
const Version = 1

// Header identifies the device a stream was recorded on, carrying enough to
// rebuild an equivalent device for replay.
type Header struct {
	Version    int         `json:"version"`
	Target     string      `json:"target"`    // architecture name (device.Target.String)
	TargetID   int         `json:"target_id"` // architecture enum value
	Module     dram.Module `json:"module"`
	Functional bool        `json:"functional"`
	// Optimized lists the streamopt passes applied to this stream, in the
	// order they ran; empty for a stream exactly as recorded. Replay uses it
	// to relax the sequential-allocation divergence check: an optimized
	// stream may have gaps in its ObjID sequence (dead-alloc elimination),
	// so its allocations replay by explicit ID instead.
	Optimized []string `json:"optimized,omitempty"`
	// Faults carries the fault-injection configuration active during
	// recording. Injection is keyed by (seed, write sequence), so a replay
	// built from this header reproduces the recorded run's injected data
	// and fault counters bit-for-bit.
	Faults *fault.Config `json:"faults,omitempty"`
}

// validate checks the header's schema version, module geometry, and fault
// configuration. Every decoder (JSON and binary) runs it before yielding the
// first record.
func (h *Header) validate() error {
	if h.Version != Version {
		return fmt.Errorf("cmdstream: unsupported stream version %d (want %d)", h.Version, Version)
	}
	if err := h.Module.Validate(); err != nil {
		return fmt.Errorf("cmdstream: stream header: %w", err)
	}
	if err := h.Faults.Validate(); err != nil {
		return fmt.Errorf("cmdstream: stream header: %w", err)
	}
	return nil
}

// Stream is a recorded command stream: the device header plus the ordered
// records of every operation dispatched while recording was enabled.
type Stream struct {
	Header  Header   `json:"header"`
	Records []Record `json:"records"`
}

// Format selects a stream wire encoding.
type Format int

const (
	// FormatJSON is the human-readable encoding: one stream object with
	// header and records, floats in shortest round-trip form.
	FormatJSON Format = iota
	// FormatBinary is the bit-packed encoding (DESIGN.md §13): dense enums,
	// varint ids, payload elements at their true width, chunked frames.
	FormatBinary
)

// ParseFormat maps the command-line spellings ("json", "bin"/"binary") onto
// a Format.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "json":
		return FormatJSON, nil
	case "bin", "binary":
		return FormatBinary, nil
	}
	return 0, fmt.Errorf("cmdstream: unknown stream format %q (want json or bin)", s)
}

// String returns the canonical spelling accepted by ParseFormat.
func (f Format) String() string {
	if f == FormatBinary {
		return "bin"
	}
	return "json"
}

// NewWriter returns a Sink encoding records to w in the given format. The
// sink buffers internally; Close flushes but does not close w.
func NewWriter(w io.Writer, f Format) Sink {
	if f == FormatBinary {
		return newBinaryWriter(w)
	}
	return newJSONWriter(w)
}

// OpenSource returns a streaming decoder for r, auto-detecting the encoding
// from the first bytes: binary streams open with the "PIMB" magic, JSON
// streams with (possibly whitespace-preceded) '{'. Anything else fails with
// ErrFormat. The source reads from r incrementally and never closes it.
func OpenSource(r io.Reader) (Source, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	for {
		head, err := br.Peek(len(binMagic))
		if len(head) == 0 {
			return nil, binErr("header", errOrEOF(err))
		}
		switch head[0] {
		case ' ', '\t', '\r', '\n':
			br.ReadByte()
			continue
		case '{':
			return newJSONSource(br)
		}
		if len(head) == len(binMagic) && string(head) == binMagic {
			return newBinSource(br)
		}
		if len(head) < len(binMagic) && string(head) == binMagic[:len(head)] {
			// Input ended partway through the binary magic: the stream is
			// recognizably binary but cut short.
			return nil, binErr("header", io.ErrUnexpectedEOF)
		}
		return nil, fmt.Errorf("cmdstream: decode: %w", ErrFormat)
	}
}

// errOrEOF normalizes a nil Peek error on empty input to io.EOF.
func errOrEOF(err error) error {
	if err == nil {
		return io.EOF
	}
	return err
}

// Encode writes the stream as JSON. Float fields round-trip exactly
// (encoding/json emits shortest-form float64), so a decoded stream replays
// to bit-identical statistics.
func (s *Stream) Encode(w io.Writer) error {
	return s.EncodeFormat(w, FormatJSON)
}

// EncodeBinary writes the stream in the bit-packed binary encoding.
func (s *Stream) EncodeBinary(w io.Writer) error {
	return s.EncodeFormat(w, FormatBinary)
}

// EncodeFormat writes the stream in the given encoding through the same
// streaming writer a recording sink uses.
func (s *Stream) EncodeFormat(w io.Writer, f Format) error {
	return Pump(NewWriter(w, f), FromStream(s))
}

// Decode reads an encoded stream — JSON or binary, auto-detected — fully
// into memory and validates its header and structure. Truncated input fails
// with an error wrapping ErrTruncated; unrecognizable input with ErrFormat.
// For bounded-memory decoding of large streams use OpenSource instead.
func Decode(r io.Reader) (*Stream, error) {
	src, err := OpenSource(r)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	s, err := Collect(src)
	if err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// knownKinds is the set of record kinds the replayer dispatches.
var knownKinds = map[Kind]bool{
	KindAlloc: true, KindFree: true, KindCopyH2D: true, KindCopyD2H: true,
	KindCopyD2D: true, KindCopyD2DRange: true, KindExec: true, KindHost: true,
	KindRepeatBegin: true, KindRepeatEnd: true,
}

// ScopeCheck is the structural check every record walker — Validate, the
// replayer, and the streaming optimizer — runs one record at a time: every
// record kind must be known, and repeat scopes must be non-nested, carry a
// positive factor, and close only a scope that is open. The zero value is
// the state at the start of a stream.
type ScopeCheck struct{ open bool }

// Check validates rec against the records checked so far.
func (c *ScopeCheck) Check(rec *Record) error {
	if !knownKinds[rec.Kind] {
		return fmt.Errorf("cmdstream: seq %d: unknown record kind %q", rec.Seq, rec.Kind)
	}
	switch rec.Kind {
	case KindRepeatBegin:
		if c.open {
			return fmt.Errorf("cmdstream: seq %d: nested repeat scope", rec.Seq)
		}
		if rec.Repeat < 1 {
			return fmt.Errorf("cmdstream: seq %d: repeat scope with factor %d", rec.Seq, rec.Repeat)
		}
		c.open = true
	case KindRepeatEnd:
		if !c.open {
			return fmt.Errorf("cmdstream: seq %d: repeat.end without matching begin", rec.Seq)
		}
		c.open = false
	}
	return nil
}

// InScope reports whether the last checked record opened or sits inside a
// repeat scope that has not been closed yet.
func (c *ScopeCheck) InScope() bool { return c.open }

// End is called at end of stream: a scope still open there fails with an
// error wrapping ErrTruncated.
func (c *ScopeCheck) End() error {
	if c.open {
		return fmt.Errorf("cmdstream: %w: unterminated repeat scope", ErrTruncated)
	}
	return nil
}

// Validate runs ScopeCheck over the whole materialized stream. Decode runs
// it so a malformed stream is rejected up front instead of executing a
// prefix before failing mid-replay; Replay and the optimizer run it for
// streams constructed in memory.
func (s *Stream) Validate() error {
	var c ScopeCheck
	for i := range s.Records {
		if err := c.Check(&s.Records[i]); err != nil {
			return err
		}
	}
	return c.End()
}

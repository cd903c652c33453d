package cmdstream

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// The streaming faces of the JSON stream encoding. The wire layout is
// exactly what (*Stream).Encode produces — {"header":{…},"records":[{…},…]}
// with a trailing newline — but the reader yields one record at a time and
// the writer emits records as they arrive, so JSON streams also flow through
// the record pipeline without materializing. (Each record's payload still
// materializes as one []int64 while it is current; only the binary format
// streams payloads in sub-record chunks.)

// jsonSource streams records out of a JSON-encoded stream.
type jsonSource struct {
	dec       *json.Decoder
	h         Header
	rec       Record
	inRecords bool // positioned inside the records array
	done      bool
}

// newJSONSource parses the header and positions the decoder at the first
// record. The header is validated before any record is decoded.
func newJSONSource(r io.Reader) (*jsonSource, error) {
	s := &jsonSource{dec: json.NewDecoder(r)}
	if err := s.expectDelim('{', "stream object"); err != nil {
		return nil, err
	}
	tok, err := s.dec.Token()
	if err != nil {
		return nil, jsonErr("header", err)
	}
	if key, ok := tok.(string); !ok || key != "header" {
		return nil, fmt.Errorf("cmdstream: decode: stream must open with its header, got key %v", tok)
	}
	if err := s.dec.Decode(&s.h); err != nil {
		return nil, jsonErr("header", err)
	}
	if err := s.h.validate(); err != nil {
		return nil, err
	}
	tok, err = s.dec.Token()
	if err != nil {
		return nil, jsonErr("records", err)
	}
	switch t := tok.(type) {
	case json.Delim:
		if t == '}' {
			s.done = true
			return s, nil
		}
		return nil, fmt.Errorf("cmdstream: decode: unexpected %v after header", t)
	case string:
		if t != "records" {
			return nil, fmt.Errorf("cmdstream: decode: unexpected key %q after header", t)
		}
	default:
		return nil, fmt.Errorf("cmdstream: decode: unexpected token %v after header", tok)
	}
	tok, err = s.dec.Token()
	if err != nil {
		return nil, jsonErr("records", err)
	}
	switch t := tok.(type) {
	case json.Delim:
		if t != '[' {
			return nil, fmt.Errorf("cmdstream: decode: records must be an array, got %v", t)
		}
		s.inRecords = true
	case nil:
		// "records":null — an empty stream.
		if err := s.finish(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("cmdstream: decode: records must be an array, got %v", tok)
	}
	return s, nil
}

func (s *jsonSource) expectDelim(d json.Delim, what string) error {
	tok, err := s.dec.Token()
	if err != nil {
		return jsonErr(what, err)
	}
	if t, ok := tok.(json.Delim); !ok || t != d {
		return fmt.Errorf("cmdstream: decode: expected %q in %s, got %v", d, what, tok)
	}
	return nil
}

// finish consumes the closing brace after the records array.
func (s *jsonSource) finish() error {
	s.done = true
	s.inRecords = false
	return s.expectDelim('}', "stream object")
}

func (s *jsonSource) Header() Header { return s.h }

func (s *jsonSource) Next() (*Record, error) {
	if s.done || !s.inRecords {
		return nil, io.EOF
	}
	if !s.dec.More() {
		// Consume the closing ']' and '}' so truncation surfaces here, not
		// silently as a short stream.
		if err := s.expectDelim(']', "records"); err != nil {
			return nil, err
		}
		if err := s.finish(); err != nil {
			return nil, err
		}
		return nil, io.EOF
	}
	s.rec = Record{}
	if err := s.dec.Decode(&s.rec); err != nil {
		return nil, jsonErr("record", err)
	}
	return &s.rec, nil
}

func (s *jsonSource) Close() error { return nil }

// jsonErr wraps a JSON decoding failure: truncation maps onto ErrTruncated
// so callers can distinguish a cut-off stream from malformed content.
func jsonErr(what string, err error) error {
	if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("cmdstream: decode %s: %w", what, ErrTruncated)
	}
	return fmt.Errorf("cmdstream: decode %s: %w", what, err)
}

// jsonWriter streams records into the JSON encoding.
type jsonWriter struct {
	w     *bufio.Writer
	wrote bool // at least one record written
	began bool
}

// newJSONWriter returns a Sink writing the JSON stream encoding to w. Close
// flushes but does not close w.
func newJSONWriter(w io.Writer) *jsonWriter { return &jsonWriter{w: bufio.NewWriter(w)} }

func (jw *jsonWriter) Begin(h Header) error {
	if jw.began {
		return fmt.Errorf("cmdstream: json writer: Begin called twice")
	}
	jw.began = true
	hb, err := json.Marshal(h)
	if err != nil {
		return err
	}
	if _, err := jw.w.WriteString(`{"header":`); err != nil {
		return err
	}
	if _, err := jw.w.Write(hb); err != nil {
		return err
	}
	_, err = jw.w.WriteString(`,"records":[`)
	return err
}

func (jw *jsonWriter) Write(rec *Record) error {
	if !jw.began {
		return fmt.Errorf("cmdstream: json writer: Write before Begin")
	}
	if jw.wrote {
		if err := jw.w.WriteByte(','); err != nil {
			return err
		}
	}
	jw.wrote = true
	w, err := rec.Widened()
	if err != nil {
		return err
	}
	rb, err := json.Marshal(&w)
	if err != nil {
		return err
	}
	_, err = jw.w.Write(rb)
	return err
}

func (jw *jsonWriter) Close() error {
	if !jw.began {
		return fmt.Errorf("cmdstream: json writer: Close before Begin")
	}
	if _, err := jw.w.WriteString("]}\n"); err != nil {
		return err
	}
	return jw.w.Flush()
}

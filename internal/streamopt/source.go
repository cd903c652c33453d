package streamopt

import (
	"io"

	"pimeval/internal/cmdstream"
)

// Window bounds for the streaming optimizer: a window closes at the first
// scope boundary after windowRecs records or windowPayloadElems payload
// elements, whichever comes first. Payloads are held as they were
// materialized (cmdstream.Materialize): packed at their element width, so a
// full window holds 8 to 64 MiB of payload. The bound counts elements, not
// bytes, so window boundaries do not depend on the payload form. Repeat
// scopes never split across windows (hoisting is scope-local), so a window
// can exceed the bounds by the length of one scope body.
const (
	windowRecs         = 4096
	windowPayloadElems = 8 << 20
)

// OptimizeSource runs the enabled passes over a streaming source. The
// returned source pulls one bounded window of records at a time and hands
// it to the pass driver (run), so multi-GB streams optimize with O(window)
// memory. Every pass is window-local: per-window dead-code elimination,
// scheduling, and fusion are weaker than Optimize's whole-stream passes only
// where liveness or adjacency crosses a window boundary; hoisting is
// scope-local and never is. The header stamp is the same as Optimize's.
//
// The returned Result is shared with the returned source and is only final
// once the source has been drained to io.EOF (the passes count work as
// windows flow through). Streams recorded under corrupting fault injection
// pass through untouched with Result.Skipped set, exactly like Optimize.
func OptimizeSource(src cmdstream.Source, cfg Config) (cmdstream.Source, *Result, error) {
	res := &Result{}
	if !cfg.any() {
		return src, res, nil
	}
	h := src.Header()
	if res.Skipped = skipReason(h); res.Skipped != "" {
		return src, res, nil
	}
	h.Optimized = cfg.names()
	return &windowSource{src: src, cfg: cfg, res: res, h: h}, res, nil
}

// windowSource runs the pass driver over windows of records pulled from an
// underlying source. Output records are renumbered sequentially (records
// can be eliminated), so the stream always replays with by-ID allocation —
// the header's Optimized stamp guarantees that.
type windowSource struct {
	src  cmdstream.Source
	cfg  Config
	res  *Result
	h    cmdstream.Header
	win  []cmdstream.Record
	pos  int
	seq  int64
	done bool
}

func (s *windowSource) Header() cmdstream.Header { return s.h }

func (s *windowSource) Next() (*cmdstream.Record, error) {
	for s.pos >= len(s.win) {
		if s.done {
			return nil, io.EOF
		}
		if err := s.fill(); err != nil {
			return nil, err
		}
	}
	rec := &s.win[s.pos]
	s.pos++
	s.seq++
	rec.Seq = s.seq
	return rec, nil
}

func (s *windowSource) Close() error { return s.src.Close() }

// fill pulls the next window from the source, checking scope structure
// incrementally (Optimize gets this from Stream.Validate), and runs the
// pass driver over it.
func (s *windowSource) fill() error {
	s.win = s.win[:0]
	s.pos = 0
	var payload int64
	var sc cmdstream.ScopeCheck
	for {
		if !sc.InScope() && (len(s.win) >= windowRecs || payload >= windowPayloadElems) {
			break
		}
		rec, err := s.src.Next()
		if err == io.EOF {
			if err := sc.End(); err != nil {
				return err
			}
			s.done = true
			break
		}
		if err != nil {
			return err
		}
		if err := sc.Check(rec); err != nil {
			return err
		}
		if err := cmdstream.Materialize(s.src, rec); err != nil {
			return err
		}
		s.win = append(s.win, *rec)
		payload += rec.PayloadLen()
	}
	s.win = run(s.win, s.cfg, s.res)
	return nil
}

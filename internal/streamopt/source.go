package streamopt

import (
	"io"

	"pimeval/internal/cmdstream"
)

// Window bounds for the streaming optimizer: a window closes at the first
// scope boundary after windowRecs records or windowPayloadElems payload
// elements (64 MiB at 8 bytes/element), whichever comes first. Repeat
// scopes never split across windows (hoisting is scope-local), so a window
// can exceed the bounds by the length of one scope body.
const (
	windowRecs         = 4096
	windowPayloadElems = 8 << 20
)

// OptimizeSource runs the enabled passes over a streaming source. When the
// configuration needs only dead-code elimination and/or hoisting, the
// returned source applies them over a bounded sliding window — multi-GB
// streams optimize with O(window) memory, at the cost of a weaker
// (window-local) DCE, stamped "deadcode.window" in the header. Scheduling
// and fusion need whole-stream liveness, so enabling either materializes
// the source (Collect), runs the slice pipeline, and streams the result
// back out.
//
// The returned Result is shared with the returned source and is only final
// once the source has been drained to io.EOF (the streaming passes count
// work as windows flow through). Streams recorded under corrupting fault
// injection pass through untouched with Result.Skipped set, exactly like
// Optimize.
func OptimizeSource(src cmdstream.Source, cfg Config) (cmdstream.Source, *Result, error) {
	res := &Result{}
	if !cfg.any() {
		return src, res, nil
	}
	h := src.Header()
	if f := h.Faults; f != nil && (f.TransientBitRate > 0 || f.StuckBits > 0 || f.FailedCores > 0) {
		res.Skipped = "stream records corrupting fault injection (write-sequence keyed)"
		return src, res, nil
	}
	if cfg.Schedule || cfg.Fuse {
		s, err := cmdstream.Collect(src)
		if err != nil {
			return nil, nil, err
		}
		out, r, err := Optimize(s, cfg)
		if err != nil {
			return nil, nil, err
		}
		*res = r
		return cmdstream.FromStream(out), res, nil
	}
	h.Optimized = windowNames(cfg)
	return &windowSource{src: src, cfg: cfg, res: res, h: h}, res, nil
}

// windowNames lists the streaming passes for the header stamp. Windowed DCE
// is weaker than whole-stream DCE (it only proves deadness within a
// window), so it is stamped distinctly; hoisting is scope-local and
// therefore identical in both modes.
func windowNames(cfg Config) []string {
	var n []string
	if cfg.DeadCode {
		n = append(n, "deadcode.window")
	}
	if cfg.Hoist {
		n = append(n, "hoist")
	}
	return n
}

// windowSource applies window-local passes to records pulled from an
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
// incrementally (the slice pipeline gets this from Stream.Validate), and
// runs the enabled passes over it.
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
		payload += int64(len(rec.Data))
	}
	if len(s.win) == 0 {
		return nil
	}
	if s.cfg.DeadCode {
		var n int
		s.win, n = deadCode(s.win)
		s.res.Eliminated += n
	}
	if s.cfg.Hoist {
		var n int
		s.win, n = hoist(s.win)
		s.res.Hoisted += n
	}
	return nil
}

package cmdstream

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"pimeval/internal/isa"
)

// Pipelined stage adapters (DESIGN.md §14).
//
// PipelineSource moves a Source's decode work onto its own goroutine so a
// consumer (typically replay execution) overlaps I/O + decode with compute;
// AsyncSink does the same on the producing side, moving encode + write work
// off the recording goroutine. Both are order-preserving bounded queues:
// records, payload frames, and errors arrive at the far side in exactly the
// sequence the wrapped stage produced them, so the replayed write sequence —
// and with it fault injection, ECC, statistics, latency, and energy — is
// bit-identical to the serial path.

const (
	// defaultPipelineDepth bounds how many decoded records may sit between
	// the decode and execute stages.
	defaultPipelineDepth = 256
	// pipelineFrameTokens bounds in-flight h2d payload frames: one being
	// filled by the decoder, one being consumed by the executor, plus slack
	// so the decoder can stay a full payload ahead while the executor is
	// inside a long compute phase — that read-ahead is what hides source
	// latency (disk, network) behind execution. The producer borrows a
	// buffer before every read, including the one that finds a payload's
	// end, so the fifth buffer is what lets it pass that end, and send the
	// records behind it, while four frames are in flight. Frames travel
	// packed and each buffer grows to the frames it holds: a canonical
	// frame is 128 KiB of uint8 elements, at most 1 MiB of 8-byte ones, so
	// the window is at most 5 MiB — bounded for out-of-core replay.
	pipelineFrameTokens = 5
	// maxPipelineElems bounds the inline payload elements (Record.Data of
	// JSON-decoded records, Record.Packed of materialized ones, plus
	// segmented-reduction results; Record.PayloadLen) buffered between
	// stages: 8 Mi elements, at most 64 MiB. The frame
	// free list already bounds streamed payloads; this bounds the rest, so
	// a pipelined replay of a payload-heavy stream stays out-of-core.
	maxPipelineElems = 8 << 20
)

// pipeMsg is one hop of the decode→execute queue: a record, a payload
// frame, a payload terminator, or the stream-terminal error (io.EOF on a
// clean end).
type pipeMsg struct {
	rec     *Record
	w       int64 // inline elems charged against maxPipelineElems
	chunked bool  // rec's h2d payload follows as frame messages
	dt      isa.DataType
	frame   []byte // packed at dt's width
	end     bool   // payload terminator
	err     error
}

// PipelineSource wraps a Source and runs it on a dedicated goroutine,
// staying one bounded window of records ahead of the consumer. It
// implements FrameReader (and ChunkedSource) regardless of the wrapped
// source: the producer reads each streamed h2d payload frame into a buffer
// borrowed from a small recycled free list (ReadPayloadFrame) and forwards
// it, never materialized, and always packed — a wrapped source with only
// the []int64 face has each chunk packed as an isa.Int64 frame
// (packedFace), so frames travel in one form only.
//
// Close shuts the decode goroutine down and releases the buffers, but does
// not close the wrapped source — the caller keeps ownership, so a pipeline
// can be layered around any stage (a format decoder, an OptimizeSource
// window, another pipeline) without stealing its lifecycle.
//
// A PipelineSource is not safe for concurrent consumers; like every Source
// it serves one reader.
type PipelineSource struct {
	src  Source
	h    Header
	msgs chan pipeMsg
	free chan []byte // frame-buffer tokens; nil entries allocate lazily
	quit chan struct{}
	done chan struct{} // producer exited
	// recs recycles record structs from the consumer to the producer,
	// buffered to the queue depth, the most records in flight. It is a
	// channel, not a sync.Pool: the runtime's pool registry would pin the
	// whole pipeline, frame buffers and wrapped decoder included, for up to
	// two collections after Close.
	recs chan *Record

	elems atomic.Int64  // in-flight inline payload elements
	space chan struct{} // signaled when elems drops below the cap

	// Consumer-side state.
	cur     *Record
	curW    int64
	frameR  bytes.Reader // reads a buffered frame for ReadPayloadFrame's fn
	pending bool
	err     error
	chunks  chunker

	closeOnce sync.Once
}

var _ Source = (*PipelineSource)(nil)
var _ FrameReader = (*PipelineSource)(nil)

// NewPipelineSource returns src wrapped in a decode-ahead pipeline stage
// holding at most depth records (<= 0 selects the default). The wrapped
// source must not be used directly until Close returns.
func NewPipelineSource(src Source, depth int) *PipelineSource {
	if depth <= 0 {
		depth = defaultPipelineDepth
	}
	p := &PipelineSource{
		src:   src,
		h:     src.Header(),
		msgs:  make(chan pipeMsg, depth),
		recs:  make(chan *Record, depth),
		free:  make(chan []byte, pipelineFrameTokens),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
		space: make(chan struct{}, 1),
	}
	for i := 0; i < pipelineFrameTokens; i++ {
		p.free <- nil
	}
	go p.produce()
	return p
}

// Header returns the wrapped source's header.
func (p *PipelineSource) Header() Header { return p.h }

// produce is the decode stage: it pulls records (and payload frames) from
// the wrapped source and forwards them, in order, through the bounded
// queue. The first error — io.EOF included — terminates the stream. Each
// payload frame is read into a buffer borrowed before the read, so a
// closing pipeline never starts an input read it would have to wait out.
func (p *PipelineSource) produce() {
	defer close(p.done)
	// A panic in the wrapped source would otherwise kill the process from
	// this goroutine, out of every caller's reach; it surfaces as the
	// consumer's next error instead.
	defer func() {
		if r := recover(); r != nil {
			p.send(pipeMsg{err: fmt.Errorf("cmdstream: pipeline source panicked: %v", r)})
		}
	}()
	fr := packedFace(p.src)
	for {
		rec, err := p.src.Next()
		if err != nil {
			p.send(pipeMsg{err: err})
			return
		}
		var cp *Record
		select {
		case cp = <-p.recs:
		default:
			cp = new(Record)
		}
		// Shallow copy: the Source contract guarantees slice fields are
		// fresh per record, so only the backing struct needs its own copy.
		*cp = *rec
		chunked := fr != nil && rec.Kind == KindCopyH2D && fr.PendingPayload()
		w := cp.PayloadLen() + int64(len(cp.Results))
		if w > 0 {
			p.elems.Add(w)
		}
		if !p.send(pipeMsg{rec: cp, w: w, chunked: chunked}) {
			return
		}
		if w > 0 && !p.throttle() {
			return
		}
		for chunked {
			buf, ok := p.frame()
			if !ok {
				return
			}
			var dt isa.DataType
			err := fr.ReadPayloadFrame(func(t isa.DataType, size int, r io.Reader) error {
				if cap(buf) < size {
					buf = make([]byte, size)
				}
				dt, buf = t, buf[:size]
				_, err := io.ReadFull(r, buf)
				return err
			})
			switch {
			case err == io.EOF:
				p.free <- buf // the token just borrowed: its slot is free
				chunked = false
				if !p.send(pipeMsg{end: true}) {
					return
				}
			case err != nil:
				p.send(pipeMsg{err: err})
				return
			case !p.send(pipeMsg{dt: dt, frame: buf}):
				return
			}
		}
	}
}

// send forwards one message, reporting false if the pipeline was closed.
// Close is checked first so a closing pipeline wins over an open queue slot
// and the producer exits promptly.
func (p *PipelineSource) send(m pipeMsg) bool {
	select {
	case <-p.quit:
		return false
	default:
	}
	select {
	case p.msgs <- m:
		return true
	case <-p.quit:
		return false
	}
}

// throttle blocks while the in-flight inline payload volume exceeds the
// cap, reporting false if the pipeline was closed.
func (p *PipelineSource) throttle() bool {
	for p.elems.Load() > maxPipelineElems {
		select {
		case <-p.space:
		case <-p.quit:
			return false
		}
	}
	return true
}

// frame borrows a payload frame buffer token, reporting false if the
// pipeline was closed.
func (p *PipelineSource) frame() ([]byte, bool) {
	select {
	case buf := <-p.free:
		return buf, true
	case <-p.quit:
		return nil, false
	}
}

// recycle returns the previously delivered record to the producer's pool
// and releases its inline-payload budget.
func (p *PipelineSource) recycle() {
	if p.cur == nil {
		return
	}
	if p.curW > 0 {
		if p.elems.Add(-p.curW) <= maxPipelineElems {
			select {
			case p.space <- struct{}{}:
			default:
			}
		}
	}
	*p.cur = Record{}
	select {
	case p.recs <- p.cur:
	default:
	}
	p.cur, p.curW = nil, 0
}

// Next returns the next record. An undrained pending payload is discarded
// first, mirroring the binary decoder's contract.
func (p *PipelineSource) Next() (*Record, error) {
	if p.err != nil {
		return nil, p.err
	}
	for p.pending {
		if err := p.ReadPayloadFrame(skipFrame); err != nil {
			if err == io.EOF {
				break
			}
			return nil, err
		}
	}
	p.recycle()
	msg := <-p.msgs
	if msg.err != nil {
		p.err = msg.err
		return nil, p.err
	}
	p.cur, p.curW, p.pending = msg.rec, msg.w, msg.chunked
	return msg.rec, nil
}

// PendingPayload reports whether the record last returned by Next has a
// streamed h2d payload still to be drained.
func (p *PipelineSource) PendingPayload() bool { return p.pending }

// ReadPayloadFrame reads the next buffered payload frame of the pending h2d
// record through fn, or returns io.EOF after the last one. The frame's
// buffer goes back to the producer as soon as fn returns.
func (p *PipelineSource) ReadPayloadFrame(fn FrameFunc) error {
	if p.err != nil {
		return p.err
	}
	if !p.pending {
		return io.EOF
	}
	msg := <-p.msgs
	switch {
	case msg.err != nil:
		p.pending = false
		p.err = msg.err
		return p.err
	case msg.end:
		p.pending = false
		return io.EOF
	}
	p.frameR.Reset(msg.frame)
	err := fn(msg.dt, len(msg.frame), &p.frameR)
	p.frameR.Reset(nil)
	p.free <- msg.frame // the frame's token: its slot is free
	return err
}

// NextPayloadChunk returns the next payload frame widened to int64
// carriers; see chunker.
func (p *PipelineSource) NextPayloadChunk() ([]int64, error) {
	return p.chunks.chunk(p)
}

// Close stops the decode goroutine and waits for it to exit. The wrapped
// source is not closed. Close is idempotent and must not race a concurrent
// Next; call it once the consumer is done (or failed).
func (p *PipelineSource) Close() error {
	p.closeOnce.Do(func() { close(p.quit) })
	// Drain until the producer observes quit or finishes, so its blocked
	// send (if any) resolves and buffers quiesce before we return.
	for {
		select {
		case <-p.done:
			p.cur = nil
			return nil
		case <-p.msgs:
		}
	}
}

const (
	// defaultAsyncDepth bounds how many records may sit between the
	// recording and encode stages of an AsyncSink.
	defaultAsyncDepth = 256
	// maxAsyncElems bounds the payload elements those records may carry in
	// aggregate (64 MiB), so recording a payload-heavy stream does not
	// buffer the payloads wholesale.
	maxAsyncElems = 8 << 20
)

// AsyncSink wraps a Sink and runs its Write path on a dedicated goroutine,
// so stream encoding overlaps the work (execution, optimization) that
// produces the records. Records are forwarded in order through a bounded
// queue of recycled copies; like the device recorder itself, write errors are
// deferred — the first one is returned by Close (and by any Write after it
// surfaces). Begin is forwarded synchronously so header errors stay
// immediate.
//
// The caller must not mutate a record's slice fields after Write returns
// (the same retention rule every Sink implementation relies on).
type AsyncSink struct {
	inner Sink
	msgs  chan asyncMsg
	done  chan struct{}
	recs  chan *Record // recycled record copies; see PipelineSource.recs

	elems atomic.Int64
	space chan struct{}

	failed atomic.Bool
	err    error // set before failed/done are visible
	began  bool
	closed bool
}

type asyncMsg struct {
	rec *Record
	w   int64
}

var _ Sink = (*AsyncSink)(nil)

// NewAsyncSink returns sink wrapped in an encode-stage pipeline holding at
// most depth records (<= 0 selects the default). Close drains the queue,
// closes the wrapped sink, and returns the first deferred error.
func NewAsyncSink(sink Sink, depth int) *AsyncSink {
	if depth <= 0 {
		depth = defaultAsyncDepth
	}
	return &AsyncSink{
		inner: sink,
		msgs:  make(chan asyncMsg, depth),
		done:  make(chan struct{}),
		recs:  make(chan *Record, depth),
		space: make(chan struct{}, 1),
	}
}

// Begin forwards the header and starts the encode goroutine.
func (a *AsyncSink) Begin(h Header) error {
	if a.began {
		return a.inner.Begin(h) // surface the duplicate-Begin error
	}
	if err := a.inner.Begin(h); err != nil {
		return err
	}
	a.began = true
	go a.encode()
	return nil
}

// encode is the sink stage: it drains queued records into the wrapped sink
// in order. After the first error it keeps draining (discarding) so the
// producer never blocks on a dead sink.
func (a *AsyncSink) encode() {
	defer close(a.done)
	for m := range a.msgs {
		if !a.failed.Load() {
			if err := a.inner.Write(m.rec); err != nil {
				a.err = err
				a.failed.Store(true)
			}
		}
		if m.w > 0 {
			if a.elems.Add(-m.w) <= maxAsyncElems {
				select {
				case a.space <- struct{}{}:
				default:
				}
			}
		}
		*m.rec = Record{}
		select {
		case a.recs <- m.rec:
		default:
		}
	}
}

// Write enqueues a shallow copy of rec for the encode goroutine.
func (a *AsyncSink) Write(rec *Record) error {
	if !a.began {
		return a.inner.Write(rec) // surface the Write-before-Begin error
	}
	if a.failed.Load() {
		return a.err
	}
	var cp *Record
	select {
	case cp = <-a.recs:
	default:
		cp = new(Record)
	}
	*cp = *rec
	w := cp.PayloadLen() + int64(len(cp.Results))
	if w > 0 {
		a.elems.Add(w)
	}
	a.msgs <- asyncMsg{rec: cp, w: w}
	for a.elems.Load() > maxAsyncElems {
		select {
		case <-a.space:
		case <-a.done:
			return a.err
		}
	}
	return nil
}

// Close drains the queue, closes the wrapped sink, and returns the first
// deferred error (a Write failure takes precedence over the Close error).
func (a *AsyncSink) Close() error {
	if a.closed {
		return a.inner.Close() // surface the double-Close error
	}
	a.closed = true
	if !a.began {
		return a.inner.Close()
	}
	close(a.msgs)
	<-a.done
	cerr := a.inner.Close()
	if a.err != nil {
		return a.err
	}
	return cerr
}

package cmdstream

import (
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
	// latency (disk, network) behind execution. Frames travel packed, at
	// most 1 MiB each (a canonical frame of 8-byte elements), so the window
	// is at most 4 MiB — bounded for out-of-core replay.
	pipelineFrameTokens = 4
	// maxPipelineElems bounds the inline payload elements (Record.Data of
	// JSON-decoded or materialized records, plus segmented-reduction
	// results) buffered between stages: 8 Mi elements = 64 MiB. The frame
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
// implements PackedSource regardless of the wrapped source: streamed h2d
// payloads are forwarded frame by frame through a small recycled-buffer
// pool, never materialized, and always as packed frames — a wrapped source
// with only the []int64 face has each chunk packed as an isa.Int64 frame
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
	recs sync.Pool

	elems atomic.Int64  // in-flight inline payload elements
	space chan struct{} // signaled when elems drops below the cap

	// Consumer-side state.
	cur      *Record
	curW     int64
	curFrame []byte
	pending  bool
	err      error
	chunks   chunker

	closeOnce sync.Once
}

var _ Source = (*PipelineSource)(nil)
var _ PackedSource = (*PipelineSource)(nil)

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
// queue. The first error — io.EOF included — terminates the stream.
// payloadBufferSwapper is an optional PackedSource extension (implemented
// by the binary decoder and forwarded by CountingSource) that lets the
// pipeline trade a recycled frame buffer for the decoder's filled one
// instead of copying up to 1 MiB per frame. It reports false when the
// source cannot swap (a forwarder over a source without the extension).
type payloadBufferSwapper interface {
	swapPayloadBuffer(buf []byte) ([]byte, bool)
}

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
	ps := packedFace(p.src)
	sw, _ := p.src.(payloadBufferSwapper)
	for {
		rec, err := p.src.Next()
		if err != nil {
			p.send(pipeMsg{err: err})
			return
		}
		cp, _ := p.recs.Get().(*Record)
		if cp == nil {
			cp = new(Record)
		}
		// Shallow copy: the Source contract guarantees slice fields are
		// fresh per record, so only the backing struct needs its own copy.
		*cp = *rec
		chunked := ps != nil && rec.Kind == KindCopyH2D && ps.PendingPayload()
		w := int64(len(cp.Data) + len(cp.Results))
		if w > 0 {
			p.elems.Add(w)
		}
		if !p.send(pipeMsg{rec: cp, w: w, chunked: chunked}) {
			return
		}
		if w > 0 && !p.throttle() {
			return
		}
		if !chunked {
			continue
		}
		for {
			dt, frame, cerr := ps.NextPayloadFrame()
			if cerr == io.EOF {
				if !p.send(pipeMsg{end: true}) {
					return
				}
				break
			}
			if cerr != nil {
				p.send(pipeMsg{err: cerr})
				return
			}
			buf, ok := p.frame()
			if !ok {
				return
			}
			// Zero-copy where the source can swap: re-arm the decoder with
			// the recycled buffer and ship the one it just filled (frame's
			// backing array).
			swapped := false
			if sw != nil {
				_, swapped = sw.swapPayloadBuffer(buf)
			}
			if swapped {
				buf = frame
			} else {
				buf = append(buf[:0], frame...)
			}
			if !p.send(pipeMsg{dt: dt, frame: buf}) {
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
	p.recs.Put(p.cur)
	p.cur, p.curW = nil, 0
}

// releaseFrame hands the consumed frame buffer back to the free list.
func (p *PipelineSource) releaseFrame() {
	if p.curFrame != nil {
		select {
		case p.free <- p.curFrame:
		default:
		}
		p.curFrame = nil
	}
}

// Next returns the next record. An undrained pending payload is discarded
// first, mirroring the chunked-decoder contract.
func (p *PipelineSource) Next() (*Record, error) {
	if p.err != nil {
		return nil, p.err
	}
	for p.pending {
		if _, _, err := p.NextPayloadFrame(); err != nil {
			if err == io.EOF {
				break
			}
			return nil, err
		}
	}
	p.releaseFrame()
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

// NextPayloadFrame returns the next packed payload frame of the pending
// h2d record, or io.EOF after the last one. The returned bytes are recycled
// after the next NextPayloadFrame, NextPayloadChunk or Next call.
func (p *PipelineSource) NextPayloadFrame() (isa.DataType, []byte, error) {
	if p.err != nil {
		return 0, nil, p.err
	}
	if !p.pending {
		return 0, nil, io.EOF
	}
	p.releaseFrame()
	msg := <-p.msgs
	switch {
	case msg.err != nil:
		p.pending = false
		p.err = msg.err
		return 0, nil, p.err
	case msg.end:
		p.pending = false
		return 0, nil, io.EOF
	default:
		p.curFrame = msg.frame
		return msg.dt, msg.frame, nil
	}
}

// NextPayloadChunk returns the next payload frame widened to int64
// carriers; see chunker.
func (p *PipelineSource) NextPayloadChunk() ([]int64, error) {
	return p.chunks.chunk(p.NextPayloadFrame())
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
			p.cur, p.curFrame = nil, nil
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
// queue of pooled copies; like the device recorder itself, write errors are
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
	pool  sync.Pool

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
		a.pool.Put(m.rec)
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
	cp, _ := a.pool.Get().(*Record)
	if cp == nil {
		cp = new(Record)
	}
	*cp = *rec
	w := int64(len(cp.Data) + len(cp.Results))
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

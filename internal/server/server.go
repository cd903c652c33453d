// Package server implements PIM-as-a-service: an HTTP server that accepts
// recorded command streams (binary PIMB or JSON, auto-detected) and
// multiplexes many concurrent client sessions over a bounded pool of
// simulated devices.
//
// Each submitted stream becomes one session: a fresh device is built from
// the stream's header (its own object namespace, statistics, and fault
// state — nothing is shared between tenants), the stream replays against it
// under the request's context, and the response carries the replayed run's
// metrics, artifact report, per-command CSV, and fault counters —
// byte-identical to what a local pim.ReplaySource of the same stream
// observes. Admission control bounds the work in flight: a device-slot pool
// caps concurrent replays, a bounded queue absorbs bursts, per-tenant
// token-bucket quotas throttle hot clients, and everything beyond those
// bounds is rejected immediately with 429 + Retry-After instead of queueing
// without limit. Aggregated statistics (the internal/stats counters of
// every completed session, folded through a stats.Locked) and server-level
// gauges are exposed on /metrics.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"pimeval/internal/cmdstream"
	"pimeval/internal/device"
)

// StatusClientClosedRequest is logged (nginx-style) when the client
// disconnected mid-replay; the response itself is never seen.
const StatusClientClosedRequest = 499

// Config describes one server instance. The zero value serves with the
// defaults noted on each field.
type Config struct {
	// Devices caps how many replays run concurrently (the device-slot
	// pool). 0 selects 4.
	Devices int
	// Queue caps how many admitted requests may wait for a free slot
	// beyond the active ones; a request arriving with the queue full is
	// rejected with 429. 0 selects 2*Devices; negative disables queueing.
	Queue int
	// Workers bounds each session device's functional worker pool
	// (pim.Config.Workers). 0 selects 1 — with many sessions in flight the
	// pool-level parallelism is across sessions, not within one.
	Workers int
	// TenantRate is the per-tenant token-bucket refill rate in sessions
	// per second; 0 disables quotas.
	TenantRate float64
	// TenantBurst is the bucket capacity; 0 selects max(1, ceil(rate)).
	TenantBurst int
	// MaxBodyBytes caps a submitted stream's encoded size; 0 selects 1 GiB.
	MaxBodyBytes int64
	// Pipelined selects decode-ahead replay (cmdstream.ReplayOptions.
	// Pipelined) as the default; a request may override it with
	// ?pipelined=0/1. Results are bit-identical either way.
	Pipelined bool
	// Logger receives structured request logs; nil discards them.
	Logger *slog.Logger
	// StateDir enables the durability layer: a write-ahead session journal,
	// periodic device checkpoints, and a done-record store that answers
	// retried idempotent submissions after a restart (see Recover). Empty
	// keeps dedup in memory only and journals nothing.
	StateDir string
	// CheckpointEvery is the record interval between device checkpoints for
	// journaled sessions. 0 selects 4096; negative disables checkpoints
	// (recovery then replays journaled sessions from scratch).
	CheckpointEvery int64
	// SessionTimeout bounds one session's wall-clock replay time; an
	// exceeded deadline fails the session with 504. 0 disables the bound.
	SessionTimeout time.Duration
}

func (c Config) devices() int {
	if c.Devices <= 0 {
		return 4
	}
	return c.Devices
}

func (c Config) queue() int {
	if c.Queue < 0 {
		return 0
	}
	if c.Queue == 0 {
		return 2 * c.devices()
	}
	return c.Queue
}

func (c Config) workers() int {
	if c.Workers <= 0 {
		return 1
	}
	return c.Workers
}

func (c Config) maxBody() int64 {
	if c.MaxBodyBytes <= 0 {
		return 1 << 30
	}
	return c.MaxBodyBytes
}

func (c Config) checkpointEvery() int64 {
	if c.CheckpointEvery < 0 {
		return 0
	}
	if c.CheckpointEvery == 0 {
		return 4096
	}
	return c.CheckpointEvery
}

// Server is one stream-execution service instance. Create with New; it
// serves HTTP via ServeHTTP (it is an http.Handler).
type Server struct {
	cfg Config
	log *slog.Logger

	mux   *http.ServeMux
	slots chan struct{} // buffered semaphore: len(slots) = active replays
	queue atomic.Int64  // requests waiting for a slot

	quotas *quotas
	met    *metrics
	dur    *durability

	instance string       // random tag namespacing this process's journal files
	sessions atomic.Int64 // session-id counter

	mu       sync.Mutex
	draining bool
	inflight int
	idle     chan struct{} // closed when draining and inflight hits zero
	drainCh  chan struct{} // closed when draining starts; wakes queued waiters

	now func() time.Time

	// testHookReplayStart, when set, runs with the device slot held
	// immediately before the replay begins, receiving the request context —
	// test scaffolding for deterministic saturation and cancellation
	// scenarios.
	testHookReplayStart func(ctx context.Context, tenant, session string)
	// testHookSource, when set, wraps each session's decoded source before
	// replay — test scaffolding for observing which payload face the
	// replay reads.
	testHookSource func(cmdstream.Source) cmdstream.Source
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Server{
		cfg:      cfg,
		log:      log,
		slots:    make(chan struct{}, cfg.devices()),
		met:      newMetrics(),
		idle:     make(chan struct{}),
		drainCh:  make(chan struct{}),
		now:      time.Now,
		instance: newInstanceID(),
	}
	s.dur = newDurability(cfg.StateDir, log, s.met)
	s.quotas = newQuotas(cfg.TenantRate, cfg.TenantBurst, func() time.Time { return s.now() })
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/submit", s.handleSubmit)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	return s
}

// ServeHTTP dispatches to the server's endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain stops admitting new sessions (503) and waits until every in-flight
// session has finished or ctx expires. Queued requests that have not yet
// acquired a slot are released with 503; running replays complete normally.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.drainCh)
		if s.inflight == 0 {
			close(s.idle)
		}
	}
	n := s.inflight
	s.mu.Unlock()
	if n == 0 {
		return nil
	}
	select {
	case <-s.idle:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain: %d sessions still in flight: %w", s.inflightCount(), ctx.Err())
	}
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

func (s *Server) inflightCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight
}

// begin registers one in-flight request; it fails once draining started.
func (s *Server) begin() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight++
	return true
}

func (s *Server) end() {
	s.mu.Lock()
	s.inflight--
	if s.draining && s.inflight == 0 {
		close(s.idle)
	}
	s.mu.Unlock()
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// statusForOpen maps a failure to open the submitted stream at all: anything
// wrong at open time — bad magic, unsupported version, malformed header —
// is the client's input, except the body limit tripping.
func statusForOpen(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// statusFor maps a decode or replay failure onto an HTTP status: malformed
// input (truncated, bad magic, bad header, semantic stream errors) is the
// client's fault; cancellation is the client going away; an uncorrectable
// injected memory error or a recovered panic is a server-side failure.
func statusFor(err error) int {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, cmdstream.ErrTruncated), errors.Is(err, cmdstream.ErrFormat):
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		// The session timeout fired server-side: the client may retry.
		return http.StatusGatewayTimeout
	case errors.Is(err, device.ErrCanceled):
		return StatusClientClosedRequest
	case errors.Is(err, device.ErrBadArgument), errors.Is(err, device.ErrBadObject),
		errors.Is(err, device.ErrShapeMismatch), errors.Is(err, device.ErrFreed),
		errors.Is(err, device.ErrOutOfMemory):
		return http.StatusBadRequest
	case errors.Is(err, device.ErrUncorrectable), errors.Is(err, device.ErrPanic):
		return http.StatusInternalServerError
	}
	// Structural stream errors detected mid-replay (unknown record kind,
	// divergence) carry no sentinel: the stream was syntactically valid but
	// not executable as sent.
	return http.StatusUnprocessableEntity
}

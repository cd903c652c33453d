package server

import (
	"context"
	"math"
	"sync"
	"time"
)

// Admission control: a session must pass the tenant's token bucket, then
// acquire a device slot. Slot acquisition tries immediately, then waits in a
// bounded queue; a full queue rejects right away so saturation surfaces as
// fast, deterministic 429s (with Retry-After) instead of unbounded latency.

// acquire claims a device slot for one session. On success it returns a
// release function and 0. Otherwise release is nil and status is the HTTP
// status to reject with: 429 (queue full), 499 (caller gave up waiting), or
// 503 (drain started while queued).
func (s *Server) acquire(ctx context.Context) (release func(), status int) {
	select {
	case s.slots <- struct{}{}:
		return s.release, 0
	default:
	}
	if s.queue.Add(1) > int64(s.cfg.queue()) {
		s.queue.Add(-1)
		return nil, 429
	}
	defer s.queue.Add(-1)
	select {
	case s.slots <- struct{}{}:
		return s.release, 0
	case <-ctx.Done():
		return nil, StatusClientClosedRequest
	case <-s.drainCh:
		return nil, 503
	}
}

func (s *Server) release() { <-s.slots }

// active returns the number of replays currently holding a device slot.
func (s *Server) active() int { return len(s.slots) }

// quotas is the per-tenant token-bucket table. Buckets refill continuously
// at rate tokens/second up to burst; one session costs one token. The clock
// is injected so tests drive refill deterministically.
//
// A bucket that would be full now behaves exactly like an absent one, which
// admit creates full, so the table forgets such buckets (sweep): its size
// follows the tenants seen within the last burst/rate seconds, not every
// tenant name a client ever sent.
type quotas struct {
	rate  float64
	burst float64
	now   func() time.Time

	mu      sync.Mutex
	m       map[string]*bucket
	sweepAt int // table size at which a new tenant triggers a sweep
}

// minQuotaSweep is the smallest table size that triggers a sweep.
const minQuotaSweep = 64

type bucket struct {
	tokens float64
	last   time.Time
}

func newQuotas(rate float64, burst int, now func() time.Time) *quotas {
	b := float64(burst)
	if burst <= 0 {
		b = math.Max(1, math.Ceil(rate))
	}
	return &quotas{rate: rate, burst: b, now: now, m: make(map[string]*bucket), sweepAt: minQuotaSweep}
}

// admit spends one token from the tenant's bucket. When the bucket is
// empty it reports the wait until the next token accrues, which becomes the
// response's Retry-After.
func (q *quotas) admit(tenant string) (ok bool, retryAfter time.Duration) {
	if q.rate <= 0 {
		return true, 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	n := q.now()
	b := q.m[tenant]
	if b == nil {
		if len(q.m) >= q.sweepAt {
			q.sweep(n)
		}
		b = &bucket{tokens: q.burst, last: n}
		q.m[tenant] = b
	} else {
		b.tokens = math.Min(q.burst, b.tokens+n.Sub(b.last).Seconds()*q.rate)
		b.last = n
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / q.rate * float64(time.Second))
}

// sweep drops every bucket that would be full at n: the refill in admit
// caps it at burst, which is the fresh bucket an absent tenant gets, so no
// decision changes. The next sweep waits until the table has doubled, so
// sweeping costs amortised O(1) per new tenant.
func (q *quotas) sweep(n time.Time) {
	for tenant, b := range q.m {
		if b.tokens+n.Sub(b.last).Seconds()*q.rate >= q.burst {
			delete(q.m, tenant)
		}
	}
	q.sweepAt = max(minQuotaSweep, 2*len(q.m))
}

// retryAfterSeconds renders a Retry-After duration as whole seconds,
// rounding up so the client never retries early (minimum 1).
func retryAfterSeconds(d time.Duration) int {
	sec := int(math.Ceil(d.Seconds()))
	if sec < 1 {
		sec = 1
	}
	return sec
}

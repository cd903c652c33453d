package server

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestQuotaTableBounded drives a seeded trace of admits, half from tenants
// never seen before and half from two hot tenants that overrun their
// rate, on an
// injected clock. Every decision and Retry-After must equal an unbounded
// reference table's (the same code with sweeping off), while the table
// stays bounded by the tenants active within the last burst/rate seconds.
func TestQuotaTableBounded(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		clock := time.Unix(1_700_000_000, 0)
		now := func() time.Time { return clock }
		q := newQuotas(10, 3, now)
		ref := newQuotas(10, 3, now)
		ref.sweepAt = math.MaxInt

		const admits = 20000
		maxLen, rejected := 0, 0
		for i := 0; i < admits; i++ {
			clock = clock.Add(time.Duration(rng.Intn(50)) * time.Millisecond)
			tenant := fmt.Sprintf("fresh-%d", i)
			if rng.Intn(2) == 0 {
				tenant = fmt.Sprintf("hot-%d", rng.Intn(2))
			}
			ok, retry := q.admit(tenant)
			wantOK, wantRetry := ref.admit(tenant)
			if ok != wantOK || retry != wantRetry {
				t.Fatalf("seed %d admit %d (%s): got (%v, %v), unbounded table (%v, %v)",
					seed, i, tenant, ok, retry, wantOK, wantRetry)
			}
			if !ok {
				rejected++
			}
			maxLen = max(maxLen, len(q.m))
		}
		t.Logf("seed %d: %d rejected, table peak %d, reference %d", seed, rejected, maxLen, len(ref.m))
		if rejected == 0 {
			t.Errorf("seed %d: no admit was rejected; the trace never empties a bucket", seed)
		}
		if len(ref.m) < admits/3 {
			t.Fatalf("seed %d: reference table holds %d tenants; the trace has too few fresh ones", seed, len(ref.m))
		}
		if maxLen > 2*minQuotaSweep {
			t.Errorf("seed %d: quota table reached %d buckets, want at most %d (reference %d)",
				seed, maxLen, 2*minQuotaSweep, len(ref.m))
		}
	}
}

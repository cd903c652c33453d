package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pimeval/internal/cmdstream"
	"pimeval/internal/device"
	"pimeval/pim"
)

// submitKey posts an encoded stream with an Idempotency-Key and returns the
// status, the raw response body, and whether the server answered from its
// idempotency store.
func submitKey(t *testing.T, ts *httptest.Server, enc []byte, tenant, key string) (int, []byte, bool) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/submit", bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-PIM-Tenant", tenant)
	}
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw, resp.Header.Get("X-PIM-Deduplicated") == "1"
}

func decodeResult(t *testing.T, raw []byte) *SubmitResult {
	t.Helper()
	var sr SubmitResult
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatalf("decode response: %v\n%s", err, raw)
	}
	return &sr
}

// TestIdempotencyDedup: resubmitting a key replays the stored response
// byte-identically without executing (or counting) the session again; the
// same key under a different tenant is a different session.
func TestIdempotencyDedup(t *testing.T) {
	srv := New(Config{Devices: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	enc := encodeStream(t, recordStream(t, pim.Config{Target: pim.Fulcrum, Functional: true}), pim.StreamBinary)

	st1, body1, dedup1 := submitKey(t, ts, enc, "tenant-a", "key-1")
	if st1 != http.StatusOK || dedup1 {
		t.Fatalf("first submit: status %d dedup %v", st1, dedup1)
	}
	st2, body2, dedup2 := submitKey(t, ts, enc, "tenant-a", "key-1")
	if st2 != http.StatusOK || !dedup2 {
		t.Fatalf("retried submit: status %d dedup %v", st2, dedup2)
	}
	if !bytes.Equal(body1, body2) {
		t.Errorf("retried response not byte-identical:\n first: %s\nretry: %s", body1, body2)
	}
	checkMatches(t, decodeResult(t, body2), localExpected(t, enc, 1))

	// Same key, different tenant: a fresh session, not a dedup hit.
	st3, _, dedup3 := submitKey(t, ts, enc, "tenant-b", "key-1")
	if st3 != http.StatusOK || dedup3 {
		t.Fatalf("cross-tenant submit: status %d dedup %v", st3, dedup3)
	}

	snap := metricsSnapshot(t, ts)
	if snap.SessionsTotal != 2 {
		t.Errorf("sessions_total = %d, want 2 (dedup hit must not re-count)", snap.SessionsTotal)
	}
	if snap.DedupHits != 1 {
		t.Errorf("dedup_hits = %d, want 1", snap.DedupHits)
	}
	if snap.ActiveSessions != 0 {
		t.Errorf("active_sessions = %d, want 0", snap.ActiveSessions)
	}
}

// TestDoneRecordSyncedBeforeJournalUnlink: a journaled session makes its
// done record durable, directory entry included, before it unlinks any of
// its journal files. Were the unlinks to reach the disk without the done
// record's rename, a power loss would leave no record of the key and no
// journal to recover it from, and a retry would run the session twice.
func TestDoneRecordSyncedBeforeJournalUnlink(t *testing.T) {
	dir := t.TempDir()
	srv := New(Config{Devices: 1, StateDir: dir})
	var mu sync.Mutex
	var events []string
	srv.dur.testHookFS = func(op, path string) {
		mu.Lock()
		defer mu.Unlock()
		events = append(events, op+" "+path)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	enc := encodeStream(t, recordStream(t, pim.Config{Target: pim.Fulcrum, Functional: true}), pim.StreamBinary)
	if st, _, _ := submitKey(t, ts, enc, "tenant-a", "key-1"); st != http.StatusOK {
		t.Fatalf("submit: status %d", st)
	}
	mu.Lock()
	defer mu.Unlock()
	doneSync, firstUnlink := -1, -1
	for i, ev := range events {
		switch {
		case ev == "syncdir "+filepath.Join(dir, "done") && doneSync < 0:
			doneSync = i
		case strings.HasPrefix(ev, "remove "+filepath.Join(dir, "journal")) && firstUnlink < 0:
			firstUnlink = i
		}
	}
	if doneSync < 0 || firstUnlink < 0 || doneSync > firstUnlink {
		t.Fatalf("done directory sync at event %d, first journal unlink at %d; events:\n%s",
			doneSync, firstUnlink, strings.Join(events, "\n"))
	}
}

// TestIdempotencyConcurrent: duplicate submissions racing the primary wait
// for it and receive its exact stored response — the session executes once.
func TestIdempotencyConcurrent(t *testing.T) {
	srv := New(Config{Devices: 4})
	started := make(chan struct{})
	proceed := make(chan struct{})
	var once sync.Once
	srv.testHookReplayStart = func(ctx context.Context, tenant, session string) {
		once.Do(func() { close(started) })
		<-proceed
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	enc := encodeStream(t, recordStream(t, pim.Config{Target: pim.Fulcrum, Functional: true}), pim.StreamBinary)

	type result struct {
		status int
		body   []byte
		dedup  bool
	}
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			st, body, dedup := submitKey(t, ts, enc, "t", "race-key")
			results <- result{st, body, dedup}
		}()
		if i == 0 {
			// Let the first request become primary and reach the replay hook
			// before the duplicate arrives.
			<-started
		}
	}
	// The duplicate is now either queued behind claim() or holding a slot of
	// its own; release the primary.
	time.Sleep(50 * time.Millisecond)
	close(proceed)

	a, b := <-results, <-results
	if a.status != http.StatusOK || b.status != http.StatusOK {
		t.Fatalf("statuses %d, %d", a.status, b.status)
	}
	if !bytes.Equal(a.body, b.body) {
		t.Error("primary and duplicate responses differ")
	}
	if a.dedup == b.dedup {
		t.Errorf("expected exactly one deduplicated response (got %v, %v)", a.dedup, b.dedup)
	}
	snap := metricsSnapshot(t, ts)
	if snap.SessionsTotal != 1 {
		t.Errorf("sessions_total = %d, want 1", snap.SessionsTotal)
	}
	if snap.DedupHits != 1 {
		t.Errorf("dedup_hits = %d, want 1", snap.DedupHits)
	}
}

// crashJournal writes a session's journal through the real journaling path
// and "crashes" before any outcome is decided: meta + spooled stream (and,
// with checkpointAt > 0, a device snapshot mid-replay) survive on disk.
func crashJournal(t *testing.T, srv *Server, fileBase string, meta sessionMeta, enc []byte, checkpointEvery int64) {
	t.Helper()
	j, err := srv.dur.beginJournal(fileBase, meta)
	if err != nil {
		t.Fatal(err)
	}
	if j == nil {
		t.Fatal("journaling disabled despite StateDir")
	}
	if checkpointEvery > 0 {
		// Replay the stream while teeing it through the journal, taking real
		// checkpoints — then "crash" without finishing.
		src, err := cmdstream.OpenSource(io.TeeReader(bytes.NewReader(enc), j))
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		d, err := device.NewFromHeader(src.Header(), 1)
		if err != nil {
			t.Fatal(err)
		}
		err = cmdstream.ReplaySourceOpts(d, src, cmdstream.ReplayOptions{
			CheckpointEvery: checkpointEvery,
			Checkpoint:      func(cursor int64) error { j.checkpoint(d, cursor); return nil },
		})
		if err != nil {
			t.Fatal(err)
		}
	} else if _, err := j.Write(enc); err != nil {
		t.Fatal(err)
	}
	j.close() // the file handle dies with the process; the bytes survive
}

// TestRecoverJournaledSession: a crashed instance's journal is finished by
// the next instance's Recover — once from scratch, once resuming from a
// checkpoint — and the recovered result answers the client's retry
// bit-identically to an uninterrupted local replay.
func TestRecoverJournaledSession(t *testing.T) {
	enc := encodeStream(t, recordStream(t, pim.Config{
		Target: pim.Fulcrum, Functional: true,
		Faults: &pim.FaultConfig{Seed: 7, TransientBitRate: 1e-7, ECC: true},
	}), pim.StreamBinary)
	want := localExpected(t, enc, 1)

	for _, tc := range []struct {
		name            string
		checkpointEvery int64
	}{
		{"from-scratch", 0},
		{"from-checkpoint", 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			srv1 := New(Config{Devices: 1, StateDir: dir})
			crashJournal(t, srv1, srv1.instance+"-s-000001",
				sessionMeta{Session: "s-000001", Tenant: "default", Key: "crash-key"},
				enc, tc.checkpointEvery)
			if tc.checkpointEvery > 0 {
				if _, err := os.Stat(filepath.Join(dir, "journal", srv1.instance+"-s-000001.snap")); err != nil {
					t.Fatalf("no checkpoint written: %v", err)
				}
			}

			srv2 := New(Config{Devices: 1, StateDir: dir})
			rs, err := srv2.Recover(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if rs.Recovered != 1 || rs.Discarded != 0 {
				t.Fatalf("recovery stats %+v, want 1 recovered", rs)
			}

			ts := httptest.NewServer(srv2)
			defer ts.Close()
			st, body, dedup := submitKey(t, ts, enc, "default", "crash-key")
			if st != http.StatusOK || !dedup {
				t.Fatalf("retry after recovery: status %d dedup %v", st, dedup)
			}
			checkMatches(t, decodeResult(t, body), want)

			snap := metricsSnapshot(t, ts)
			if snap.SessionsRecovered != 1 {
				t.Errorf("sessions_recovered = %d, want 1", snap.SessionsRecovered)
			}
			if snap.SessionsTotal != 1 {
				t.Errorf("sessions_total = %d, want 1 (recovered session counted exactly once)", snap.SessionsTotal)
			}
			assertJournalEmpty(t, dir)
		})
	}
}

func assertJournalEmpty(t *testing.T, dir string) {
	t.Helper()
	left, err := filepath.Glob(filepath.Join(dir, "journal", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("journal files leaked: %v", left)
	}
}

// TestRecoverDiscards: truncated spools (the client never finished
// submitting), keyless journals, and garbage metadata are all discarded —
// cleanly, with the counter ticking, never a wrong result.
func TestRecoverDiscards(t *testing.T) {
	enc := encodeStream(t, recordStream(t, pim.Config{Target: pim.Fulcrum, Functional: true}), pim.StreamBinary)
	dir := t.TempDir()
	srv1 := New(Config{Devices: 1, StateDir: dir})

	// Truncated spool: only half the stream arrived before the crash.
	crashJournal(t, srv1, srv1.instance+"-s-000001",
		sessionMeta{Session: "s-000001", Tenant: "default", Key: "truncated-key"},
		enc[:len(enc)/2], 0)
	// No idempotency key: the result would be undeliverable.
	crashJournal(t, srv1, srv1.instance+"-s-000002",
		sessionMeta{Session: "s-000002", Tenant: "default"}, enc, 0)
	// Garbage metadata.
	if err := os.WriteFile(filepath.Join(dir, "journal", "zz-bogus.meta.json"),
		[]byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	srv2 := New(Config{Devices: 1, StateDir: dir})
	rs, err := srv2.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rs.Recovered != 0 || rs.Discarded != 3 {
		t.Fatalf("recovery stats %+v, want 0 recovered / 3 discarded", rs)
	}
	if got := srv2.met.recoveryDiscarded.Load(); got != 3 {
		t.Errorf("recovery_discarded = %d, want 3", got)
	}
	assertJournalEmpty(t, dir)

	// The truncated session's key must NOT be answered from the store: the
	// retry re-executes with the full stream.
	ts := httptest.NewServer(srv2)
	defer ts.Close()
	st, body, dedup := submitKey(t, ts, enc, "default", "truncated-key")
	if st != http.StatusOK || dedup {
		t.Fatalf("retry of discarded session: status %d dedup %v", st, dedup)
	}
	checkMatches(t, decodeResult(t, body), localExpected(t, enc, 1))
}

// TestRecoverCorruptSnapshot: a damaged checkpoint falls back to replaying
// the spool from scratch; the recovered result is still bit-identical.
func TestRecoverCorruptSnapshot(t *testing.T) {
	enc := encodeStream(t, recordStream(t, pim.Config{Target: pim.Fulcrum, Functional: true}), pim.StreamBinary)
	dir := t.TempDir()
	srv1 := New(Config{Devices: 1, StateDir: dir})
	crashJournal(t, srv1, srv1.instance+"-s-000001",
		sessionMeta{Session: "s-000001", Tenant: "default", Key: "snap-key"}, enc, 8)

	// Corrupt the checkpoint: flip a byte in the middle.
	snapPath := filepath.Join(dir, "journal", srv1.instance+"-s-000001.snap")
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(snapPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2 := New(Config{Devices: 1, StateDir: dir})
	rs, err := srv2.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rs.Recovered != 1 {
		t.Fatalf("recovery stats %+v, want 1 recovered (scratch fallback)", rs)
	}
	ts := httptest.NewServer(srv2)
	defer ts.Close()
	st, body, dedup := submitKey(t, ts, enc, "default", "snap-key")
	if st != http.StatusOK || !dedup {
		t.Fatalf("retry: status %d dedup %v", st, dedup)
	}
	checkMatches(t, decodeResult(t, body), localExpected(t, enc, 1))
}

// TestRecoverForeignSnapshot: a checkpoint that restores cleanly but was
// taken from a device with another header (here, another fault
// configuration) fails CheckResume. Recovery replays the spool from
// scratch, bit-identically to a local replay, and logs why it refused the
// checkpoint.
func TestRecoverForeignSnapshot(t *testing.T) {
	enc := encodeStream(t, recordStream(t, pim.Config{Target: pim.Fulcrum, Functional: true}), pim.StreamBinary)
	foreign := encodeStream(t, recordStream(t, pim.Config{
		Target: pim.Fulcrum, Functional: true,
		Faults: &pim.FaultConfig{Seed: 7, TransientBitRate: 1e-7, ECC: true},
	}), pim.StreamBinary)
	dir := t.TempDir()
	srv1 := New(Config{Devices: 1, StateDir: dir})
	crashJournal(t, srv1, srv1.instance+"-s-000001",
		sessionMeta{Session: "s-000001", Tenant: "default", Key: "foreign-key"}, enc, 0)
	crashJournal(t, srv1, srv1.instance+"-s-000002",
		sessionMeta{Session: "s-000002", Tenant: "default", Key: "donor-key"}, foreign, 8)

	// Plant the donor's checkpoint as the first session's, and drop the
	// donor so only the planted journal is recovered.
	journal := filepath.Join(dir, "journal", srv1.instance)
	if err := os.Rename(journal+"-s-000002.snap", journal+"-s-000001.snap"); err != nil {
		t.Fatal(err)
	}
	for _, ext := range []string{".meta.json", ".stream"} {
		if err := os.Remove(journal + "-s-000002" + ext); err != nil {
			t.Fatal(err)
		}
	}

	var logBuf bytes.Buffer
	srv2 := New(Config{Devices: 1, StateDir: dir, Logger: slog.New(slog.NewTextHandler(&logBuf, nil))})
	rs, err := srv2.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rs.Recovered != 1 || rs.Discarded != 0 {
		t.Fatalf("recovery stats %+v, want 1 recovered (scratch fallback)", rs)
	}
	var refused string
	for _, line := range strings.Split(logBuf.String(), "\n") {
		if strings.Contains(line, "checkpoint unusable") {
			refused = line
		}
	}
	if refused == "" || strings.Contains(refused, "err=<nil>") || !strings.Contains(refused, "does not match snapshot") {
		t.Errorf("refused checkpoint logged as %q, want the header mismatch error\n%s", refused, logBuf.String())
	}
	if !strings.Contains(logBuf.String(), "resumed_at=0") {
		t.Errorf("recovery did not replay from scratch:\n%s", logBuf.String())
	}

	ts := httptest.NewServer(srv2)
	defer ts.Close()
	st, body, dedup := submitKey(t, ts, enc, "default", "foreign-key")
	if st != http.StatusOK || !dedup {
		t.Fatalf("retry: status %d dedup %v", st, dedup)
	}
	checkMatches(t, decodeResult(t, body), localExpected(t, enc, 1))
	assertJournalEmpty(t, dir)
}

// TestJournalCleanupAfterSuccess: a completed session leaves no journal
// files behind — only the done record for its key.
func TestJournalCleanupAfterSuccess(t *testing.T) {
	dir := t.TempDir()
	srv := New(Config{Devices: 1, StateDir: dir, CheckpointEvery: 8})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	enc := encodeStream(t, recordStream(t, pim.Config{Target: pim.Fulcrum, Functional: true}), pim.StreamBinary)

	st, body, _ := submitKey(t, ts, enc, "default", "clean-key")
	if st != http.StatusOK {
		t.Fatalf("status %d", st)
	}
	if sr := decodeResult(t, body); len(sr.Warnings) != 0 {
		t.Errorf("unexpected warnings: %v", sr.Warnings)
	}
	assertJournalEmpty(t, dir)
	done, err := filepath.Glob(filepath.Join(dir, "done", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 1 {
		t.Errorf("done records = %d, want 1", len(done))
	}

	// A fresh instance on the same directory answers the retry from disk.
	srv2 := New(Config{Devices: 1, StateDir: dir})
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	st2, body2, dedup2 := submitKey(t, ts2, enc, "default", "clean-key")
	if st2 != http.StatusOK || !dedup2 {
		t.Fatalf("cross-instance retry: status %d dedup %v", st2, dedup2)
	}
	if !bytes.Equal(body2[:len(body2)-1], body) && !bytes.Equal(body2, body) {
		t.Error("cross-instance retried response not byte-identical")
	}
}

// TestStateDirUnavailable: an unusable state directory disables journaling
// (counted in /metrics) but never fails sessions.
func TestStateDirUnavailable(t *testing.T) {
	// A file where the directory should be makes MkdirAll fail.
	bad := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(bad, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Devices: 1, StateDir: bad})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	enc := encodeStream(t, recordStream(t, pim.Config{Target: pim.Fulcrum, Functional: true}), pim.StreamBinary)
	st, _, _ := submitKey(t, ts, enc, "default", "k")
	if st != http.StatusOK {
		t.Fatalf("status %d", st)
	}
	if snap := metricsSnapshot(t, ts); snap.JournalErrors == 0 {
		t.Error("journal_errors = 0, want > 0")
	}
}

// TestSessionTimeout: a replay exceeding Config.SessionTimeout fails with
// 504, and the device slot is released.
func TestSessionTimeout(t *testing.T) {
	srv := New(Config{Devices: 1, SessionTimeout: 30 * time.Millisecond})
	srv.testHookReplayStart = func(ctx context.Context, tenant, session string) {
		<-ctx.Done() // hold the replay until the session deadline fires
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	enc := encodeStream(t, recordStream(t, pim.Config{Target: pim.Fulcrum, Functional: true}), pim.StreamBinary)
	st, _, _ := submitKey(t, ts, enc, "default", "")
	if st != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", st)
	}
	if snap := metricsSnapshot(t, ts); snap.ActiveSessions != 0 {
		t.Errorf("active_sessions = %d, want 0", snap.ActiveSessions)
	}
}

package server

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"pimeval/internal/cmdstream"
	"pimeval/internal/device"
)

// This file is the server's durability layer (DESIGN.md §16): idempotent
// re-submission via client-supplied Idempotency-Key headers, a write-ahead
// session journal, periodic device checkpoints for long sessions, and
// restart recovery that finishes journaled sessions exactly once.
//
// State directory layout (Config.StateDir):
//
//	journal/<instance>-<session>.meta.json   write-ahead intent record
//	journal/<instance>-<session>.stream      spooled stream bytes (verbatim)
//	journal/<instance>-<session>.snap        latest device checkpoint (PIMS)
//	done/<sha256(tenant\nkey)>.json          completed response, replayed to retries
//
// Recovery protocol (Server.Recover, run before serving): for every journal
// meta record — newest state wins — (1) a done record for its key already
// exists → the session completed, delete the journal; (2) no idempotency
// key → the result is undeliverable, discard; (3) otherwise restore the
// checkpoint if one is readable (falling back to a from-scratch replay on
// any snapshot error) and replay the spooled stream's tail. A truncated
// spool means the client never finished submitting — discard; the client's
// retry carries the full stream. Success stores a done record, so the
// retry is answered from the store instead of replaying twice:
// exactly-once completion, proven bit-identical by the recovery battery.

// sessionMeta is the journal's write-ahead intent record, persisted before
// the first stream byte is spooled.
type sessionMeta struct {
	Session   string `json:"session"`
	Tenant    string `json:"tenant"`
	Key       string `json:"key,omitempty"`
	Pipelined bool   `json:"pipelined"`
}

// doneRecord is a completed session's stored response, replayed verbatim
// (status, body bytes) to any duplicate submission of the same key.
type doneRecord struct {
	Key    string          `json:"key"`
	Status int             `json:"status"`
	Body   json.RawMessage `json:"body"`
}

type inflightEntry struct{ ch chan struct{} }

// durability owns idempotency dedup (always on, in memory) and the on-disk
// journal/done stores (active when dir is non-empty).
type durability struct {
	dir string
	log *slog.Logger
	met *metrics

	mu       sync.Mutex
	done     map[string]*doneRecord
	inflight map[string]*inflightEntry
}

func newDurability(dir string, log *slog.Logger, met *metrics) *durability {
	d := &durability{
		dir: dir, log: log, met: met,
		done:     make(map[string]*doneRecord),
		inflight: make(map[string]*inflightEntry),
	}
	if dir != "" {
		for _, sub := range []string{"journal", "done"} {
			if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
				log.Error("state dir unavailable; journaling disabled", "dir", dir, "err", err)
				met.journalErrors.Add(1)
				d.dir = ""
				break
			}
		}
	}
	return d
}

// dedupKey scopes an idempotency key to its tenant.
func dedupKey(tenant, key string) string { return tenant + "\n" + key }

func (d *durability) donePath(k string) string {
	sum := sha256.Sum256([]byte(k))
	return filepath.Join(d.dir, "done", hex.EncodeToString(sum[:])+".json")
}

// claim resolves an idempotency key to exactly one of: a stored result to
// replay, a channel to wait on (another request is executing this key), or
// a primary token — this request executes the session and must resolve the
// token with its outcome.
func (d *durability) claim(k string) (*doneRecord, <-chan struct{}, *primaryToken) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if rec := d.doneLocked(k); rec != nil {
		return rec, nil, nil
	}
	if e := d.inflight[k]; e != nil {
		return nil, e.ch, nil
	}
	e := &inflightEntry{ch: make(chan struct{})}
	d.inflight[k] = e
	return nil, nil, &primaryToken{d: d, key: k, e: e}
}

// lookup returns the stored result for a key, if any.
func (d *durability) lookup(k string) *doneRecord {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.doneLocked(k)
}

// doneLocked consults the in-memory store, falling back to disk (and
// caching the hit) so dedup survives restarts. Caller holds d.mu.
func (d *durability) doneLocked(k string) *doneRecord {
	if rec := d.done[k]; rec != nil {
		return rec
	}
	if d.dir == "" {
		return nil
	}
	buf, err := os.ReadFile(d.donePath(k))
	if err != nil {
		return nil
	}
	var rec doneRecord
	if json.Unmarshal(buf, &rec) != nil || rec.Key == "" || rec.Status == 0 {
		return nil
	}
	d.done[k] = &rec
	return &rec
}

// storeDone persists a completed result (atomic tmp+rename). Failures are
// counted and logged; the in-memory store still answers retries within
// this process's lifetime.
func (d *durability) storeDone(k string, rec *doneRecord) {
	if d.dir == "" {
		return
	}
	buf, err := json.Marshal(rec)
	if err == nil {
		err = atomicWrite(d.donePath(k), buf)
	}
	if err != nil {
		d.met.journalErrors.Add(1)
		d.log.Error("store done record", "err", err)
	}
}

// primaryToken marks its holder as the single executor for an idempotency
// key. resolve releases duplicate waiters; with a record it also publishes
// the result for them (and for restarts). Safe on a nil token, safe to
// call more than once.
type primaryToken struct {
	d        *durability
	key      string
	e        *inflightEntry
	resolved bool
}

func (t *primaryToken) resolve(rec *doneRecord) {
	if t == nil || t.resolved {
		return
	}
	t.resolved = true
	if rec != nil {
		t.d.storeDone(t.key, rec)
	}
	t.d.mu.Lock()
	if rec != nil {
		t.d.done[t.key] = rec
	}
	delete(t.d.inflight, t.key)
	t.d.mu.Unlock()
	close(t.e.ch)
}

// atomicWrite writes data to path via a temp file, fsync, and rename.
func atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// journal spools one in-flight session to disk: the meta intent record, a
// verbatim copy of the stream bytes as they arrive, and periodic device
// checkpoints. Spool and checkpoint failures never fail the session — they
// are recorded, counted in /metrics, and surfaced as response warnings;
// only the crash-recovery guarantee degrades.
type journal struct {
	dur  *durability
	base string // path prefix: <dir>/journal/<instance>-<session>

	spool    *os.File
	closed   bool
	spoolErr error // first spool write/sync failure
	ckptErr  error // first checkpoint failure
	ckptOff  bool  // checkpoints disabled after a failure
}

// beginJournal opens a journal for one session, writing the meta record
// ahead of any stream byte. Returns nil with no error when journaling is
// disabled.
func (d *durability) beginJournal(fileBase string, meta sessionMeta) (*journal, error) {
	if d == nil || d.dir == "" {
		return nil, nil
	}
	base := filepath.Join(d.dir, "journal", fileBase)
	mb, err := json.Marshal(meta)
	if err != nil {
		return nil, err
	}
	if err := atomicWrite(base+".meta.json", mb); err != nil {
		return nil, err
	}
	spool, err := os.Create(base + ".stream")
	if err != nil {
		os.Remove(base + ".meta.json")
		return nil, err
	}
	return &journal{dur: d, base: base, spool: spool}, nil
}

// Write is the spool tee target: it never fails the caller's read path.
func (j *journal) Write(p []byte) (int, error) {
	if j.spoolErr == nil && !j.closed {
		if _, err := j.spool.Write(p); err != nil {
			j.spoolErr = err
			j.dur.met.journalErrors.Add(1)
		}
	}
	return len(p), nil
}

// checkpoint persists a recovery point: the spool is synced first so the
// snapshot's cursor never points past the bytes a crash would preserve,
// then the snapshot lands atomically (tmp+rename). Any failure disables
// further checkpoints; the session continues.
func (j *journal) checkpoint(dev *device.Device, cursor int64) {
	if j == nil || j.ckptOff || j.closed {
		return
	}
	err := j.spool.Sync()
	if err == nil {
		var f *os.File
		tmp := j.base + ".snap.tmp"
		if f, err = os.Create(tmp); err == nil {
			if err = dev.WriteSnapshot(f, cursor); err == nil {
				err = f.Sync()
			}
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err == nil {
				err = os.Rename(tmp, j.base+".snap")
			} else {
				os.Remove(tmp)
			}
		}
	}
	if err != nil {
		j.ckptErr = err
		j.ckptOff = true
		j.dur.met.checkpointErrors.Add(1)
		j.dur.log.Warn("session checkpoint failed; continuing without", "err", err)
	}
}

// warnings renders the journal's deferred failures for the session
// response (the deferred-error surfacing the satellite task requires).
func (j *journal) warnings() []string {
	if j == nil {
		return nil
	}
	var w []string
	if j.spoolErr != nil {
		w = append(w, fmt.Sprintf("session journal write failed (crash recovery degraded): %v", j.spoolErr))
	}
	if j.ckptErr != nil {
		w = append(w, fmt.Sprintf("session checkpoint failed (recovery will replay from scratch): %v", j.ckptErr))
	}
	return w
}

// close closes the spool file once.
func (j *journal) close() {
	if j == nil || j.closed {
		return
	}
	j.closed = true
	if err := j.spool.Close(); err != nil && j.spoolErr == nil {
		j.spoolErr = err
		j.dur.met.journalErrors.Add(1)
	}
}

// discard closes the journal and deletes its files — called on every
// decided outcome (the done store, not the journal, answers retries).
func (j *journal) discard() {
	if j == nil {
		return
	}
	j.close()
	os.Remove(j.base + ".meta.json")
	os.Remove(j.base + ".stream")
	os.Remove(j.base + ".snap")
	os.Remove(j.base + ".snap.tmp")
}

// RecoveryStats summarizes one Recover pass.
type RecoveryStats struct {
	// Recovered counts journaled sessions completed by replay (or resumed
	// from a checkpoint) during recovery.
	Recovered int
	// Discarded counts journals dropped: truncated spools, undeliverable
	// results (no idempotency key), or unreadable metadata.
	Discarded int
}

// Recover finishes the sessions a previous instance left in the journal.
// Call it after New and before serving traffic: recovered results enter the
// done store, so client retries are answered exactly once, and the
// aggregate /metrics include the recovered sessions. It is a no-op without
// a state directory.
func (s *Server) Recover(ctx context.Context) (RecoveryStats, error) {
	var rs RecoveryStats
	if s.dur.dir == "" {
		return rs, nil
	}
	metas, err := filepath.Glob(filepath.Join(s.dur.dir, "journal", "*.meta.json"))
	if err != nil {
		return rs, err
	}
	sort.Strings(metas)
	for _, mp := range metas {
		if err := ctx.Err(); err != nil {
			return rs, err
		}
		switch s.recoverOne(mp) {
		case recoverReplayed:
			rs.Recovered++
		case recoverDiscarded:
			rs.Discarded++
		}
	}
	return rs, nil
}

type recoverOutcome int

const (
	recoverAlreadyDone recoverOutcome = iota
	recoverReplayed
	recoverDiscarded
)

// recoverOne processes a single journal entry; journal files are always
// removed — the done store carries the result forward.
func (s *Server) recoverOne(metaPath string) recoverOutcome {
	base := strings.TrimSuffix(metaPath, ".meta.json")
	cleanup := func() {
		os.Remove(metaPath)
		os.Remove(base + ".stream")
		os.Remove(base + ".snap")
		os.Remove(base + ".snap.tmp")
	}
	log := s.log.With(slog.String("journal", filepath.Base(base)))
	discard := func(why string, err error) recoverOutcome {
		log.Warn("discarding journaled session", "why", why, "err", err)
		s.met.recoveryDiscarded.Add(1)
		cleanup()
		return recoverDiscarded
	}

	mb, err := os.ReadFile(metaPath)
	if err != nil {
		return discard("unreadable meta", err)
	}
	var meta sessionMeta
	if err := json.Unmarshal(mb, &meta); err != nil || meta.Session == "" {
		return discard("malformed meta", err)
	}
	if meta.Key == "" {
		// Without an idempotency key no retry can ever collect the result.
		return discard("no idempotency key", nil)
	}
	k := dedupKey(meta.Tenant, meta.Key)
	if s.dur.lookup(k) != nil {
		// The session completed before the crash; only the journal cleanup
		// was lost.
		cleanup()
		return recoverAlreadyDone
	}

	f, err := os.Open(base + ".stream")
	if err != nil {
		return discard("missing stream spool", err)
	}
	defer f.Close()
	src, err := cmdstream.OpenSource(f)
	if err != nil {
		return discard("unreadable stream spool", err)
	}
	defer src.Close()
	cs := &cmdstream.CountingSource{Source: src}

	start := s.now()
	// Prefer the checkpoint; any snapshot problem falls back to a
	// from-scratch replay of the spool (the snapshot is an optimization,
	// the spool is the source of truth).
	var dev *device.Device
	var skip int64
	if snapF, err := os.Open(base + ".snap"); err == nil {
		d2, cursor, rerr := device.RestoreSnapshot(snapF, s.cfg.workers())
		snapF.Close()
		if rerr == nil && d2.CheckResume(cs) == nil {
			dev, skip = d2, cursor
		} else {
			log.Warn("checkpoint unusable; replaying from scratch", "err", rerr)
		}
	}
	if dev == nil {
		dev, err = device.NewFromHeader(cs.Header(), s.cfg.workers())
		if err != nil {
			return discard("bad stream header", err)
		}
	}
	if err := cmdstream.ReplaySourceOpts(dev, cs, cmdstream.ReplayOptions{Skip: skip}); err != nil {
		// A truncated spool means the client never finished submitting; its
		// retry carries the full stream.
		return discard("replay failed", err)
	}
	elapsedMS := float64(s.now().Sub(start)) / 1e6

	res, err := buildResult(dev, meta.Session, meta.Tenant, meta.Pipelined, cs.N, elapsedMS)
	if err != nil {
		return discard("render result", err)
	}
	body, err := json.Marshal(res)
	if err != nil {
		return discard("encode result", err)
	}
	rec := &doneRecord{Key: meta.Key, Status: 200, Body: body}
	s.dur.storeDone(k, rec)
	s.dur.mu.Lock()
	s.dur.done[k] = rec
	s.dur.mu.Unlock()
	s.met.finish(dev.Stats(), elapsedMS)
	s.met.sessionsRecovered.Add(1)
	log.Info("recovered journaled session", "session", meta.Session,
		"records", cs.N, "resumed_at", skip)
	cleanup()
	return recoverReplayed
}

// newInstanceID returns a short random tag namespacing this process's
// journal files, so sequential session numbers from different instances
// sharing a state directory never collide.
func newInstanceID() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("t%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

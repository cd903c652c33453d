package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"pimeval/internal/cmdstream"
	"pimeval/internal/device"
	"pimeval/internal/fault"
)

// Metrics is the per-session statistics block of a SubmitResult, mirroring
// the public pim.Metrics field for field so a client can compare a server
// response against a local replay number for number.
type Metrics struct {
	KernelMS float64 `json:"kernel_ms"`
	HostMS   float64 `json:"host_ms"`
	CopyMS   float64 `json:"copy_ms"`
	KernelMJ float64 `json:"kernel_mj"`
	HostMJ   float64 `json:"host_mj"`
	CopyMJ   float64 `json:"copy_mj"`

	HostToDeviceBytes   int64 `json:"h2d_bytes"`
	DeviceToHostBytes   int64 `json:"d2h_bytes"`
	DeviceToDeviceBytes int64 `json:"d2d_bytes"`
}

// SubmitResult is the response body of POST /v1/submit: everything a local
// pim.ReplaySource of the same stream would observe — modeled metrics, the
// artifact-style report, the per-command CSV, op mix, fault counters — plus
// session identity and the server-side wall-clock latency.
type SubmitResult struct {
	Session    string             `json:"session"`
	Tenant     string             `json:"tenant"`
	Target     string             `json:"target"`
	Functional bool               `json:"functional"`
	Pipelined  bool               `json:"pipelined"`
	Records    int64              `json:"records"`
	Metrics    Metrics            `json:"metrics"`
	OpMix      map[string]float64 `json:"op_mix,omitempty"`
	Faults     fault.Counts       `json:"faults"`
	Report     string             `json:"report"`
	CommandCSV string             `json:"command_csv"`
	ElapsedMS  float64            `json:"elapsed_ms"`
	// Warnings surfaces deferred failures that did not fail the session —
	// journal spool or checkpoint errors that degrade crash recovery but
	// leave the replayed result itself intact.
	Warnings []string `json:"warnings,omitempty"`
}

// errorResult is the JSON error body.
type errorResult struct {
	Error string `json:"error"`
}

// reject writes a JSON error response, setting Retry-After for 429/503.
func reject(w http.ResponseWriter, status int, retryAfter time.Duration, msg string) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(retryAfter)))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorResult{Error: msg})
}

// handleSubmit executes one session: admit, dedup, decode, replay, respond.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	tenant := r.Header.Get("X-PIM-Tenant")
	if tenant == "" {
		tenant = "default"
	}
	key := r.Header.Get("Idempotency-Key")
	session := fmt.Sprintf("s-%06d", s.sessions.Add(1))
	logger := s.log.With(
		slog.String("session", session),
		slog.String("tenant", tenant),
		slog.String("remote", r.RemoteAddr),
	)
	finish := func(status int, records int64, detail string) {
		logger.LogAttrs(r.Context(), slog.LevelInfo, "submit",
			slog.Int("status", status),
			slog.Int64("records", records),
			slog.Float64("elapsed_ms", float64(time.Since(start))/1e6),
			slog.String("detail", detail))
	}

	if !s.begin() {
		s.met.rejectDraining.Add(1)
		reject(w, http.StatusServiceUnavailable, time.Second, "server is draining")
		finish(http.StatusServiceUnavailable, 0, "draining")
		return
	}
	defer s.end()

	ctx := r.Context()
	if s.cfg.SessionTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.SessionTimeout)
		defer cancel()
	}

	// Idempotency: a known key replays the stored response verbatim (so a
	// retried session is never executed — or counted — twice); a key whose
	// primary is still running waits for it; otherwise this request becomes
	// the key's primary. Dedup runs before quota admission so retries of
	// completed work never burn quota.
	var tok *primaryToken
	if key != "" {
		k := dedupKey(tenant, key)
		rec, wait, t := s.dur.claim(k)
		if rec == nil && wait != nil {
			select {
			case <-wait:
				rec = s.dur.lookup(k)
			case <-ctx.Done():
				finish(StatusClientClosedRequest, 0, "canceled awaiting duplicate")
				return
			}
			if rec == nil {
				// The primary failed after we started waiting; tell the
				// client to retry rather than re-executing here with a
				// half-consumed body race.
				reject(w, http.StatusServiceUnavailable, time.Second,
					"concurrent duplicate submission failed; retry")
				finish(http.StatusServiceUnavailable, 0, "dup primary failed")
				return
			}
		}
		if rec != nil {
			s.met.dedupHits.Add(1)
			io.Copy(io.Discard, r.Body) // drain so the connection stays reusable
			w.Header().Set("X-PIM-Deduplicated", "1")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(rec.Status)
			w.Write(rec.Body)
			io.WriteString(w, "\n")
			finish(rec.Status, 0, "deduplicated")
			return
		}
		tok = t
	}
	// Any exit without a stored success releases duplicate waiters so they
	// can retry; resolve is idempotent, so the success path's explicit call
	// wins. tok is nil without a key — resolve tolerates that.
	defer func() { tok.resolve(nil) }()

	// Per-tenant quota, then the bounded device pool.
	if ok, retry := s.quotas.admit(tenant); !ok {
		s.met.rejectQuota.Add(1)
		reject(w, http.StatusTooManyRequests, retry,
			fmt.Sprintf("tenant %q over session quota", tenant))
		finish(http.StatusTooManyRequests, 0, "quota")
		return
	}
	release, status := s.acquire(ctx)
	if release == nil {
		switch status {
		case http.StatusTooManyRequests:
			s.met.rejectCapacity.Add(1)
			reject(w, status, time.Second, "server at capacity (all device slots busy, queue full)")
			finish(status, 0, "capacity")
		case http.StatusServiceUnavailable:
			s.met.rejectDraining.Add(1)
			reject(w, status, time.Second, "server is draining")
			finish(status, 0, "draining")
		default: // client gave up while queued
			finish(status, 0, "canceled while queued")
		}
		return
	}
	defer release()

	pipelined := s.cfg.Pipelined
	if q := r.URL.Query().Get("pipelined"); q != "" {
		pipelined = q == "1" || q == "true"
	}

	// Decode incrementally straight off the request body: the stream never
	// materializes server-side, and binary h2d payloads flow into device
	// storage in bounded chunks. With a state directory the raw bytes are
	// additionally teed into the write-ahead journal spool as they arrive;
	// spool failures warn but never fail the session.
	body := http.MaxBytesReader(w, r.Body, s.cfg.maxBody())
	var stream io.Reader = body
	j, jerr := s.dur.beginJournal(s.instance+"-"+session,
		sessionMeta{Session: session, Tenant: tenant, Key: key, Pipelined: pipelined})
	if jerr != nil {
		s.met.journalErrors.Add(1)
		logger.Warn("session journal unavailable", "err", jerr)
	}
	if j != nil {
		defer j.discard()
		stream = io.TeeReader(body, j)
	}
	src, err := cmdstream.OpenSource(stream)
	if err != nil {
		st := statusForOpen(err)
		s.met.sessionsFailed.Add(1)
		reject(w, st, 0, err.Error())
		finish(st, 0, err.Error())
		return
	}
	defer src.Close()
	if s.testHookSource != nil {
		src = s.testHookSource(src)
	}
	cs := &cmdstream.CountingSource{Source: src}

	// One fresh device per session: the stream header fixes architecture,
	// geometry, functional mode, and fault seed; nothing is shared with any
	// other tenant's namespace.
	d, err := device.NewFromHeader(cs.Header(), s.cfg.workers())
	if err != nil {
		s.met.sessionsFailed.Add(1)
		reject(w, http.StatusBadRequest, 0, err.Error())
		finish(http.StatusBadRequest, 0, err.Error())
		return
	}
	d.SetContext(ctx)
	if s.testHookReplayStart != nil {
		s.testHookReplayStart(ctx, tenant, session)
	}
	opts := cmdstream.ReplayOptions{Pipelined: pipelined}
	if j != nil && s.cfg.checkpointEvery() > 0 {
		opts.CheckpointEvery = s.cfg.checkpointEvery()
		opts.Checkpoint = func(cursor int64) error {
			j.checkpoint(d, cursor) // failures disable checkpoints, never abort
			return nil
		}
	}
	err = cmdstream.ReplaySourceOpts(d, cs, opts)
	elapsedMS := float64(time.Since(start)) / 1e6
	if err != nil {
		st := statusFor(err)
		s.met.sessionsFailed.Add(1)
		reject(w, st, 0, err.Error())
		finish(st, cs.N, err.Error())
		return
	}

	res, err := buildResult(d, session, tenant, pipelined, cs.N, elapsedMS)
	if err != nil {
		s.met.sessionsFailed.Add(1)
		reject(w, http.StatusInternalServerError, 0, err.Error())
		finish(http.StatusInternalServerError, cs.N, err.Error())
		return
	}
	j.close()
	res.Warnings = j.warnings()
	payload, err := json.Marshal(res)
	if err != nil {
		s.met.sessionsFailed.Add(1)
		reject(w, http.StatusInternalServerError, 0, err.Error())
		finish(http.StatusInternalServerError, cs.N, err.Error())
		return
	}
	// Publish the result for retries before the journal is dropped and the
	// response leaves: a crash in between still answers the retry from the
	// done store instead of replaying twice.
	if tok != nil {
		tok.resolve(&doneRecord{Key: key, Status: http.StatusOK, Body: payload})
	}
	if j != nil {
		j.discard()
	}
	s.met.finish(d.Stats(), elapsedMS)
	w.Header().Set("Content-Type", "application/json")
	w.Write(payload)
	io.WriteString(w, "\n")
	finish(http.StatusOK, cs.N, "ok")
}

// buildResult assembles the response from the session device. Every field
// is produced by the same code paths the public API uses (ReportString,
// Stats().WriteCSV, Breakdown), so it is byte-identical to a local replay.
func buildResult(d *device.Device, session, tenant string, pipelined bool, records int64, elapsedMS float64) (*SubmitResult, error) {
	st := d.Stats()
	b := st.Breakdown()
	c := st.Copies()
	var csv bytes.Buffer
	if err := st.WriteCSV(&csv); err != nil {
		return nil, fmt.Errorf("server: render command csv: %w", err)
	}
	return &SubmitResult{
		Session:    session,
		Tenant:     tenant,
		Target:     d.Config().Target.String(),
		Functional: d.Config().Functional,
		Pipelined:  pipelined,
		Records:    records,
		Metrics: Metrics{
			KernelMS:            b.Kernel.TimeMS(),
			HostMS:              b.Host.TimeMS(),
			CopyMS:              b.Copy.TimeMS(),
			KernelMJ:            b.Kernel.EnergyMJ(),
			HostMJ:              b.Host.EnergyMJ(),
			CopyMJ:              b.Copy.EnergyMJ(),
			HostToDeviceBytes:   c.HostToDeviceBytes,
			DeviceToHostBytes:   c.DeviceToHostBytes,
			DeviceToDeviceBytes: c.DeviceToDeviceBytes,
		},
		OpMix:      st.OpMix(),
		Faults:     st.Faults(),
		Report:     d.ReportString(),
		CommandCSV: csv.String(),
		ElapsedMS:  elapsedMS,
	}, nil
}

package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"pimeval/benchmarks/suite"
	"pimeval/internal/server"
	"pimeval/pim"
)

// serveWorkload's operation is one session. Its ops_per_s is the
// closed-loop capacity; its percentiles are open-loop latencies timed from
// each session's due time.
var serveWorkload = &Workload{
	Name: "serve",
	Why:  "an in-process server on 2 connections, closed loop then 150 sessions/s open loop with 20% idempotent resends: admission, HTTP and JSON dominate small sessions",
	setup: func(o Options) (runner, error) {
		s := &serveRunner{rng: rand.New(rand.NewSource(o.Seed)), seed: o.Seed}
		apps := serveApps
		if o.Small {
			apps = apps[:2]
		}
		for _, name := range apps {
			b, err := suite.ByName(name)
			if err != nil {
				return nil, err
			}
			for _, t := range pim.AllTargets {
				st, err := recordSession(b, t)
				if err != nil {
					return nil, err
				}
				s.streams = append(s.streams, st)
			}
		}
		var err error
		if s.plain, err = startServer(""); err != nil {
			return nil, err
		}
		servers := []*liveServer{s.plain}
		if o.Trace {
			if s.stateDir, err = os.MkdirTemp("", "pimperf-state-"); err == nil {
				s.journaled, err = startServer(s.stateDir)
			}
			if err != nil {
				s.close()
				return nil, err
			}
			servers = append(servers, s.journaled)
		}
		// Warm-up: every stream once, checked like a measured session.
		for _, srv := range servers {
			for i := range s.streams {
				if _, err := srv.submit(s.streams[i], fmt.Sprintf("warm-%d", i)); err != nil {
					s.close()
					return nil, fmt.Errorf("warm-up: %w", err)
				}
			}
		}
		return s, nil
	},
}

// The served apps: small sessions dominated by admission, HTTP, JSON and
// the journal, plus the kmeans and aes replays that set the tail.
var serveApps = []string{"vecadd", "axpy", "gemv", "histogram", "brightness", "linreg", "kmeans", "aes-enc"}

// serveRate is the open-loop arrival rate in sessions per second, about a
// quarter of the closed-loop capacity on two cores: low enough that a
// machine running at half speed still keeps up.
const serveRate = 150

// resendEvery makes every fifth session resend a completed
// Idempotency-Key, exercising the done-store read path.
const resendEvery = 5

// sessionStream is one recorded stream and the response fields a local
// replay of it produces.
type sessionStream struct {
	name string
	enc  []byte
	want server.SubmitResult
}

// recordSession records app b on target t at its default functional size
// and replays it locally for the reference response.
func recordSession(b suite.Benchmark, t pim.Target) (sessionStream, error) {
	stream, _, err := suite.RecordStream(b, suite.Config{Target: t, Functional: true, Workers: 1})
	if err != nil {
		return sessionStream{}, err
	}
	var buf bytes.Buffer
	if err := stream.EncodeFormat(&buf, pim.StreamBinary); err != nil {
		return sessionStream{}, err
	}
	src, err := pim.OpenStreamSource(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return sessionStream{}, err
	}
	defer src.Close()
	counted := newTimedSource(src, nil, "", 0)
	dev, err := pim.ReplaySource(counted, pim.ReplayConfig{Workers: 1})
	if err != nil {
		return sessionStream{}, err
	}
	var csv bytes.Buffer
	if err := dev.WriteCommandCSV(&csv); err != nil {
		return sessionStream{}, err
	}
	m := dev.Metrics()
	return sessionStream{
		name: fmt.Sprintf("%s/%v", b.Info().Name, t),
		enc:  buf.Bytes(),
		want: server.SubmitResult{
			Target:     t.String(),
			Functional: true,
			Records:    counted.records,
			Metrics: server.Metrics{
				KernelMS: m.KernelMS, HostMS: m.HostMS, CopyMS: m.CopyMS,
				KernelMJ: m.KernelMJ, HostMJ: m.HostMJ, CopyMJ: m.CopyMJ,
				HostToDeviceBytes:   m.HostToDeviceBytes,
				DeviceToHostBytes:   m.DeviceToHostBytes,
				DeviceToDeviceBytes: m.DeviceToDeviceBytes,
			},
			OpMix:      dev.OpMix(),
			Faults:     dev.FaultStats(),
			Report:     dev.Report(),
			CommandCSV: csv.String(),
		},
	}, nil
}

// liveServer is an in-process server on a loopback port with a client
// limited to two connections.
type liveServer struct {
	url    string
	hs     *http.Server
	done   chan struct{}
	client *http.Client
	// completed lists the fresh sessions this server answered, which a
	// later session may resend; guarded by serveRunner.mu.
	completed []completed
}

func startServer(stateDir string) (*liveServer, error) {
	srv := server.New(server.Config{Devices: 2, Workers: 1, StateDir: stateDir, CheckpointEvery: 1024})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &liveServer{
		url:  "http://" + l.Addr().String(),
		hs:   &http.Server{Handler: srv},
		done: make(chan struct{}),
		client: &http.Client{Timeout: time.Minute, Transport: &http.Transport{
			MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}},
	}
	go func() {
		defer close(s.done)
		s.hs.Serve(l)
	}()
	return s, nil
}

func (s *liveServer) close() {
	if s == nil {
		return
	}
	s.hs.Close()
	<-s.done
	s.client.CloseIdleConnections()
}

// reply is one answered session.
type reply struct {
	handlerMS float64 // the response's elapsed_ms
	clientMS  float64 // request sent to response read
	bytes     int
	dedup     bool
}

// submit posts one session and checks the response against the stream's
// local replay.
func (s *liveServer) submit(st sessionStream, key string) (reply, error) {
	t0 := time.Now()
	req, err := http.NewRequest(http.MethodPost, s.url+"/v1/submit", bytes.NewReader(st.enc))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Idempotency-Key", key)
	resp, err := s.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	r := reply{clientMS: float64(time.Since(t0)) / 1e6, bytes: len(body),
		dedup: resp.Header.Get("X-PIM-Deduplicated") == "1"}
	if resp.StatusCode != http.StatusOK {
		return r, fmt.Errorf("%s: status %d: %s", st.name, resp.StatusCode, bytes.TrimSpace(body))
	}
	var got server.SubmitResult
	if err := json.Unmarshal(body, &got); err != nil {
		return r, fmt.Errorf("%s: %w", st.name, err)
	}
	r.handlerMS = got.ElapsedMS
	if !sameResult(&got, &st.want) {
		return r, gateErr("%s: response differs from the local replay", st.name)
	}
	return r, nil
}

// sameResult compares every response field a local replay determines.
func sameResult(got, want *server.SubmitResult) bool {
	return got.Target == want.Target && got.Functional == want.Functional &&
		got.Records == want.Records && got.Metrics == want.Metrics &&
		reflect.DeepEqual(got.OpMix, want.OpMix) && got.Faults == want.Faults &&
		got.Report == want.Report && got.CommandCSV == want.CommandCSV &&
		len(got.Warnings) == 0
}

// snapshot reads the server's counters.
func (s *liveServer) snapshot() (server.Snapshot, error) {
	var snap server.Snapshot
	resp, err := s.client.Get(s.url + "/metrics?format=json")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&snap)
	return snap, err
}

type serveRunner struct {
	streams []sessionStream
	// plain keeps idempotency records in memory only. journaled, started
	// for traced runs, also journals every session to a state directory:
	// the other side of the journal's A/B.
	plain     *liveServer
	journaled *liveServer
	stateDir  string // the journaled server's, removed by close
	seed      int64

	mu    sync.Mutex
	rng   *rand.Rand
	n     int64 // sessions drawn
	cycle []int // stream order for the current round of fresh sessions
}

type completed struct {
	key    string
	stream int
}

func (s *serveRunner) close() {
	s.plain.close()
	s.journaled.close()
	if s.stateDir != "" {
		os.RemoveAll(s.stateDir)
	}
}

// session draws the next session for srv: every fifth resends a key srv
// completed, picked by the seed; the others are fresh keys that take the
// streams in rounds, each round in a seeded order. Rounds keep the mix of
// cheap and expensive sessions the same in every stretch of the run.
func (s *serveRunner) session(srv *liveServer) (key string, stream int, resend bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	if done := srv.completed; s.n%resendEvery == 0 && len(done) > 0 {
		c := done[s.rng.Intn(len(done))]
		return c.key, c.stream, true
	}
	if len(s.cycle) == 0 {
		s.cycle = s.rng.Perm(len(s.streams))
	}
	stream, s.cycle = s.cycle[0], s.cycle[1:]
	return fmt.Sprintf("%d-%d", s.seed, s.n), stream, false
}

func (s *serveRunner) complete(srv *liveServer, key string, stream int) {
	s.mu.Lock()
	srv.completed = append(srv.completed, completed{key, stream})
	s.mu.Unlock()
}

// sample is one measured session.
type sample struct {
	reply
	latMS  float64 // from due time (open loop) or send time (closed loop)
	lateMS float64
	resend bool
	err    error
}

// run submits one drawn session to srv.
func (s *serveRunner) run(srv *liveServer) sample {
	key, idx, resend := s.session(srv)
	r, err := srv.submit(s.streams[idx], key)
	if err == nil && r.dedup != resend {
		err = gateErr("session %s: deduplicated=%v, resend=%v", key, r.dedup, resend)
	}
	if err == nil && !resend {
		s.complete(srv, key, idx)
	}
	return sample{reply: r, latMS: r.clientMS, resend: resend, err: err}
}

// closedLoop runs two clients back to back against srv for d.
func (s *serveRunner) closedLoop(srv *liveServer, d time.Duration, m *meter) (samples []sample, perSec float64) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	end := t0.Add(d)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lane := m.tracer.Lane(0)
			for time.Now().Before(end) {
				lane.Begin("bench.op")
				lane.Begin("server.submit")
				sm := s.run(srv)
				lane.End()
				lane.End()
				mu.Lock()
				samples = append(samples, sm)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return samples, float64(len(samples)) / time.Since(t0).Seconds()
}

// openLoop sends serveRate sessions per second for d on two connections. Each
// session's latency counts from when it was due, so a stall delays the
// sessions queued behind it.
func (s *serveRunner) openLoop(srv *liveServer, d time.Duration) []sample {
	var next atomic.Int64
	var mu sync.Mutex
	var samples []sample
	var wg sync.WaitGroup
	start := time.Now()
	interval := time.Second / serveRate
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				due := start.Add(time.Duration(next.Add(1)-1) * interval)
				if due.Sub(start) >= d {
					return
				}
				time.Sleep(time.Until(due))
				late := float64(time.Since(due)) / 1e6
				sm := s.run(srv)
				sm.latMS = float64(time.Since(due)) / 1e6
				sm.lateMS = late
				mu.Lock()
				samples = append(samples, sm)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return samples
}

func (s *serveRunner) measure(m *meter) error {
	d := time.Until(m.deadline)
	if m.tracer != nil {
		return s.journalAB(m, d)
	}
	before, err := s.plain.snapshot()
	if err != nil {
		return err
	}
	closed, perSec := s.closedLoop(s.plain, d/3, m)
	for _, sm := range closed {
		m.count(sm.err)
	}
	m.opsPerS = perSec
	open := s.openLoop(s.plain, d-d/3)
	var fresh, resent, handler, transport []float64
	var late, kb float64
	for _, sm := range open {
		m.result(sm.latMS, sm.err)
		late = math.Max(late, sm.lateMS)
		lat := sm.latMS
		if sm.err != nil {
			lat = math.Inf(1)
		}
		if sm.resend {
			resent = append(resent, lat)
			continue
		}
		fresh = append(fresh, lat)
		if sm.err == nil {
			handler = append(handler, sm.handlerMS)
			transport = append(transport, sm.clientMS-sm.handlerMS)
			kb += float64(sm.bytes) / 1024
		}
	}
	m.set("server.handler_ms.p50", Percentile(handler, 50))
	m.set("server.handler_ms.p99", Percentile(handler, 99))
	m.set("server.http_ms.p50", Percentile(transport, 50))
	m.set("server.http_ms.p99", Percentile(transport, 99))
	m.set("server.fresh_ms.p99", Percentile(fresh, 99))
	m.set("server.dedup_ms.p50", Percentile(resent, 50))
	m.set("server.response_kb", kb/float64(len(handler)))
	m.set("server.late_ms.max", late)
	after, err := s.plain.snapshot()
	if err != nil {
		return err
	}
	m.set("server.dedup_hits", float64(after.DedupHits-before.DedupHits))
	m.set("server.rejected", float64(after.RejectedQuota+after.RejectedCapacity+after.RejectedDraining-
		before.RejectedQuota-before.RejectedCapacity-before.RejectedDraining))
	m.set("server.failed", float64(after.SessionsFailed-before.SessionsFailed))
	return nil
}

// journalAB runs the traced half: a closed loop on the journaled server,
// then one on the plain server. The difference in handler p50 is the
// journal's cost per session; the plain loop's rate, against the untraced
// half's, is the tracing overhead.
func (s *serveRunner) journalAB(m *meter, d time.Duration) error {
	before, err := s.journaled.snapshot()
	if err != nil {
		return err
	}
	withJournal, _ := s.closedLoop(s.journaled, d/2, m)
	without, perSec := s.closedLoop(s.plain, d/2, m)
	for _, sm := range append(withJournal, without...) {
		m.count(sm.err)
	}
	m.opsPerS = perSec
	m.set("server.journal_ms.p50", Percentile(handlerMS(withJournal), 50)-Percentile(handlerMS(without), 50))
	after, err := s.journaled.snapshot()
	if err != nil {
		return err
	}
	journalErrs := after.JournalErrors - before.JournalErrors
	ckptErrs := after.CheckpointErrors - before.CheckpointErrors
	m.set("server.journal_errors", float64(journalErrs))
	m.set("server.checkpoint_errors", float64(ckptErrs))
	if journalErrs != 0 || ckptErrs != 0 {
		m.count(fmt.Errorf("journaled server reported %d journal and %d checkpoint errors", journalErrs, ckptErrs))
	}
	return nil
}

// handlerMS returns the server-side handler times of the fresh sessions.
func handlerMS(samples []sample) []float64 {
	var out []float64
	for _, sm := range samples {
		if sm.err == nil && !sm.resend {
			out = append(out, sm.handlerMS)
		}
	}
	return out
}

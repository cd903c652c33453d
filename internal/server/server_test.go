package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"

	"pimeval/internal/cmdstream"
	"pimeval/internal/isa"
	"pimeval/pim"
)

// recordStream records a small but representative session via the public
// API: allocations, payload-carrying copies, binary/scalar/unary execs, a
// repeat scope, reductions, a readback, and frees.
func recordStream(t testing.TB, cfg pim.Config) *pim.Stream {
	t.Helper()
	dev, err := pim.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dev.RecordStream()
	const n = 257
	x, err := dev.Alloc(n, pim.Int32)
	if err != nil {
		t.Fatal(err)
	}
	y, _ := dev.AllocAssociated(x)
	z, _ := dev.AllocAssociated(x)
	xs := make([]int32, n)
	ys := make([]int32, n)
	for i := range xs {
		xs[i] = int32(i*7 - 100)
		ys[i] = int32(200 - i*3)
	}
	var data []int32
	if cfg.Functional {
		data = xs
	}
	if err := pim.CopyToDevice(dev, x, data); err != nil {
		t.Fatal(err)
	}
	if cfg.Functional {
		data = ys
	}
	if err := pim.CopyToDevice(dev, y, data); err != nil {
		t.Fatal(err)
	}
	if err := dev.Add(x, y, z); err != nil {
		t.Fatal(err)
	}
	if err := dev.MulScalar(z, 3, z); err != nil {
		t.Fatal(err)
	}
	if err := dev.WithRepeat(4, func() error { return dev.Abs(z, z) }); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.RedSum(z); err != nil {
		t.Fatal(err)
	}
	if cfg.Functional {
		out := make([]int32, n)
		if err := pim.CopyFromDevice(dev, z, out); err != nil {
			t.Fatal(err)
		}
	} else if err := pim.CopyFromDevice[int32](dev, z, nil); err != nil {
		t.Fatal(err)
	}
	for _, id := range []pim.ObjID{x, y, z} {
		if err := dev.Free(id); err != nil {
			t.Fatal(err)
		}
	}
	s := dev.RecordedStream()
	if s == nil || len(s.Records) == 0 {
		t.Fatal("no stream recorded")
	}
	return s
}

// encodeStream renders a stream in the given wire format.
func encodeStream(t testing.TB, s *pim.Stream, f pim.StreamFormat) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.EncodeFormat(&buf, f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// localExpected replays the encoded stream locally through the public
// pim.ReplaySource — the reference the server's response must match
// byte for byte / bit for bit.
type expected struct {
	metrics pim.Metrics
	opMix   map[string]float64
	faults  pim.FaultStats
	report  string
	csv     string
}

func localExpected(t testing.TB, enc []byte, workers int) expected {
	t.Helper()
	src, err := pim.OpenStreamSource(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dev, err := pim.ReplaySource(src, pim.ReplayConfig{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := dev.WriteCommandCSV(&csv); err != nil {
		t.Fatal(err)
	}
	return expected{
		metrics: dev.Metrics(),
		opMix:   dev.OpMix(),
		faults:  dev.FaultStats(),
		report:  dev.Report(),
		csv:     csv.String(),
	}
}

// submit posts an encoded stream and decodes the response.
func submit(t *testing.T, ts *httptest.Server, enc []byte, tenant, query string) (*http.Response, *SubmitResult, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/submit"+query, bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-PIM-Tenant", tenant)
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
	if resp.StatusCode != http.StatusOK {
		var er errorResult
		json.Unmarshal(raw, &er)
		return resp, nil, er.Error
	}
	var sr SubmitResult
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatalf("decode response: %v\n%s", err, raw)
	}
	return resp, &sr, ""
}

// checkMatches asserts a server response equals the local replay exactly.
func checkMatches(t *testing.T, sr *SubmitResult, want expected) {
	t.Helper()
	got := pim.Metrics{
		KernelMS: sr.Metrics.KernelMS, HostMS: sr.Metrics.HostMS, CopyMS: sr.Metrics.CopyMS,
		KernelMJ: sr.Metrics.KernelMJ, HostMJ: sr.Metrics.HostMJ, CopyMJ: sr.Metrics.CopyMJ,
		HostToDeviceBytes:   sr.Metrics.HostToDeviceBytes,
		DeviceToHostBytes:   sr.Metrics.DeviceToHostBytes,
		DeviceToDeviceBytes: sr.Metrics.DeviceToDeviceBytes,
	}
	if got != want.metrics {
		t.Errorf("metrics mismatch:\nserver: %+v\nlocal:  %+v", got, want.metrics)
	}
	if sr.Report != want.report {
		t.Errorf("report mismatch:\nserver:\n%s\nlocal:\n%s", sr.Report, want.report)
	}
	if sr.CommandCSV != want.csv {
		t.Errorf("command csv mismatch:\nserver:\n%s\nlocal:\n%s", sr.CommandCSV, want.csv)
	}
	if sr.Faults != want.faults {
		t.Errorf("fault counters mismatch: server %+v local %+v", sr.Faults, want.faults)
	}
	wantMix := want.opMix
	if len(wantMix) == 0 {
		wantMix = nil
	}
	gotMix := sr.OpMix
	if len(gotMix) == 0 {
		gotMix = nil
	}
	if !reflect.DeepEqual(gotMix, wantMix) {
		t.Errorf("op mix mismatch: server %v local %v", gotMix, wantMix)
	}
}

// TestSubmitRoundTrip is the end-to-end battery: streams recorded through
// the public API — across wire formats, architectures, functional and
// model-only modes, optimizer-rewritten streams, and fault-header streams —
// submitted over HTTP must produce responses bit-identical to a local
// pim.ReplaySource of the same bytes.
func TestSubmitRoundTrip(t *testing.T) {
	ecc := &pim.FaultConfig{Seed: 7, TransientBitRate: 1e-6, ECC: true}
	cases := []struct {
		name     string
		cfg      pim.Config
		format   pim.StreamFormat
		optimize bool
		query    string
	}{
		{name: "functional-bin", cfg: pim.Config{Target: pim.Fulcrum, Functional: true}, format: pim.StreamBinary},
		{name: "functional-json", cfg: pim.Config{Target: pim.Fulcrum, Functional: true}, format: pim.StreamJSON},
		{name: "model-only-bin", cfg: pim.Config{Target: pim.BankLevel}, format: pim.StreamBinary},
		{name: "model-only-json", cfg: pim.Config{Target: pim.BitSerial}, format: pim.StreamJSON},
		{name: "optimized-bin", cfg: pim.Config{Target: pim.Fulcrum, Functional: true}, format: pim.StreamBinary, optimize: true},
		{name: "optimized-json", cfg: pim.Config{Target: pim.BankLevel, Functional: true}, format: pim.StreamJSON, optimize: true},
		{name: "faulted-ecc-bin", cfg: pim.Config{Target: pim.Fulcrum, Functional: true, Faults: ecc}, format: pim.StreamBinary},
		{name: "faulted-ecc-json", cfg: pim.Config{Target: pim.Fulcrum, Functional: true, Faults: ecc}, format: pim.StreamJSON},
		{name: "pipelined-bin", cfg: pim.Config{Target: pim.Fulcrum, Functional: true}, format: pim.StreamBinary, query: "?pipelined=1"},
		{name: "serial-override", cfg: pim.Config{Target: pim.Fulcrum, Functional: true}, format: pim.StreamBinary, query: "?pipelined=0"},
	}

	srv := New(Config{Devices: 2, Workers: 1, Pipelined: false})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			stream := recordStream(t, c.cfg)
			if c.optimize {
				opt, _, err := pim.Optimize(stream)
				if err != nil {
					t.Fatal(err)
				}
				stream = opt
			}
			enc := encodeStream(t, stream, c.format)
			want := localExpected(t, enc, 1)

			resp, sr, errMsg := submit(t, ts, enc, "tenant-"+c.name, c.query)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("submit: status %d: %s", resp.StatusCode, errMsg)
			}
			if sr.Records != int64(len(stream.Records)) {
				t.Errorf("records: server replayed %d, stream has %d", sr.Records, len(stream.Records))
			}
			checkMatches(t, sr, want)
		})
	}
}

// TestMetricsAggregation checks that /metrics reflects completed sessions:
// the aggregate counters equal the sum of the individual sessions' values.
func TestMetricsAggregation(t *testing.T) {
	srv := New(Config{Devices: 2, Workers: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	stream := recordStream(t, pim.Config{Target: pim.Fulcrum, Functional: true})
	enc := encodeStream(t, stream, pim.StreamBinary)

	const sessions = 5
	var wantH2D, wantD2H int64
	var wantKernelMS float64
	for i := 0; i < sessions; i++ {
		resp, sr, errMsg := submit(t, ts, enc, "t", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, errMsg)
		}
		wantH2D += sr.Metrics.HostToDeviceBytes
		wantD2H += sr.Metrics.DeviceToHostBytes
		wantKernelMS += sr.Metrics.KernelMS
	}

	snap := metricsSnapshot(t, ts)
	if snap.SessionsTotal != sessions {
		t.Errorf("sessions_total = %d, want %d", snap.SessionsTotal, sessions)
	}
	if snap.SessionsFailed != 0 || snap.ActiveSessions != 0 || snap.QueueDepth != 0 {
		t.Errorf("unexpected gauges: %+v", snap)
	}
	if snap.HostToDeviceBytes != wantH2D || snap.DeviceToHostBytes != wantD2H {
		t.Errorf("aggregated copy bytes: h2d %d want %d, d2h %d want %d",
			snap.HostToDeviceBytes, wantH2D, snap.DeviceToHostBytes, wantD2H)
	}
	// Kernel time is summed per command name in sorted order both here and
	// in the sessions, and all sessions are identical, so the float sums
	// agree exactly.
	if snap.KernelMS != wantKernelMS {
		t.Errorf("aggregated kernel ms %v, want %v", snap.KernelMS, wantKernelMS)
	}
	if snap.LatencySamples != sessions || snap.LatencyP50MS <= 0 || snap.LatencyP99MS < snap.LatencyP50MS {
		t.Errorf("latency percentiles malformed: %+v", snap)
	}
	if len(snap.Commands) == 0 {
		t.Error("aggregate has no per-command rows")
	}

	// The Prometheus text rendering serves the same counters.
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		fmt.Sprintf("pimserved_sessions_total %d", sessions),
		"pimserved_replay_latency_ms{quantile=\"0.99\"}",
		"pim_commands_total{cmd=",
	} {
		if !bytes.Contains(text, []byte(want)) {
			t.Errorf("text metrics missing %q:\n%s", want, text)
		}
	}
}

func metricsSnapshot(t *testing.T, ts *httptest.Server) Snapshot {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestDrain checks graceful shutdown: draining rejects new submits with 503
// and Drain returns once in-flight work is done.
func TestDrain(t *testing.T) {
	srv := New(Config{Devices: 1, Workers: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	stream := recordStream(t, pim.Config{Target: pim.Fulcrum, Functional: true})
	enc := encodeStream(t, stream, pim.StreamBinary)
	if resp, _, errMsg := submit(t, ts, enc, "t", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain submit: %d %s", resp.StatusCode, errMsg)
	}

	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp, _, _ := submit(t, ts, enc, "t", "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("post-drain 503 lacks Retry-After")
	}
	snap := metricsSnapshot(t, ts)
	if snap.RejectedDraining != 1 {
		t.Errorf("rejected_draining = %d, want 1", snap.RejectedDraining)
	}
	// Health flips to unavailable.
	hr, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: %d, want 503", hr.StatusCode)
	}
}

// TestStreamOfBinaryAndJSONAgree submits the same recording in both wire
// formats; the two responses must agree on every simulation observable.
func TestStreamOfBinaryAndJSONAgree(t *testing.T) {
	srv := New(Config{Devices: 2, Workers: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	stream := recordStream(t, pim.Config{Target: pim.BitSerial, Functional: true})
	_, bin, msgB := submit(t, ts, encodeStream(t, stream, pim.StreamBinary), "t", "")
	_, jsn, msgJ := submit(t, ts, encodeStream(t, stream, pim.StreamJSON), "t", "")
	if bin == nil || jsn == nil {
		t.Fatalf("submits failed: %q %q", msgB, msgJ)
	}
	if bin.Report != jsn.Report || bin.CommandCSV != jsn.CommandCSV || bin.Metrics != jsn.Metrics {
		t.Error("binary and JSON submissions of the same stream disagree")
	}
}

// payloadSpy forwards a source's packed payload face and counts the frames
// read through it and the calls to its []int64 face.
type payloadSpy struct {
	cmdstream.Source
	frames, chunks *atomic.Int64
}

func (s payloadSpy) PendingPayload() bool {
	return s.Source.(cmdstream.PackedSource).PendingPayload()
}

func (s payloadSpy) NextPayloadChunk() ([]int64, error) {
	s.chunks.Add(1)
	return s.Source.(cmdstream.PackedSource).NextPayloadChunk()
}

func (s payloadSpy) NextPayloadFrame() (isa.DataType, []byte, error) {
	dt, frame, err := s.Source.(cmdstream.PackedSource).NextPayloadFrame()
	if err == nil {
		s.frames.Add(1)
	}
	return dt, frame, err
}

// TestServedPayloadTakesPackedPath: a served binary session, serial or
// pipelined, lands its h2d payloads as packed frames through the session's
// counting wrapper — a 256 Ki-element payload spans two frames and never
// touches the []int64 chunk face — and its response matches the unserved
// replay bit for bit.
func TestServedPayloadTakesPackedPath(t *testing.T) {
	const n = 256 << 10
	dev, err := pim.NewDevice(pim.Config{Target: pim.Fulcrum, Functional: true})
	if err != nil {
		t.Fatal(err)
	}
	dev.RecordStream()
	x, err := dev.Alloc(n, pim.Int32)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]int32, n)
	for i := range xs {
		xs[i] = int32(i*2654435761) >> 3
	}
	if err := pim.CopyToDevice(dev, x, xs); err != nil {
		t.Fatal(err)
	}
	if err := dev.MulScalar(x, 3, x); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.RedSum(x); err != nil {
		t.Fatal(err)
	}
	if err := dev.Free(x); err != nil {
		t.Fatal(err)
	}
	enc := encodeStream(t, dev.RecordedStream(), pim.StreamBinary)
	want := localExpected(t, enc, 1)

	var frames, chunks atomic.Int64
	srv := New(Config{Devices: 1, Workers: 1})
	srv.testHookSource = func(src cmdstream.Source) cmdstream.Source {
		return payloadSpy{Source: src, frames: &frames, chunks: &chunks}
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for _, query := range []string{"?pipelined=0", "?pipelined=1"} {
		frames.Store(0)
		resp, sr, errMsg := submit(t, ts, enc, "t", query)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", query, resp.StatusCode, errMsg)
		}
		checkMatches(t, sr, want)
		if got := frames.Load(); got != 2 {
			t.Errorf("%s: %d packed frames read, want 2", query, got)
		}
		if got := chunks.Load(); got != 0 {
			t.Errorf("%s: NextPayloadChunk called %d times", query, got)
		}
	}
}

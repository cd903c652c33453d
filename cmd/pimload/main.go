// Command pimload is the load generator for the stream-execution server
// (cmd/pimserved). It records suite benchmarks into command streams, then
// replays them against a server at configurable concurrency — many tenants,
// many sessions — measuring client-side throughput and latency and
// optionally verifying every response bit-for-bit against a local replay.
//
//	pimload -benchmarks vecadd,gemv -sessions 128 -concurrency 64 -verify
//	pimload -addr 127.0.0.1:8080 -sessions 256 -concurrency 32 -out BENCH_server.json
//
// With -addr empty (the default) pimload spins up an in-process server —
// the self-contained benchmarking mode behind BENCH_server.json — sized by
// -devices/-workers. The JSON report written to -out carries the run
// configuration, sessions/sec, latency percentiles, per-status counts, and
// the server's final /metrics snapshot.
package main

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	mrand "math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	_ "pimeval/benchmarks/all"
	"pimeval/benchmarks/suite"
	"pimeval/internal/server"
	"pimeval/pim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pimload:", err)
		os.Exit(1)
	}
}

// Report is the JSON document pimload emits (BENCH_server.json).
type Report struct {
	Benchmarks  []string `json:"benchmarks"`
	Target      string   `json:"target"`
	Format      string   `json:"format"`
	Sessions    int      `json:"sessions"`
	Concurrency int      `json:"concurrency"`
	Tenants     int      `json:"tenants"`
	Devices     int      `json:"devices,omitempty"` // in-process server only
	Workers     int      `json:"workers,omitempty"`

	ElapsedS       float64 `json:"elapsed_s"`
	SessionsPerSec float64 `json:"sessions_per_sec"`
	LatencyP50MS   float64 `json:"latency_p50_ms"`
	LatencyP90MS   float64 `json:"latency_p90_ms"`
	LatencyP99MS   float64 `json:"latency_p99_ms"`
	LatencyMaxMS   float64 `json:"latency_max_ms"`

	OK       int            `json:"ok"`
	Rejected int            `json:"rejected"` // final 429/503 after retries were exhausted (or disabled)
	Failed   int            `json:"failed"`   // transport errors and 4xx/5xx outside admission
	ByStatus map[string]int `json:"by_status"`
	Verified bool           `json:"verified"`
	Mismatch int            `json:"mismatches"`

	// Retry/idempotency accounting (-retries > 0). Deduplicated counts 200s
	// the server answered from its idempotency store instead of re-executing;
	// ExactlyOnce reports that the in-process server executed exactly one
	// session per successful response — no retry was double-counted.
	Retries      int  `json:"retries"`
	Deduplicated int  `json:"deduplicated"`
	ExactlyOnce  bool `json:"exactly_once,omitempty"`

	ServerEnd any `json:"server_metrics"`
}

func parseTarget(name string) (pim.Target, error) {
	switch name {
	case "bitserial":
		return pim.BitSerial, nil
	case "fulcrum":
		return pim.Fulcrum, nil
	case "banklevel":
		return pim.BankLevel, nil
	case "analog":
		return pim.AnalogBitSerial, nil
	}
	return 0, fmt.Errorf("unknown target %q (want bitserial, fulcrum, banklevel, or analog)", name)
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pimload", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		addr        = fs.String("addr", "", "server address (empty = in-process server)")
		names       = fs.String("benchmarks", "vecadd", "comma-separated suite benchmarks to record and replay")
		target      = fs.String("target", "fulcrum", "architecture: bitserial, fulcrum, banklevel, analog")
		size        = fs.Int64("size", 0, "input size override (0 = functional default)")
		sessions    = fs.Int("sessions", 64, "total sessions to submit")
		concurrency = fs.Int("concurrency", 16, "concurrent client connections")
		tenants     = fs.Int("tenants", 8, "distinct tenant identities to spread sessions over")
		format      = fs.String("format", "bin", "wire format: bin or json")
		outPath     = fs.String("out", "", "write the JSON report here (empty = stdout summary only)")
		verify      = fs.Bool("verify", false, "compare every response against a local replay (bit-identical)")
		devices     = fs.Int("devices", 4, "device slots for the in-process server")
		workers     = fs.Int("workers", 1, "functional workers per session device")
		retries     = fs.Int("retries", 0, "max resubmissions per session on transport errors and 429/503/504")
		backoff     = fs.Duration("retry-backoff", 100*time.Millisecond, "base retry backoff (doubles per attempt, plus jitter; Retry-After wins when larger)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var sf pim.StreamFormat
	switch *format {
	case "bin":
		sf = pim.StreamBinary
	case "json":
		sf = pim.StreamJSON
	default:
		return fmt.Errorf("unknown format %q (want bin or json)", *format)
	}
	tgt, err := parseTarget(*target)
	if err != nil {
		return err
	}

	// Record phase: every requested benchmark becomes one encoded stream.
	// Functional mode keeps the default sizes small enough that a session is
	// dominated by replay work, not payload bytes.
	var selected []suite.Benchmark
	want := strings.Split(*names, ",")
	all := append(suite.All(), suite.Extensions()...)
	for _, name := range want {
		name = strings.TrimSpace(name)
		found := false
		for _, b := range all {
			if b.Info().Name == name {
				selected = append(selected, b)
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("unknown benchmark %q", name)
		}
	}
	scfg := suite.Config{Target: tgt, Functional: true, Workers: 1, Size: *size}
	type workload struct {
		name     string
		enc      []byte
		expected *server.SubmitResult // local replay reference when -verify
	}
	workloads := make([]workload, 0, len(selected))
	for _, b := range selected {
		stream, _, err := suite.RecordStream(b, scfg)
		if err != nil {
			return fmt.Errorf("record %s: %w", b.Info().Name, err)
		}
		var buf bytes.Buffer
		if err := stream.EncodeFormat(&buf, sf); err != nil {
			return err
		}
		w := workload{name: b.Info().Name, enc: buf.Bytes()}
		if *verify {
			ref, err := localReference(w.enc, *workers)
			if err != nil {
				return fmt.Errorf("local reference replay of %s: %w", b.Info().Name, err)
			}
			w.expected = ref
		}
		workloads = append(workloads, w)
		fmt.Fprintf(out, "recorded %-14s %7d bytes (%s)\n", b.Info().Name, len(w.enc), *format)
	}

	// Target server: remote, or an in-process instance on a loopback port.
	base := *addr
	if base == "" {
		srv := server.New(server.Config{Devices: *devices, Workers: *workers})
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		hs := &http.Server{Handler: srv}
		go hs.Serve(l)
		defer hs.Close()
		base = l.Addr().String()
		fmt.Fprintf(out, "in-process server on %s (devices %d, workers %d)\n", base, *devices, *workers)
	}
	baseURL := "http://" + base

	// Load phase: *concurrency clients drain a shared session counter. Every
	// session carries a run-unique Idempotency-Key, so retried submissions
	// are executed (and counted) by the server at most once.
	runID := newRunID()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: *concurrency}}
	var (
		next         atomic.Int64
		mu           sync.Mutex
		latMS        []float64
		byStatus     = map[string]int{}
		ok, rej      int
		failed       int
		mismatches   int
		totalRetries int
		dedupd       int
	)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= *sessions {
					return
				}
				wl := workloads[i%len(workloads)]
				tenant := fmt.Sprintf("tenant-%02d", i%*tenants)
				key := fmt.Sprintf("%s-%06d", runID, i)
				t0 := time.Now()
				oc := submitRetry(client, baseURL, wl.enc, tenant, key, *retries, *backoff)
				lat := float64(time.Since(t0)) / 1e6
				mu.Lock()
				totalRetries += oc.retries
				if oc.dedup {
					dedupd++
				}
				if oc.err != nil {
					failed++
					byStatus["transport-error"]++
				} else {
					byStatus[fmt.Sprint(oc.status)]++
					switch {
					case oc.status == http.StatusOK:
						ok++
						latMS = append(latMS, lat)
						if wl.expected != nil && !matches(oc.sr, wl.expected) {
							mismatches++
						}
					case oc.status == http.StatusTooManyRequests || oc.status == http.StatusServiceUnavailable:
						rej++
					default:
						failed++
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := Report{
		Benchmarks:   want,
		Target:       *target,
		Format:       *format,
		Sessions:     *sessions,
		Concurrency:  *concurrency,
		Tenants:      *tenants,
		ElapsedS:     elapsed.Seconds(),
		OK:           ok,
		Rejected:     rej,
		Failed:       failed,
		ByStatus:     byStatus,
		Verified:     *verify && mismatches == 0 && ok > 0,
		Mismatch:     mismatches,
		Retries:      totalRetries,
		Deduplicated: dedupd,
	}
	if *addr == "" {
		rep.Devices = *devices
		rep.Workers = *workers
	}
	if elapsed > 0 {
		rep.SessionsPerSec = float64(ok) / elapsed.Seconds()
	}
	rep.LatencyP50MS = server.Percentile(latMS, 50)
	rep.LatencyP90MS = server.Percentile(latMS, 90)
	rep.LatencyP99MS = server.Percentile(latMS, 99)
	rep.LatencyMaxMS = server.Percentile(latMS, 100)

	// The server's own view of the run. For the in-process server the typed
	// snapshot also proves exactly-once accounting: the number of sessions
	// the server executed equals the successful responses — retried work was
	// answered from the idempotency store, never replayed (or counted) twice.
	if resp, err := client.Get(baseURL + "/metrics?format=json"); err == nil {
		if data, rerr := io.ReadAll(resp.Body); rerr == nil {
			var snap any
			if json.Unmarshal(data, &snap) == nil {
				rep.ServerEnd = snap
			}
			if *addr == "" {
				var typed server.Snapshot
				if json.Unmarshal(data, &typed) == nil {
					rep.ExactlyOnce = typed.SessionsTotal == int64(ok) && typed.ActiveSessions == 0
				}
			}
		}
		resp.Body.Close()
	}

	fmt.Fprintf(out, "%d sessions (%d ok, %d rejected, %d failed) in %.2fs = %.1f sessions/sec\n",
		*sessions, ok, rej, failed, elapsed.Seconds(), rep.SessionsPerSec)
	fmt.Fprintf(out, "latency ms: p50 %.2f  p90 %.2f  p99 %.2f  max %.2f\n",
		rep.LatencyP50MS, rep.LatencyP90MS, rep.LatencyP99MS, rep.LatencyMaxMS)
	if *retries > 0 {
		fmt.Fprintf(out, "retries: %d resubmissions, %d answered from idempotency store\n",
			totalRetries, dedupd)
	}
	if *verify {
		if mismatches > 0 {
			fmt.Fprintf(out, "VERIFY FAILED: %d responses diverged from local replay\n", mismatches)
		} else {
			fmt.Fprintf(out, "verified: all %d responses bit-identical to local replay\n", ok)
		}
	}

	if *outPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "report written to %s\n", *outPath)
	}
	if mismatches > 0 {
		return fmt.Errorf("%d responses diverged from local replay", mismatches)
	}
	if failed > 0 {
		return fmt.Errorf("%d sessions failed", failed)
	}
	return nil
}

// newRunID returns a short random tag that makes this run's idempotency
// keys unique across pimload invocations sharing a server.
func newRunID() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("t%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// outcome is one session's final result after retries.
type outcome struct {
	sr      *server.SubmitResult
	status  int
	dedup   bool // the server answered from its idempotency store
	retries int  // resubmissions beyond the first attempt
	err     error
}

// retryable reports whether an attempt's result warrants a resubmission:
// transport-level failures (the connection died; the server may or may not
// have executed the session — the idempotency key makes resubmission safe)
// and explicit try-again statuses.
func retryable(status int, err error) bool {
	if err != nil {
		return true
	}
	return status == http.StatusTooManyRequests ||
		status == http.StatusServiceUnavailable ||
		status == http.StatusGatewayTimeout
}

// submitRetry submits one session with exponential backoff: the wait after
// attempt a is backoff·2^a plus up to 50% jitter, or the server's
// Retry-After when that is larger.
func submitRetry(client *http.Client, baseURL string, enc []byte, tenant, key string, retries int, backoff time.Duration) outcome {
	var oc outcome
	for attempt := 0; ; attempt++ {
		var retryAfter time.Duration
		oc.sr, oc.status, oc.dedup, retryAfter, oc.err = submit(client, baseURL, enc, tenant, key)
		if attempt >= retries || !retryable(oc.status, oc.err) {
			oc.retries = attempt
			return oc
		}
		shift := attempt
		if shift > 16 {
			shift = 16
		}
		wait := backoff << uint(shift)
		if wait > 0 {
			wait += time.Duration(mrand.Int63n(int64(wait)/2 + 1))
		}
		if retryAfter > wait {
			wait = retryAfter
		}
		time.Sleep(wait)
	}
}

// submit posts one encoded stream and decodes the response body.
func submit(client *http.Client, baseURL string, enc []byte, tenant, key string) (*server.SubmitResult, int, bool, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, baseURL+"/v1/submit", bytes.NewReader(enc))
	if err != nil {
		return nil, 0, false, 0, err
	}
	req.Header.Set("X-PIM-Tenant", tenant)
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, 0, false, 0, err
	}
	defer resp.Body.Close()
	var retryAfter time.Duration
	if s := resp.Header.Get("Retry-After"); s != "" {
		if n, perr := strconv.Atoi(s); perr == nil && n >= 0 {
			retryAfter = time.Duration(n) * time.Second
		}
	}
	dedup := resp.Header.Get("X-PIM-Deduplicated") == "1"
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, resp.StatusCode, dedup, retryAfter, nil
	}
	var sr server.SubmitResult
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return nil, resp.StatusCode, dedup, retryAfter, err
	}
	return &sr, resp.StatusCode, dedup, retryAfter, nil
}

// localReference replays enc locally through the public API and shapes the
// observables like a server response for comparison.
func localReference(enc []byte, workers int) (*server.SubmitResult, error) {
	src, err := pim.OpenStreamSource(bytes.NewReader(enc))
	if err != nil {
		return nil, err
	}
	defer src.Close()
	dev, err := pim.ReplaySource(src, pim.ReplayConfig{Workers: workers})
	if err != nil {
		return nil, err
	}
	var csv bytes.Buffer
	if err := dev.WriteCommandCSV(&csv); err != nil {
		return nil, err
	}
	m := dev.Metrics()
	return &server.SubmitResult{
		Metrics: server.Metrics{
			KernelMS: m.KernelMS, HostMS: m.HostMS, CopyMS: m.CopyMS,
			KernelMJ: m.KernelMJ, HostMJ: m.HostMJ, CopyMJ: m.CopyMJ,
			HostToDeviceBytes:   m.HostToDeviceBytes,
			DeviceToHostBytes:   m.DeviceToHostBytes,
			DeviceToDeviceBytes: m.DeviceToDeviceBytes,
		},
		Report:     dev.Report(),
		CommandCSV: csv.String(),
	}, nil
}

// matches checks a response against the local reference on the observables
// that must be bit-identical.
func matches(sr, want *server.SubmitResult) bool {
	return sr != nil &&
		sr.Metrics == want.Metrics &&
		sr.Report == want.Report &&
		sr.CommandCSV == want.CommandCSV
}

// Package bench is the pimperf performance harness: it runs the simulator's
// workloads from outside, times them end to end, checks every output for
// correctness, and in a traced run breaks wall-clock time down by layer.
// See README.md for the metrics, the workloads and how to run them.
package bench

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// Options configures one measured run of one workload.
type Options struct {
	// Seed drives the generated inputs: trace contents, the session mix
	// and order, eval operands, and the order suite apps run in.
	Seed int64
	// Seconds is how long the run measures.
	Seconds float64
	// Trace runs the workload untraced for the first half of Seconds and
	// through the timing wrappers for the second half, and reports the
	// per-layer metrics instead of the end-to-end ones.
	Trace bool
	// Small shrinks every input to a miniature scale for the package tests.
	Small bool
}

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// RunResult is the outcome of one run of one workload.
type RunResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	Errors    []string          `json:"errors,omitempty"`
	// Spans is the traced run's tracer (nil untraced); it is written by
	// -trace <path>, not serialized with the result.
	Spans *Tracer `json:"-"`
}

// Def names one metric, its unit and which direction is better.
type Def struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// EndToEnd are the metrics a user of the simulator sees, reported by every
// workload with tracing off. What an operation is depends on the workload
// (see each workload's doc comment).
var EndToEnd = []Def{
	{"setup_s", "s", "lower"},
	{"peak_heap_mb", "MiB", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
}

// runner measures one set-up workload.
type runner interface {
	// measure runs operations until m.deadline, recording each through m.
	// A non-nil m.lane selects the traced path.
	measure(m *meter) error
	close()
}

// Workload is one set of inputs the benchmark runs.
type Workload struct {
	Name  string
	Why   string
	setup func(o Options) (runner, error)
}

// Workloads lists every workload in run order.
var Workloads = []*Workload{suiteLive, replaySerial, replayPipelined, replayOptimized, replayRecover, serveWorkload, evalWorkload}

// Lookup returns the named workload.
func Lookup(name string) (*Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range Workloads {
		names = append(names, w.Name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// setups is how many times a run sets its workload up; setup_s is their
// median. Later setups find the process-wide caches warm, as the measured
// phase does.
const setups = 3

// meter is handed to runner.measure: the deadline, the traced lane, and the
// recorder for operations and per-layer values.
type meter struct {
	deadline time.Time
	start    time.Time
	lane     *Lane
	tracer   *Tracer

	mu        sync.Mutex
	lat       []float64 // per-operation latency, ms; +Inf for failures
	attempted int64
	failed    int64
	errs      []string
	// opsPerS overrides the completed-operations rate (serve reports its
	// closed-loop capacity, not the open-loop rate).
	opsPerS float64
	// layer holds per-layer values the workload measures from outside.
	layer map[string]float64
	// perOp holds per-layer sums from the traced half, to be divided by
	// its operation count.
	perOp map[string]float64
}

func newMeter(d time.Duration, tr *Tracer) *meter {
	now := time.Now()
	return &meter{deadline: now.Add(d), start: now, tracer: tr, lane: tr.Lane(0),
		layer: map[string]float64{}, perOp: map[string]float64{}}
}

// done reports whether the measuring time is up.
func (m *meter) done() bool { return !time.Now().Before(m.deadline) }

// restart starts the measuring time over, so that one-off work a traced
// run does before its first operation is not counted against the rate.
func (m *meter) restart() {
	now := time.Now()
	m.deadline = m.deadline.Add(now.Sub(m.start))
	m.start = now
}

// op records one finished operation that started at t0. A failed operation
// counts as missing every latency limit.
func (m *meter) op(t0 time.Time, err error) {
	m.result(float64(time.Since(t0))/1e6, err)
}

// result records one finished operation with its latency in ms.
func (m *meter) result(lat float64, err error) {
	if err != nil {
		lat = math.Inf(1)
	}
	m.count(err)
	m.mu.Lock()
	m.lat = append(m.lat, lat)
	m.mu.Unlock()
}

// count records an attempted operation, or a correctness gate checked
// outside any one operation, without a latency sample.
func (m *meter) count(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.attempted++
	if err != nil {
		m.failed++
		if len(m.errs) < 5 {
			m.errs = append(m.errs, err.Error())
		}
	}
}

func (m *meter) set(name string, v float64) {
	m.mu.Lock()
	m.layer[name] = v
	m.mu.Unlock()
}

func (m *meter) addPerOp(name string, v float64) {
	m.mu.Lock()
	m.perOp[name] += v
	m.mu.Unlock()
}

// ops returns the number of completed operations.
func (m *meter) ops() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.lat)
}

// Run sets w up, measures it for o.Seconds, and returns the result. An
// error means the run could not be made at all; failed correctness gates
// are reported in the result.
func Run(w *Workload, o Options) (*RunResult, error) {
	var r runner
	var setupS []float64
	defer func() {
		if r != nil {
			r.close()
		}
	}()
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		next, err := w.setup(o)
		setupS = append(setupS, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.Name, err)
		}
		if r != nil {
			r.close()
		}
		r = next
	}

	res := &RunResult{Workload: w.Name, Seed: o.Seed, Trace: o.Trace, Metrics: map[string]Metric{}}
	d := time.Duration(o.Seconds * float64(time.Second))
	if o.Trace {
		d /= 2
	}
	plain, err := measure(r, d, nil)
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed, res.Errors = plain.m.attempted, plain.m.failed, plain.m.errs
	if !o.Trace {
		res.Metrics["setup_s"] = Metric{Median(setupS), "s"}
		res.Metrics["peak_heap_mb"] = Metric{plain.peakHeap / (1 << 20), "MiB"}
		res.Metrics["ops_per_s"] = Metric{plain.opsPerS(), "1/s"}
		res.Metrics["p50_ms"] = Metric{Percentile(plain.m.lat, 50), "ms"}
		res.Metrics["p99_ms"] = Metric{Percentile(plain.m.lat, 99), "ms"}
	} else {
		tr := NewTracer()
		traced, err := measure(r, d, tr)
		if err != nil {
			return nil, err
		}
		res.Attempted += traced.m.attempted
		res.Failed += traced.m.failed
		res.Errors = append(res.Errors, traced.m.errs...)
		res.Spans = tr
		res.Metrics = layerMetrics(plain, traced, tr)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// measured is one measuring pass over a set-up runner.
type measured struct {
	m        *meter
	elapsed  time.Duration
	peakHeap float64 // bytes
	allocMB  float64
	gcPause  time.Duration
}

func (p *measured) opsPerS() float64 {
	if p.m.opsPerS > 0 {
		return p.m.opsPerS
	}
	return float64(len(p.m.lat)) / p.elapsed.Seconds()
}

// measure runs r for d with the heap sampled throughout.
func measure(r runner, d time.Duration, tr *Tracer) (*measured, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stop := sampleHeap()
	m := newMeter(d, tr)
	err := r.measure(m)
	elapsed := time.Since(m.start)
	peak := stop()
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	return &measured{
		m:        m,
		elapsed:  elapsed,
		peakHeap: peak,
		allocMB:  float64(after.TotalAlloc-before.TotalAlloc) / 1e6,
		gcPause:  time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}, nil
}

// sampleHeap samples the bytes held by heap objects, live or not yet
// collected, every few milliseconds until the returned stop function is
// called; stop returns the peak.
func sampleHeap() (stop func() float64) {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() float64 {
		metrics.Read(sample)
		return float64(sample[0].Value.Uint64())
	}
	peak := read()
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				peak = math.Max(peak, read())
			}
		}
	}()
	return func() float64 {
		close(quit)
		<-done
		return math.Max(peak, read())
	}
}

// gateErr reports a failed correctness check.
func gateErr(format string, args ...any) error {
	return fmt.Errorf("correctness gate failed: "+format, args...)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

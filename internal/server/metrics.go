package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	"pimeval/internal/fault"
	"pimeval/internal/stats"
)

// metrics is the server's observable state: the simulation statistics of
// every completed session folded into one guarded aggregate (stats.Locked —
// session goroutines merge concurrently while /metrics snapshots), plus
// server-level counters and a replay-latency reservoir for percentiles.
type metrics struct {
	pim *stats.Locked

	sessionsOK     atomic.Int64
	sessionsFailed atomic.Int64
	rejectQuota    atomic.Int64
	rejectCapacity atomic.Int64
	rejectDraining atomic.Int64

	// Durability-layer counters (DESIGN.md §16).
	dedupHits         atomic.Int64 // retried submissions answered from the done store
	sessionsRecovered atomic.Int64 // journaled sessions completed by Recover
	recoveryDiscarded atomic.Int64 // journals dropped during Recover
	journalErrors     atomic.Int64 // deferred journal/done-store write failures
	checkpointErrors  atomic.Int64 // deferred checkpoint write failures

	mu  sync.Mutex
	lat []float64 // replay latencies (ms), ring of the most recent latCap
	pos int
	n   int64 // total latency samples ever recorded
}

const latCap = 8192

func newMetrics() *metrics {
	return &metrics{pim: stats.NewLocked(), lat: make([]float64, 0, latCap)}
}

// finish records one completed session: its device statistics join the
// aggregate and its wall-clock replay latency joins the reservoir.
func (m *metrics) finish(st *stats.Stats, latencyMS float64) {
	m.pim.Merge(st)
	m.sessionsOK.Add(1)
	m.mu.Lock()
	if len(m.lat) < latCap {
		m.lat = append(m.lat, latencyMS)
	} else {
		m.lat[m.pos] = latencyMS
		m.pos = (m.pos + 1) % latCap
	}
	m.n++
	m.mu.Unlock()
}

// latencies returns a copy of the reservoir and the all-time sample count.
func (m *metrics) latencies() ([]float64, int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]float64(nil), m.lat...), m.n
}

// Percentile returns the p-th percentile (0..100) of samples by nearest
// rank on a sorted copy: the smallest sample with at least p% of the
// samples at or below it, the ceil(p/100*n)-th; p at or below 0 gives the
// minimum, and an empty input 0.
func Percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	// p*n is exact for integral p and any realistic n; p/100 first would
	// round 0.07*100 up past 7.
	rank := int(math.Ceil(p * float64(len(s)) / 100))
	rank = min(max(rank, 1), len(s))
	return s[rank-1]
}

// CommandStat is one aggregated per-command counter row of a snapshot.
type CommandStat struct {
	Cmd      string  `json:"cmd"`
	Count    int64   `json:"count"`
	TimeMS   float64 `json:"time_ms"`
	EnergyMJ float64 `json:"energy_mj"`
}

// Snapshot is the /metrics state in JSON form (GET /metrics?format=json).
type Snapshot struct {
	// Server gauges and counters.
	ActiveSessions   int   `json:"active_sessions"`
	QueueDepth       int64 `json:"queue_depth"`
	DeviceSlots      int   `json:"device_slots"`
	SessionsTotal    int64 `json:"sessions_total"`
	SessionsFailed   int64 `json:"sessions_failed"`
	RejectedQuota    int64 `json:"rejected_quota"`
	RejectedCapacity int64 `json:"rejected_capacity"`
	RejectedDraining int64 `json:"rejected_draining"`

	// Durability-layer counters.
	DedupHits         int64 `json:"dedup_hits"`
	SessionsRecovered int64 `json:"sessions_recovered"`
	RecoveryDiscarded int64 `json:"recovery_discarded"`
	JournalErrors     int64 `json:"journal_errors"`
	CheckpointErrors  int64 `json:"checkpoint_errors"`

	// Replay-latency percentiles over the most recent sessions (ms).
	LatencySamples int64   `json:"latency_samples"`
	LatencyP50MS   float64 `json:"latency_p50_ms"`
	LatencyP90MS   float64 `json:"latency_p90_ms"`
	LatencyP99MS   float64 `json:"latency_p99_ms"`

	// Aggregated simulation statistics over all completed sessions.
	KernelMS            float64       `json:"kernel_ms"`
	HostMS              float64       `json:"host_ms"`
	CopyMS              float64       `json:"copy_ms"`
	KernelMJ            float64       `json:"kernel_mj"`
	HostMJ              float64       `json:"host_mj"`
	CopyMJ              float64       `json:"copy_mj"`
	HostToDeviceBytes   int64         `json:"h2d_bytes"`
	DeviceToHostBytes   int64         `json:"d2h_bytes"`
	DeviceToDeviceBytes int64         `json:"d2d_bytes"`
	Faults              fault.Counts  `json:"faults"`
	Commands            []CommandStat `json:"commands,omitempty"`
}

// snapshot assembles the full metrics state.
func (s *Server) snapshot() Snapshot {
	st := s.met.pim.Snapshot()
	b := st.Breakdown()
	c := st.Copies()
	lat, n := s.met.latencies()
	snap := Snapshot{
		ActiveSessions:   s.active(),
		QueueDepth:       s.queue.Load(),
		DeviceSlots:      s.cfg.devices(),
		SessionsTotal:    s.met.sessionsOK.Load(),
		SessionsFailed:   s.met.sessionsFailed.Load(),
		RejectedQuota:    s.met.rejectQuota.Load(),
		RejectedCapacity: s.met.rejectCapacity.Load(),
		RejectedDraining: s.met.rejectDraining.Load(),

		DedupHits:         s.met.dedupHits.Load(),
		SessionsRecovered: s.met.sessionsRecovered.Load(),
		RecoveryDiscarded: s.met.recoveryDiscarded.Load(),
		JournalErrors:     s.met.journalErrors.Load(),
		CheckpointErrors:  s.met.checkpointErrors.Load(),

		LatencySamples: n,
		LatencyP50MS:   Percentile(lat, 50),
		LatencyP90MS:   Percentile(lat, 90),
		LatencyP99MS:   Percentile(lat, 99),

		KernelMS:            b.Kernel.TimeMS(),
		HostMS:              b.Host.TimeMS(),
		CopyMS:              b.Copy.TimeMS(),
		KernelMJ:            b.Kernel.EnergyMJ(),
		HostMJ:              b.Host.EnergyMJ(),
		CopyMJ:              b.Copy.EnergyMJ(),
		HostToDeviceBytes:   c.HostToDeviceBytes,
		DeviceToHostBytes:   c.DeviceToHostBytes,
		DeviceToDeviceBytes: c.DeviceToDeviceBytes,
		Faults:              st.Faults(),
	}
	for _, cs := range st.Commands() {
		snap.Commands = append(snap.Commands, CommandStat{
			Cmd: cs.Name, Count: cs.Count,
			TimeMS: cs.Cost.TimeMS(), EnergyMJ: cs.Cost.EnergyMJ(),
		})
	}
	return snap
}

// handleMetrics serves the aggregate in Prometheus-style text form, or as
// the JSON Snapshot with ?format=json.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	snap := s.snapshot()
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(snap)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprintf(w, "pimserved_active_sessions %d\n", snap.ActiveSessions)
	fmt.Fprintf(w, "pimserved_queue_depth %d\n", snap.QueueDepth)
	fmt.Fprintf(w, "pimserved_device_slots %d\n", snap.DeviceSlots)
	fmt.Fprintf(w, "pimserved_sessions_total %d\n", snap.SessionsTotal)
	fmt.Fprintf(w, "pimserved_sessions_failed_total %d\n", snap.SessionsFailed)
	fmt.Fprintf(w, "pimserved_rejected_total{reason=%q} %d\n", "quota", snap.RejectedQuota)
	fmt.Fprintf(w, "pimserved_rejected_total{reason=%q} %d\n", "capacity", snap.RejectedCapacity)
	fmt.Fprintf(w, "pimserved_rejected_total{reason=%q} %d\n", "draining", snap.RejectedDraining)
	fmt.Fprintf(w, "pimserved_dedup_hits_total %d\n", snap.DedupHits)
	fmt.Fprintf(w, "pimserved_sessions_recovered_total %d\n", snap.SessionsRecovered)
	fmt.Fprintf(w, "pimserved_recovery_discarded_total %d\n", snap.RecoveryDiscarded)
	fmt.Fprintf(w, "pimserved_journal_errors_total %d\n", snap.JournalErrors)
	fmt.Fprintf(w, "pimserved_checkpoint_errors_total %d\n", snap.CheckpointErrors)
	fmt.Fprintf(w, "pimserved_latency_samples %d\n", snap.LatencySamples)
	fmt.Fprintf(w, "pimserved_replay_latency_ms{quantile=%q} %g\n", "0.5", snap.LatencyP50MS)
	fmt.Fprintf(w, "pimserved_replay_latency_ms{quantile=%q} %g\n", "0.9", snap.LatencyP90MS)
	fmt.Fprintf(w, "pimserved_replay_latency_ms{quantile=%q} %g\n", "0.99", snap.LatencyP99MS)
	fmt.Fprintf(w, "pim_kernel_ms_total %g\n", snap.KernelMS)
	fmt.Fprintf(w, "pim_host_ms_total %g\n", snap.HostMS)
	fmt.Fprintf(w, "pim_copy_ms_total %g\n", snap.CopyMS)
	fmt.Fprintf(w, "pim_kernel_mj_total %g\n", snap.KernelMJ)
	fmt.Fprintf(w, "pim_host_mj_total %g\n", snap.HostMJ)
	fmt.Fprintf(w, "pim_copy_mj_total %g\n", snap.CopyMJ)
	fmt.Fprintf(w, "pim_copy_bytes_total{dir=%q} %d\n", "h2d", snap.HostToDeviceBytes)
	fmt.Fprintf(w, "pim_copy_bytes_total{dir=%q} %d\n", "d2h", snap.DeviceToHostBytes)
	fmt.Fprintf(w, "pim_copy_bytes_total{dir=%q} %d\n", "d2d", snap.DeviceToDeviceBytes)
	f := snap.Faults
	fmt.Fprintf(w, "pim_fault_transient_flips_total %d\n", f.TransientFlips)
	fmt.Fprintf(w, "pim_fault_stuck_total %d\n", f.StuckFaults)
	fmt.Fprintf(w, "pim_fault_failed_words_total %d\n", f.FailedWords)
	fmt.Fprintf(w, "pim_ecc_corrected_total %d\n", f.Corrected)
	fmt.Fprintf(w, "pim_ecc_detected_total %d\n", f.Detected)
	fmt.Fprintf(w, "pim_ecc_silent_total %d\n", f.Silent)
	for _, cs := range snap.Commands {
		fmt.Fprintf(w, "pim_commands_total{cmd=%q} %d\n", cs.Cmd, cs.Count)
	}
}

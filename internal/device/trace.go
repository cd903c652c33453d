package device

import (
	"fmt"
	"strings"

	"pimeval/internal/perf"
)

// TraceEntry records one dispatched command or copy for inspection.
type TraceEntry struct {
	Seq  int64
	Name string // command mnemonic or copy direction
	N    int64  // elements processed / bytes moved
	Reps int64  // WithRepeat multiplier in effect
	Cost perf.Cost
}

// String renders the entry as one trace line.
func (e TraceEntry) String() string {
	reps := ""
	if e.Reps > 1 {
		reps = fmt.Sprintf(" x%d", e.Reps)
	}
	return fmt.Sprintf("%6d  %-16s n=%-12d%s  %.3f us  %.3f uJ",
		e.Seq, e.Name, e.N, reps, e.Cost.TimeNS/1e3, e.Cost.EnergyPJ/1e6)
}

// traceLimit bounds the retained trace so paper-scale runs with hundreds of
// thousands of commands keep only the most recent window.
const traceLimit = 1 << 16

// traceSink is the pipeline sink behind the command trace: it renders exec
// and copy events into trace entries while enabled, keeping the most recent
// traceLimit entries. Sequence numbers advance only while tracing is on.
type traceSink struct {
	tracing bool
	seq     int64
	entries []TraceEntry // the trace is the last traceLimit of these (window)
}

// Emit appends a trace entry for traceable (named) events while enabled.
// entries grows to twice the window before the newest window moves down,
// so each entry is copied at most once.
func (t *traceSink) Emit(ev *Event) {
	if !t.tracing || ev.Name == "" {
		return
	}
	t.seq++
	if len(t.entries) == 2*traceLimit {
		t.entries = t.entries[:copy(t.entries, t.entries[traceLimit:])]
	}
	t.entries = append(t.entries, TraceEntry{
		Seq: t.seq, Name: ev.Name, N: ev.N, Reps: ev.Reps, Cost: ev.TraceCost,
	})
}

// window returns the retained trace: the newest traceLimit entries.
func (t *traceSink) window() []TraceEntry {
	return t.entries[max(0, len(t.entries)-traceLimit):]
}

// EnableTrace starts recording dispatched commands and copies. The trace
// retains the most recent 64Ki entries.
func (d *Device) EnableTrace() { d.pipe.trace.tracing = true }

// DisableTrace stops recording (the collected trace is kept).
func (d *Device) DisableTrace() { d.pipe.trace.tracing = false }

// Trace returns the recorded entries in dispatch order.
func (d *Device) Trace() []TraceEntry {
	return append([]TraceEntry(nil), d.pipe.trace.window()...)
}

// TraceString renders the whole trace.
func (d *Device) TraceString() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s  %-16s %-15s %10s %10s\n", "seq", "command", "elements", "time", "energy")
	for _, e := range d.pipe.trace.window() {
		fmt.Fprintln(&b, e.String())
	}
	return b.String()
}

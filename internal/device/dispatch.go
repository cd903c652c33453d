package device

import (
	"pimeval/internal/cmdstream"
	"pimeval/internal/fault"
	"pimeval/internal/isa"
	"pimeval/internal/perf"
	"pimeval/internal/stats"
)

// pipeline is the staged dispatch path every device operation flows through:
//
//	validate → lower to cmdstream record → functional backend → cost model
//	         → fan-out to sinks (stats, trace, recorder)
//
// Validation and the functional backend live with the entry points (exec.go,
// copy.go); the pipeline owns lowering, cost finalization, and fan-out. The
// built-in sinks are concrete fields so the hot path pays no interface
// dispatch, and the IR record is only materialized when a record-consuming
// sink is attached.
type pipeline struct {
	stats    statsSink
	trace    traceSink
	recorder *recorderSink
	// repeat is the WithRepeat factor charged to every operation (1 when
	// no scope is open).
	repeat int64
	// ev is the reusable event buffer. Device dispatch is single-threaded
	// (only the functional element loops fan out), so one buffer serves
	// every dispatch without allocating.
	ev Event
}

// init wires the pipeline to a fresh statistics collector.
func (p *pipeline) init(st *stats.Stats) {
	p.stats.st = st
	p.repeat = 1
}

// wantRecord reports whether the recorder, the only sink that consumes IR
// records, is attached; when false, the lowering stage is skipped entirely
// (the stats and trace sinks read only the event's flat fields).
func (p *pipeline) wantRecord() bool { return p.recorder != nil }

// emit fans a finished event out to every sink.
func (p *pipeline) emit(ev *Event) {
	p.stats.Emit(ev)
	p.trace.Emit(ev)
	if p.recorder != nil {
		p.recorder.Emit(ev)
	}
}

// begin resets the reusable event buffer for a new dispatch.
func (d *Device) begin(class EventClass) *Event {
	ev := &d.pipe.ev
	*ev = Event{Class: class}
	return ev
}

// lowerAlloc emits the structural record for a completed allocation.
func (d *Device) lowerAlloc(o *Object) {
	if !d.pipe.wantRecord() {
		return
	}
	ev := d.begin(ClassStructural)
	ev.Record = cmdstream.Record{
		Kind: cmdstream.KindAlloc, Obj: int64(o.id), Type: o.dt.String(), N: o.n,
	}
	d.pipe.emit(ev)
}

// lowerFree emits the structural record for a completed free.
func (d *Device) lowerFree(id ObjID) {
	if !d.pipe.wantRecord() {
		return
	}
	ev := d.begin(ClassStructural)
	ev.Record = cmdstream.Record{Kind: cmdstream.KindFree, Obj: int64(id)}
	d.pipe.emit(ev)
}

// lowerRepeatBegin opens a repeat scope in the stream.
func (d *Device) lowerRepeatBegin(n int64) {
	if !d.pipe.wantRecord() {
		return
	}
	ev := d.begin(ClassStructural)
	ev.Record = cmdstream.Record{Kind: cmdstream.KindRepeatBegin, Repeat: n}
	d.pipe.emit(ev)
}

// lowerRepeatEnd closes the innermost repeat scope in the stream.
func (d *Device) lowerRepeatEnd() {
	if !d.pipe.wantRecord() {
		return
	}
	ev := d.begin(ClassStructural)
	ev.Record = cmdstream.Record{Kind: cmdstream.KindRepeatEnd}
	d.pipe.emit(ev)
}

// finishExec runs the cost-model stage for a dispatched PIM command and fans
// the event out. The trace sees the raw per-dispatch cost (no background
// energy, no repeat scaling — one line per issued command); the statistics
// charge adds the module-wide background energy for the command's duration
// (paper Section V-D iii) and scales by the repeat factor.
func (d *Device) finishExec(ev *Event, cmd isa.Command, shape *Object) {
	cost := d.arch.CmdCost(cmd, shape.elemsPerCore, shape.activeCores, d.cfg.Module, d.em)
	if d.eccOn() {
		// SEC-DED widens every row access by 8 check bits per 64 data
		// bits; the overhead rides inside the command cost (trace and
		// stats both see it) and is also tracked separately.
		ecc := fault.ECCOverhead(cost)
		cost = cost.Plus(ecc)
		d.pipe.stats.st.RecordECC(ecc.Scale(float64(d.pipe.repeat)))
	}
	ev.Name = cmd.Name()
	ev.N = cmd.N
	ev.TraceCost = cost
	ev.Reps = d.pipe.repeat
	ev.Category = cmd.Op.Category()
	total := d.cfg.Module.Geometry.TotalSubarrays()
	cost.EnergyPJ += d.em.BackgroundEnergyPJ(total, cost.TimeNS)
	ev.Cost = cost.Scale(float64(d.pipe.repeat))
	d.pipe.emit(ev)
}

// finishCopy fans out a data-movement event. cost and the traffic counters
// arrive already scaled by the repeat factor; the trace shows the scaled
// cost with the unscaled byte count, matching the pre-pipeline simulator.
func (d *Device) finishCopy(ev *Event, name string, n int64, cost perf.Cost, h2d, d2h, d2d int64) {
	if d.eccOn() {
		// cost arrives repeat-scaled, so the ECC share is too.
		ecc := fault.ECCOverhead(cost)
		cost = cost.Plus(ecc)
		d.pipe.stats.st.RecordECC(ecc)
	}
	ev.Name = name
	ev.N = n
	ev.TraceCost = cost
	ev.Reps = d.pipe.repeat
	ev.Cost = cost
	ev.H2D, ev.D2H, ev.D2D = h2d, d2h, d2d
	d.pipe.emit(ev)
}

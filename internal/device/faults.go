package device

import "pimeval/internal/fault"

// Fault-injection stage glue. The injector (internal/fault) runs serially
// inside the single-threaded dispatcher, immediately after the functional
// backend writes an operation's destination and before the event fans out to
// sinks — mirroring hardware, where faults strike the stored bits, not the
// computation. Every write consumes one injector sequence number whether or
// not data is materialized, so a functional stream replayed on a device
// built from its header faults bit-for-bit identically.

// eccOn reports whether the SEC-DED cost model is active.
func (d *Device) eccOn() bool {
	return d.inj != nil && d.cfg.Faults != nil && d.cfg.Faults.ECC
}

// injectWrite runs the fault stage over one completed write into o's element
// range [lo, hi), records the per-write fault counters into the statistics,
// and returns the injector's verdict (an error wrapping ErrUncorrectable
// when ECC detected an unrecoverable error). With injection disabled it is a
// nil check and nothing else — the no-fault dispatch path stays byte- and
// cost-identical. In model-only mode no data exists to corrupt; the stage
// still consumes a sequence number to stay in lockstep with functional
// replays of the same command stream.
func (d *Device) injectWrite(o *Object, lo, hi int64) error {
	// Inlinable fast path: fault-free devices pay one nil check.
	if d.inj == nil {
		return nil
	}
	return d.injectWriteSlow(o, lo, hi)
}

// injectWriteSlow is the out-of-line injection stage behind injectWrite's
// nil check. Counters go straight to the statistics collector (not through
// the event fan-out) so the Event stays lean for the fault-free hot path.
func (d *Device) injectWriteSlow(o *Object, lo, hi int64) error {
	// The injector reads the stored bits it corrupts and checks.
	o.zero()
	delta, err := d.inj.InjectWrite(fault.Region{
		Data:         o.data,
		Type:         o.dt,
		Lo:           lo,
		Hi:           hi,
		ElemsPerCore: o.elemsPerCore,
		ActiveCores:  o.activeCores,
	})
	if delta.Any() {
		d.pipe.stats.st.RecordFaults(delta)
	}
	return err
}

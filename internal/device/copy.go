package device

import (
	"fmt"
	"io"
	"slices"

	"pimeval/internal/cmdstream"
	"pimeval/internal/isa"
	"pimeval/internal/perf"
)

// CopyHostToDevice loads values into the object (the functional payload is
// required to match the object's length). In model-only mode only the
// transfer is charged.
func (d *Device) CopyHostToDevice(id ObjID, values []int64) (err error) {
	if d.guarded() {
		defer guard(&err)
	}
	if err := d.start(); err != nil {
		return err
	}
	o, err := d.res.lookup(id)
	if err != nil {
		return err
	}
	var data []int64
	if d.cfg.Functional {
		if int64(len(values)) != o.n {
			return fmt.Errorf("%w: copy of %d values into object of %d", ErrShapeMismatch, len(values), o.n)
		}
		err = d.forSpans(o, func(lo, hi int64) {
			o.data.Store(lo, values[lo:hi])
		})
		if err != nil {
			return err
		}
		if d.pipe.wantRecord() {
			// The copy detaches the record from the caller's slice.
			data = append([]int64(nil), values...)
		}
	}
	return d.finishH2D(id, o, data)
}

// CopyHostToDeviceFrom is the chunked (out-of-core) form of
// CopyHostToDevice: next returns successive payload chunks and io.EOF at
// end, and each chunk is written into the object as it arrives, so a
// payload larger than memory streams straight from its source (a binary
// stream decoder, a file reader) into device storage. Chunks may be reused
// by next between calls. The operation's shape, cost, fault injection, and
// recorded form are identical to a CopyHostToDevice of the concatenated
// chunks — including that re-recording a functional replay materializes the
// payload into the new record.
func (d *Device) CopyHostToDeviceFrom(id ObjID, next func() ([]int64, error)) error {
	return d.copyInFrames(id, func() (h2dFrame, error) {
		vals, err := next()
		return h2dFrame{vals: vals}, err
	})
}

// CopyHostToDevicePacked is CopyHostToDeviceFrom over packed frames: next
// returns each frame as little-endian elements at the returned type's width
// (cmdstream.PackedSource.NextPayloadFrame). A frame of the object's own
// type lands in storage with one copy (isa.Elems.Unpack); a frame of any
// other type, such as the int64 fallback of a payload that does not fit the
// object's type, is widened to carriers and narrowed like a chunk. The
// result is identical to CopyHostToDeviceFrom of the frames' carriers.
func (d *Device) CopyHostToDevicePacked(id ObjID, next func() (isa.DataType, []byte, error)) error {
	return d.copyInFrames(id, func() (h2dFrame, error) {
		dt, raw, err := next()
		return h2dFrame{packed: true, dt: dt, raw: raw}, err
	})
}

// h2dFrame is one frame of a streamed h2d payload: a chunk of int64
// carriers, or packed bytes at dt's width.
type h2dFrame struct {
	vals   []int64
	packed bool
	dt     isa.DataType
	raw    []byte
}

// copyInFrames is the one body of both streamed h2d entry points: it lands
// next's frames in the object in order, then checks the total length,
// records, injects faults and charges exactly as CopyHostToDevice does.
func (d *Device) copyInFrames(id ObjID, next func() (h2dFrame, error)) (err error) {
	if d.guarded() {
		defer guard(&err)
	}
	if err := d.start(); err != nil {
		return err
	}
	o, err := d.res.lookup(id)
	if err != nil {
		return err
	}
	wantData := d.pipe.wantRecord() && d.cfg.Functional
	// data is the recorded payload: carriers captured pre-truncation and
	// pre-injection, as CopyHostToDevice records them. wide holds a packed
	// frame's carriers when it cannot land as it is, or is recorded.
	var data, wide []int64
	var off int64
	for {
		f, ferr := next()
		if ferr == io.EOF {
			break
		}
		if ferr != nil {
			return ferr
		}
		n := int64(len(f.vals))
		if f.packed {
			if !f.dt.Valid() || len(f.raw)%f.dt.Bytes() != 0 {
				return fmt.Errorf("%w: packed frame of %d bytes as %v", ErrBadArgument, len(f.raw), f.dt)
			}
			n = int64(len(f.raw) / f.dt.Bytes())
		}
		if d.cfg.Functional && off+n > o.n {
			return fmt.Errorf("%w: chunked copy of over %d values into object of %d",
				ErrShapeMismatch, off+n, o.n)
		}
		vals := f.vals
		if f.packed && (wantData || d.cfg.Functional && f.dt != o.dt) {
			wide = slices.Grow(wide[:0], int(n))[:n]
			f.dt.Unpack(wide, f.raw)
			vals = wide
		}
		switch {
		case !d.cfg.Functional:
		case f.packed && f.dt == o.dt:
			o.data.Unpack(f.raw, off, off+n)
		default:
			o.data.Store(off, vals)
		}
		if wantData {
			data = append(data, vals...)
		}
		off += n
	}
	if d.cfg.Functional && off != o.n {
		return fmt.Errorf("%w: chunked copy of %d values into object of %d", ErrShapeMismatch, off, o.n)
	}
	return d.finishH2D(id, o, data)
}

// finishH2D is the tail every h2d shares: the event (recording data as the
// functional payload), fault injection over the whole object, and the
// transfer's cost and statistics.
func (d *Device) finishH2D(id ObjID, o *Object, data []int64) error {
	ev := d.begin(ClassCopy)
	if d.pipe.wantRecord() {
		ev.Record = cmdstream.Record{Kind: cmdstream.KindCopyH2D, Obj: int64(id)}
		if d.cfg.Functional {
			// Functional recordings carry the payload so a replay
			// reconstructs the same device data. It is captured
			// pre-injection: replays re-run the fault stage at the same
			// sequence number and corrupt it identically.
			ev.Record.Data = data
		}
	}
	ferr := d.injectWrite(o, 0, o.n)
	cost := perf.DataMovement(d.cfg.Module, o.Bytes(), false).Scale(float64(d.pipe.repeat))
	d.finishCopy(ev, "copy.h2d", o.Bytes(), cost, o.Bytes()*d.pipe.repeat, 0, 0)
	return ferr
}

// CopyDeviceToHost copies the object's values out. In model-only mode it
// returns nil data after charging the transfer.
func (d *Device) CopyDeviceToHost(id ObjID) (_ []int64, err error) {
	if d.guarded() {
		defer guard(&err)
	}
	if err := d.start(); err != nil {
		return nil, err
	}
	o, err := d.res.lookup(id)
	if err != nil {
		return nil, err
	}
	ev := d.begin(ClassCopy)
	if d.pipe.wantRecord() {
		ev.Record = cmdstream.Record{Kind: cmdstream.KindCopyD2H, Obj: int64(id)}
	}
	cost := perf.DataMovement(d.cfg.Module, o.Bytes(), true).Scale(float64(d.pipe.repeat))
	d.finishCopy(ev, "copy.d2h", o.Bytes(), cost, 0, o.Bytes()*d.pipe.repeat, 0)
	if !d.cfg.Functional {
		return nil, nil
	}
	out := make([]int64, o.n)
	o.data.Load(out, 0)
	return out, nil
}

// CopyDeviceToDevice copies src into dst. If dst is larger, src is tiled
// (replicated) to fill it — the mechanism GEMV-style kernels use to
// broadcast a vector across matrix rows.
func (d *Device) CopyDeviceToDevice(src, dst ObjID) (err error) {
	if d.guarded() {
		defer guard(&err)
	}
	if err := d.start(); err != nil {
		return err
	}
	s, err := d.res.lookup(src)
	if err != nil {
		return err
	}
	t, err := d.res.lookup(dst)
	if err != nil {
		return err
	}
	if s.dt != t.dt {
		return fmt.Errorf("%w: d2d between %v and %v", ErrShapeMismatch, s.dt, t.dt)
	}
	if t.n%s.n != 0 {
		return fmt.Errorf("%w: dst length %d not a multiple of src length %d", ErrShapeMismatch, t.n, s.n)
	}
	if d.cfg.Functional {
		t.data.Tile(s.data)
	}
	var cost perf.Cost
	var volume int64
	if t.n > s.n {
		// Replicating a small operand across a large object is a
		// broadcast: the controller transmits the source once over the
		// shared bus and every core writes its local rows in parallel.
		g := d.cfg.Module.Geometry
		rowsPerCore := float64(t.elemsPerCore*int64(t.dt.Bits())+int64(g.ColsPerRow)-1) /
			float64(g.ColsPerRow)
		cost = perf.DataMovement(d.cfg.Module, s.Bytes(), false)
		cost.TimeNS += rowsPerCore * d.cfg.Module.Timing.RowWriteNS
		cost.EnergyPJ += rowsPerCore * d.em.RowWritePJ() * float64(t.activeCores)
		volume = s.Bytes()
	} else {
		// A same-size move travels over the module's internal buses at
		// rank bandwidth.
		cost = perf.DataMovement(d.cfg.Module, t.Bytes(), false)
		volume = t.Bytes()
	}
	cost = cost.Scale(float64(d.pipe.repeat))
	ev := d.begin(ClassCopy)
	if d.pipe.wantRecord() {
		ev.Record = cmdstream.Record{Kind: cmdstream.KindCopyD2D, Src: int64(src), Dst: int64(dst)}
	}
	ferr := d.injectWrite(t, 0, t.n)
	d.finishCopy(ev, "copy.d2d", volume, cost, 0, 0, volume*d.pipe.repeat)
	return ferr
}

// CopyDeviceToDeviceRange copies n elements from src starting at srcOff
// into dst starting at dstOff — the gather primitive graph kernels use to
// assemble row batches from a resident adjacency matrix.
func (d *Device) CopyDeviceToDeviceRange(src ObjID, srcOff int64, dst ObjID, dstOff, n int64) (err error) {
	if d.guarded() {
		defer guard(&err)
	}
	if err := d.start(); err != nil {
		return err
	}
	s, err := d.res.lookup(src)
	if err != nil {
		return err
	}
	t, err := d.res.lookup(dst)
	if err != nil {
		return err
	}
	if s.dt != t.dt {
		return fmt.Errorf("%w: ranged d2d between %v and %v", ErrShapeMismatch, s.dt, t.dt)
	}
	if n <= 0 || srcOff < 0 || dstOff < 0 || srcOff+n > s.n || dstOff+n > t.n {
		return fmt.Errorf("%w: ranged d2d [%d,%d)->[%d,%d) outside objects of %d/%d",
			ErrBadArgument, srcOff, srcOff+n, dstOff, dstOff+n, s.n, t.n)
	}
	if d.cfg.Functional {
		t.data.CopyFrom(dstOff, s.data, srcOff, n)
	}
	bytes := n * int64(t.dt.Bytes())
	cost := perf.DataMovement(d.cfg.Module, bytes, false).Scale(float64(d.pipe.repeat))
	ev := d.begin(ClassCopy)
	if d.pipe.wantRecord() {
		ev.Record = cmdstream.Record{
			Kind: cmdstream.KindCopyD2DRange,
			Src:  int64(src), SrcOff: srcOff, Dst: int64(dst), DstOff: dstOff, N: n,
		}
	}
	ferr := d.injectWrite(t, dstOff, dstOff+n)
	d.finishCopy(ev, "copy.d2d", bytes, cost, 0, 0, bytes*d.pipe.repeat)
	return ferr
}

// RecordHost charges a host-executed phase to the device's statistics.
func (d *Device) RecordHost(cost perf.Cost) {
	ev := d.begin(ClassHost)
	if d.pipe.wantRecord() {
		ev.Record = cmdstream.Record{
			Kind: cmdstream.KindHost, TimeNS: cost.TimeNS, EnergyPJ: cost.EnergyPJ,
		}
	}
	ev.Reps = d.pipe.repeat
	ev.Cost = cost.Scale(float64(d.pipe.repeat))
	d.pipe.emit(ev)
}

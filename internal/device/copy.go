package device

import (
	"fmt"
	"io"
	"slices"

	"pimeval/internal/cmdstream"
	"pimeval/internal/isa"
	"pimeval/internal/perf"
)

// CopyHostToDevice loads int64 carriers into the object: CopyIn at int64.
func (d *Device) CopyHostToDevice(id ObjID, values []int64) error {
	return CopyIn(d, id, values)
}

// CopyIn is the one h2d body of a whole host slice: on a functional device
// it stores values, which must have the object's length, straight into
// storage as isa.StoreInts does; in model-only mode it only charges the
// transfer. A recorded copy carries the values widened (Record.Data).
func CopyIn[T isa.Integer](d *Device, id ObjID, values []T) (err error) {
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
		if err := d.forSpans(o, func(lo, hi int64) { isa.StoreInts(o.data, lo, values[lo:hi]) }); err != nil {
			return err
		}
		o.stale = false
		if d.pipe.wantRecord() && len(values) > 0 {
			// The record's own carriers, detached from the caller's slice;
			// a clone fills its new array without clearing it first.
			if vals, ok := any(values).([]int64); ok {
				data = slices.Clone(vals)
			} else {
				data = make([]int64, len(values))
				isa.StoreInts(isa.Slice[int64](data), 0, values)
			}
		}
	}
	return d.finishH2D(id, o, data, nil)
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
	return d.copyInFrames(id, func(land func(h2dFrame) error) error {
		vals, err := next()
		if err != nil {
			return err
		}
		return land(h2dFrame{vals: vals})
	})
}

// CopyHostToDevicePacked is CopyHostToDeviceFrom over packed frames: each
// call of frames hands one frame to its cmdstream.FrameFunc as
// little-endian elements at the frame's type width, read from an
// io.Reader, and returns io.EOF after the last (the shape of
// cmdstream.FrameReader.ReadPayloadFrame). A frame of the object's own type
// is read straight into storage (isa.Elems.UnpackFrom) unless the copy is
// recorded; a frame of any other type, such as the int64 fallback of a
// payload that does not fit the object's type, is widened to carriers and
// narrowed like a chunk. The result is identical to CopyHostToDeviceFrom of
// the frames' carriers; only the recorded payload's form differs, packed
// frames (Record.Packed) when every frame is of the object's type.
func (d *Device) CopyHostToDevicePacked(id ObjID, frames func(cmdstream.FrameFunc) error) error {
	return d.copyInFrames(id, func(land func(h2dFrame) error) error {
		return frames(func(dt isa.DataType, size int, r io.Reader) error {
			return land(h2dFrame{dt: dt, size: size, r: r})
		})
	})
}

// h2dFrame is one frame of a streamed h2d payload: a chunk of int64
// carriers, or, when r is set, size bytes of packed elements of type dt
// that r yields.
type h2dFrame struct {
	vals []int64
	dt   isa.DataType
	size int
	r    io.Reader
}

// copyInFrames is the one body of both streamed h2d entry points: each call
// of frames lands one frame in the object, in order, until io.EOF; then it
// checks the total length, records, injects faults and charges exactly as
// CopyHostToDevice does. A copy that fails after frames began to land
// leaves them in place; on stale storage the rest is zeroed, so the object
// reads as a fresh one that took the landed prefix.
func (d *Device) copyInFrames(id ObjID, frames func(land func(h2dFrame) error) error) (err error) {
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
	functional := d.cfg.Functional
	wantData := d.pipe.wantRecord() && functional
	// The recorded payload is captured pre-truncation and pre-injection, as
	// CopyHostToDevice records it: packed, each frame read into a buffer the
	// record keeps, while every frame is of the object's own type, else as
	// carriers (data). wide holds a packed frame's carriers when it cannot
	// land or be recorded as it is; scratch holds its bytes.
	var pay *cmdstream.Payload
	var data, wide []int64
	var scratch []byte
	var off int64
	land := func(f h2dFrame) error {
		n := int64(len(f.vals))
		if f.r != nil {
			if !f.dt.Valid() || f.size < 0 || f.size%f.dt.Bytes() != 0 {
				return fmt.Errorf("%w: packed frame of %d bytes as %v", ErrBadArgument, f.size, f.dt)
			}
			n = int64(f.size / f.dt.Bytes())
		}
		if functional && off+n > o.n {
			return fmt.Errorf("%w: chunked copy of over %d values into object of %d",
				ErrShapeMismatch, off+n, o.n)
		}
		inType := f.r != nil && f.dt == o.dt
		recordPacked := wantData && inType && data == nil
		vals := f.vals
		var raw []byte
		if f.r != nil {
			if !wantData && (inType || !functional) {
				// Only storage takes the frame: one pass from the reader.
				if functional {
					if err := o.data.UnpackFrom(f.r, off, off+n); err != nil {
						return err
					}
				}
				off += n
				return nil
			}
			if recordPacked {
				raw = make([]byte, f.size)
			} else {
				scratch = slices.Grow(scratch[:0], f.size)[:f.size]
				raw = scratch
			}
			if _, err := io.ReadFull(f.r, raw); err != nil {
				return err
			}
			if functional && !inType || wantData && !recordPacked {
				wide = slices.Grow(wide[:0], int(n))[:n]
				f.dt.Unpack(wide, raw)
				vals = wide
			}
		}
		switch {
		case !functional:
		case inType:
			o.data.Unpack(raw, off, off+n)
		default:
			isa.StoreInts(o.data, off, vals)
		}
		switch {
		case recordPacked && n > 0:
			if pay == nil {
				pay = &cmdstream.Payload{Type: o.dt}
			}
			pay.Frames = append(pay.Frames, raw)
		case wantData && !recordPacked:
			if pay != nil {
				// A frame of another type follows packed ones: the
				// record falls back to carriers for the whole payload.
				var err error
				if data, err = pay.Int64s(); err != nil {
					return err
				}
				pay = nil
			}
			data = append(data, vals...)
		}
		off += n
		return nil
	}
	for err == nil {
		err = frames(land)
	}
	if err == io.EOF && functional && off != o.n {
		err = fmt.Errorf("%w: chunked copy of %d values into object of %d", ErrShapeMismatch, off, o.n)
	}
	if err != io.EOF {
		if o.stale {
			o.data.Clear(off, o.n)
			o.stale = false
		}
		return err
	}
	o.stale = false
	return d.finishH2D(id, o, data, pay)
}

// finishH2D is the tail every h2d shares: the event (recording data or pay
// as the functional payload), fault injection over the whole object, and
// the transfer's cost and statistics.
func (d *Device) finishH2D(id ObjID, o *Object, data []int64, pay *cmdstream.Payload) error {
	ev := d.begin(ClassCopy)
	if d.pipe.wantRecord() {
		ev.Record = cmdstream.Record{Kind: cmdstream.KindCopyH2D, Obj: int64(id)}
		if d.cfg.Functional {
			// Functional recordings carry the payload so a replay
			// reconstructs the same device data. It is captured
			// pre-injection: replays re-run the fault stage at the same
			// sequence number and corrupt it identically.
			ev.Record.Data, ev.Record.Packed = data, pay
		}
	}
	ferr := d.injectWrite(o, 0, o.n)
	cost := perf.DataMovement(d.cfg.Module, o.Bytes(), false).Scale(float64(d.pipe.repeat))
	d.finishCopy(ev, "copy.h2d", o.Bytes(), cost, o.Bytes()*d.pipe.repeat, 0, 0)
	return ferr
}

// CopyDeviceToHost copies the object's values out as carriers; it is
// CopyOut into a fresh slice. In model-only mode it returns nil data after
// charging the transfer.
func (d *Device) CopyDeviceToHost(id ObjID) ([]int64, error) {
	return CopyOut[int64](d, id, nil, true)
}

// CopyOut is the one d2h body: it charges the transfer, then, on a
// functional device, converts the object's elements into dst as
// isa.LoadInts does and returns it; dst must have the object's length,
// checked after the charge, unless fresh asks for a new slice of that
// length. In model-only mode it returns nil and leaves dst untouched.
func CopyOut[T isa.Integer](d *Device, id ObjID, dst []T, fresh bool) (_ []T, err error) {
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
	o.zero()
	if fresh {
		dst = make([]T, o.n)
	}
	if int64(len(dst)) != o.n {
		return nil, fmt.Errorf("%w: destination slice length %d, object length %d",
			ErrShapeMismatch, len(dst), o.n)
	}
	isa.LoadInts(o.data, dst, 0)
	return dst, nil
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
		s.zero()
		t.data.Tile(s.data)
		t.stale = false
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
		s.zero()
		t.zero()
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

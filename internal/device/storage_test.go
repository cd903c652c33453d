package device

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"pimeval/internal/cmdstream"
	"pimeval/internal/dram"
	"pimeval/internal/fault"
	"pimeval/internal/isa"
)

// Tests for object storage width and lifetime: an object stores n elements
// at its type's width; a freed object's storage is a spare that a later
// allocation of any type reuses when the spare holds it, also after the
// device went idle; spare capacity plus live bytes stay within the peak
// live bytes; and a recycled array reads as zeros until a command writes
// all of it.

// spareBytes returns the storage bytes the device holds as spares: each
// spare's whole backing array, which a recycled spare may hold beyond its
// length.
func spareBytes(d *Device) int64 {
	var n int64
	for _, s := range d.res.spares {
		n += s.Capacity()
	}
	return n
}

// base returns the first byte of a storage's backing array, which
// identifies the array whatever type it is viewed as.
func base(e isa.Elems) *uint8 {
	return &e.Recast(isa.UInt8, 1).(isa.Slice[uint8])[0]
}

// TestObjectStorageWidth checks that a functional object holds its
// elements at the type's width: 2^20 uint8 elements take about 1 MiB of
// heap, not the 8 MiB of int64 carriers.
func TestObjectStorageWidth(t *testing.T) {
	d := newDev(t, TargetFulcrum)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	id, err := d.Alloc(1<<20, isa.UInt8)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 2<<20 {
		t.Errorf("allocating 2^20 uint8 elements grew the heap by %d bytes, want < 2 MiB", grew)
	}
	o, err := d.Object(id)
	if err != nil {
		t.Fatal(err)
	}
	if o.data.Len() != 1<<20 || o.data.Type() != isa.UInt8 {
		t.Errorf("storage holds %d %v elements", o.data.Len(), o.data.Type())
	}
}

// TestObjectStorageReuseByCapacity checks that a spare serves an
// allocation of any type whose bytes it holds: the smallest such spare is
// taken, handed out stale over the same backing array, while a spare larger
// than the allocation's element count at the widest type is not taken, and
// an allocation that takes no spare drops them all.
func TestObjectStorageReuseByCapacity(t *testing.T) {
	d := newDev(t, TargetFulcrum)
	alloc := func(n int64, dt isa.DataType) *Object {
		t.Helper()
		id, err := d.Alloc(n, dt)
		if err != nil {
			t.Fatal(err)
		}
		o, _ := d.Object(id)
		return o
	}
	free := func(o *Object) {
		t.Helper()
		if err := d.Free(o.id); err != nil {
			t.Fatal(err)
		}
	}
	alloc(1, isa.Int64) // a keeper stays live, so the table never empties
	big, small := alloc(300, isa.Int64), alloc(300, isa.Int32)
	bigBase, smallBase := base(big.data), base(small.data)
	free(big)
	free(small)
	if len(d.res.spares) != 2 || spareBytes(d) != 300*8+300*4 {
		t.Fatalf("%d spares of %d bytes after two frees", len(d.res.spares), spareBytes(d))
	}
	// 1000 uint8 elements fit both spares; the smaller one is taken.
	a := alloc(1000, isa.UInt8)
	if base(a.data) != smallBase || !a.stale || a.data.Type() != isa.UInt8 || a.data.Len() != 1000 {
		t.Fatalf("uint8 allocation got %v storage of %d elements, stale %v, small spare %v",
			a.data.Type(), a.data.Len(), a.stale, base(a.data) == smallBase)
	}
	// 150 int16 elements fit the int64 spare's 2400 bytes, but 150 int64
	// elements would take only 1200: fresh storage, and the spare is
	// dropped.
	b := alloc(150, isa.Int16)
	if base(b.data) == bigBase || b.stale || len(d.res.spares) != 0 || spareBytes(d) != 0 {
		t.Fatalf("int16 allocation took an oversized spare (stale %v), %d spares left", b.stale, len(d.res.spares))
	}
	// A recycled array keeps its capacity: back as a spare, it serves an
	// allocation that needs all of it.
	free(a)
	c := alloc(300, isa.UInt32)
	if base(c.data) != smallBase || !c.stale || len(d.res.spares) != 0 {
		t.Fatal("uint32 allocation did not take the recycled array back at its full capacity")
	}
}

// TestObjectStorageReallocReadsZero checks that an object allocated into a
// recycled array reads all zeros, whatever the freed object held — also
// after N-worker shards and the fault stage wrote that array.
func TestObjectStorageReallocReadsZero(t *testing.T) {
	faults := map[string]*fault.Config{
		"nofault": nil,
		"faults":  {Seed: 5, TransientBitRate: 1e-4, StuckBits: 16, FailedCores: 1},
		"ecc":     {Seed: 5, TransientBitRate: 1e-4, StuckBits: 16, FailedCores: 1, ECC: true},
	}
	for _, workers := range []int{1, runtime.NumCPU()} {
		for name, fc := range faults {
			t.Run(fmt.Sprintf("workers%d/%s", workers, name), func(t *testing.T) {
				d, err := New(Config{Target: TargetFulcrum, Module: dram.DDR4(1), Functional: true,
					Workers: workers, Faults: fc})
				if err != nil {
					t.Fatal(err)
				}
				// Spans several core regions and more than one shard.
				n := int64(3*parallelGrain + 17)
				// A keeper stays live, so each round's free leaves a spare.
				if _, err := d.Alloc(1, isa.Int64); err != nil {
					t.Fatal(err)
				}
				pattern := make([]int64, n)
				for i := range pattern {
					pattern[i] = int64(i)*0x5851f42d4c957f2d | 1
				}
				tolerate := func(err error) {
					t.Helper()
					if err != nil && !errors.Is(err, ErrUncorrectable) {
						t.Fatal(err)
					}
				}
				for round := 0; round < 3; round++ {
					id, err := d.Alloc(n, isa.Int64)
					if err != nil {
						t.Fatal(err)
					}
					got, err := d.CopyDeviceToHost(id)
					if err != nil {
						t.Fatal(err)
					}
					for i, v := range got {
						if v != 0 {
							t.Fatalf("round %d: element %d of a new object = %#x, want 0", round, i, v)
						}
					}
					tolerate(d.CopyHostToDevice(id, pattern))
					tolerate(d.ExecScalar(isa.OpXor, id, -1, id))
					data := d.res.objs[id].data.(isa.Slice[int64])
					if err := d.Free(id); err != nil {
						t.Fatal(err)
					}
					if len(d.res.spares) != 1 || &d.res.spares[0].(isa.Slice[int64])[0] != &data[0] {
						t.Fatalf("round %d: freed storage not kept as the one spare", round)
					}
				}
			})
		}
	}
}

// TestObjectStorageBoundedByPeakLive runs a seeded random alloc/free
// sequence of mixed types and lengths and checks after every step that
// spare plus live storage bytes never exceed the peak live storage, and
// that allocations do reuse spares of their type and length.
func TestObjectStorageBoundedByPeakLive(t *testing.T) {
	d := newDev(t, TargetBankLevel)
	rng := rand.New(rand.NewSource(3))
	lengths := []int64{1, 100, 4096, 5000, 8192}
	types := []isa.DataType{isa.Int32, isa.UInt32, isa.UInt8}
	var live []ObjID
	var liveBytes, peak, reused int64
	for step := 0; step < 5000; step++ {
		if len(live) == 0 || (len(live) < 12 && rng.Intn(2) == 0) {
			n, dt := lengths[rng.Intn(len(lengths))], types[rng.Intn(len(types))]
			before := len(d.res.spares)
			id, err := d.Alloc(n, dt)
			if err != nil {
				t.Fatal(err)
			}
			if len(d.res.spares) == before-1 {
				reused++
			}
			live = append(live, id)
			liveBytes += n * int64(dt.Bytes())
			peak = max(peak, liveBytes)
		} else {
			i := rng.Intn(len(live))
			o, _ := d.Object(live[i])
			liveBytes -= o.Bytes()
			if err := d.Free(live[i]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		}
		if s := spareBytes(d); s+liveBytes > peak {
			t.Fatalf("step %d: spare %d + live %d bytes exceed the peak %d", step, s, liveBytes, peak)
		}
	}
	if reused == 0 {
		t.Fatal("no allocation reused a spare")
	}
}

// TestObjectStorageIdleDeviceKeepsSpares checks that a device whose last
// live object is freed keeps the spares, within the peak live bytes, and
// that the next phase's allocations of another type run on them without
// allocating.
func TestObjectStorageIdleDeviceKeepsSpares(t *testing.T) {
	d := newDev(t, TargetBitSerial)
	lengths := []int64{10, 10, 4096, 77}
	// phase allocates and frees one object of each length and returns the
	// backing arrays they had.
	phase := func(dt isa.DataType) []*uint8 {
		t.Helper()
		var ids []ObjID
		var arrays []*uint8
		for _, n := range lengths {
			id, err := d.Alloc(n, dt)
			if err != nil {
				t.Fatal(err)
			}
			o, _ := d.Object(id)
			ids, arrays = append(ids, id), append(arrays, base(o.data))
		}
		for _, id := range ids {
			if err := d.Free(id); err != nil {
				t.Fatal(err)
			}
		}
		return arrays
	}
	phase(isa.Int16)
	var peak int64
	for _, n := range lengths {
		peak += n * 2
	}
	if len(d.res.objs) != 0 || len(d.res.spares) != len(lengths) || spareBytes(d) != peak {
		t.Fatalf("idle device holds %d spares of %d bytes, want %d of %d",
			len(d.res.spares), spareBytes(d), len(lengths), peak)
	}
	before := make(map[*uint8]bool)
	for _, s := range d.res.spares {
		before[base(s)] = true
	}
	for i, array := range phase(isa.UInt8) {
		if !before[array] {
			t.Fatalf("uint8 object of %d elements got fresh storage on a device with spares", lengths[i])
		}
	}
	if len(d.res.spares) != len(lengths) || spareBytes(d) != peak {
		t.Fatalf("after the second phase: %d spares of %d bytes", len(d.res.spares), spareBytes(d))
	}
}

// recycledCase is one first access to a recycled array: run issues it on
// device d against the stale object id (n elements of dt) and logs what the
// device returns and what the objects it wrote then read.
type recycledCase struct {
	name string
	run  func(t *testing.T, d *Device, id ObjID, n int64, dt isa.DataType, log func(...any))
}

// recycledCases covers every path that reads a stale array or writes only
// part of it (the read paths of a source operand, d2h, reductions, a ranged
// d2d, snapshot write, and failed h2d copies of the wrong length), and a
// command whose destination is also its source.
var recycledCases = []recycledCase{
	{"d2h", func(t *testing.T, d *Device, id ObjID, n int64, dt isa.DataType, log func(...any)) {
		log(d.CopyDeviceToHost(id))
	}},
	{"redsum", func(t *testing.T, d *Device, id ObjID, n int64, dt isa.DataType, log func(...any)) {
		log(d.RedSum(id))
	}},
	{"redsum.seg", func(t *testing.T, d *Device, id ObjID, n int64, dt isa.DataType, log func(...any)) {
		log(d.RedSumSeg(id, n))
	}},
	{"binary.src", func(t *testing.T, d *Device, id ObjID, n int64, dt isa.DataType, log func(...any)) {
		u := patterned(t, d, n, dt, log)
		log(d.ExecBinary(isa.OpAdd, id, u, u))
		log(d.CopyDeviceToHost(u))
	}},
	{"scalar.src", func(t *testing.T, d *Device, id ObjID, n int64, dt isa.DataType, log func(...any)) {
		u := patterned(t, d, n, dt, log)
		log(d.ExecScalar(isa.OpXor, id, 5, u))
		log(d.CopyDeviceToHost(u))
	}},
	{"unary.src", func(t *testing.T, d *Device, id ObjID, n int64, dt isa.DataType, log func(...any)) {
		u := patterned(t, d, n, dt, log)
		log(d.ExecUnary(isa.OpNot, id, u))
		log(d.CopyDeviceToHost(u))
	}},
	{"shift.src", func(t *testing.T, d *Device, id ObjID, n int64, dt isa.DataType, log func(...any)) {
		u := patterned(t, d, n, dt, log)
		log(d.ExecShift(isa.OpShiftL, id, 1, u))
		log(d.CopyDeviceToHost(u))
	}},
	{"select.cond", func(t *testing.T, d *Device, id ObjID, n int64, dt isa.DataType, log func(...any)) {
		a, b := patterned(t, d, n, dt, log), patterned(t, d, n, dt, log)
		log(d.ExecSelect(id, a, b, a))
		log(d.CopyDeviceToHost(a))
	}},
	{"fused.src", func(t *testing.T, d *Device, id ObjID, n int64, dt isa.DataType, log func(...any)) {
		u := patterned(t, d, n, dt, log)
		log(d.ExecFused(cmdstream.Fused{Form1: cmdstream.FormBinary, Form2: cmdstream.FormUnary,
			Op1: isa.OpSub, Op2: isa.OpNot, A: id, B: u, Dst: u}))
		log(d.CopyDeviceToHost(u))
	}},
	{"d2d.src", func(t *testing.T, d *Device, id ObjID, n int64, dt isa.DataType, log func(...any)) {
		u := patterned(t, d, n, dt, log)
		log(d.CopyDeviceToDevice(id, u))
		log(d.CopyDeviceToHost(u))
	}},
	{"d2d.range.src", func(t *testing.T, d *Device, id ObjID, n int64, dt isa.DataType, log func(...any)) {
		u := patterned(t, d, n, dt, log)
		log(d.CopyDeviceToDeviceRange(id, 7, u, 3, n/2))
		log(d.CopyDeviceToHost(u))
	}},
	{"d2d.range.dst", func(t *testing.T, d *Device, id ObjID, n int64, dt isa.DataType, log func(...any)) {
		u := patterned(t, d, n, dt, log)
		log(d.CopyDeviceToDeviceRange(u, 0, id, 3, n/2))
		log(d.CopyDeviceToHost(id))
	}},
	{"snapshot", func(t *testing.T, d *Device, id ObjID, n int64, dt isa.DataType, log func(...any)) {
		var buf bytes.Buffer
		if err := d.WriteSnapshot(&buf, 0); err != nil {
			t.Fatal(err)
		}
		r, _, err := RestoreSnapshot(&buf, 1)
		if err != nil {
			t.Fatal(err)
		}
		log(r.CopyDeviceToHost(id))
		log(d.CopyDeviceToHost(id))
	}},
	{"alias", func(t *testing.T, d *Device, id ObjID, n int64, dt isa.DataType, log func(...any)) {
		log(d.ExecScalar(isa.OpAdd, id, 1, id))
		log(d.CopyDeviceToHost(id))
	}},
	{"h2d.over", func(t *testing.T, d *Device, id ObjID, n int64, dt isa.DataType, log func(...any)) {
		log(d.CopyHostToDevicePacked(id, packedFrames(dt, pattern(n+5, dt), parallelGrain)))
		log(d.CopyDeviceToHost(id))
	}},
	{"h2d.under", func(t *testing.T, d *Device, id ObjID, n int64, dt isa.DataType, log func(...any)) {
		log(d.CopyHostToDevicePacked(id, packedFrames(dt, pattern(n-5, dt), parallelGrain)))
		log(d.CopyDeviceToHost(id))
	}},
	{"h2d.full", func(t *testing.T, d *Device, id ObjID, n int64, dt isa.DataType, log func(...any)) {
		log(d.CopyHostToDevicePacked(id, packedFrames(dt, pattern(n, dt), parallelGrain)))
		log(d.CopyDeviceToHost(id))
	}},
}

// pattern returns n nonzero values that fit dt.
func pattern(n int64, dt isa.DataType) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = dt.Truncate(int64(i)*0x5851f42d4c957f2d | 1)
	}
	return vals
}

// patterned allocates an object of n elements of dt holding pattern.
func patterned(t *testing.T, d *Device, n int64, dt isa.DataType, log func(...any)) ObjID {
	t.Helper()
	id, err := d.Alloc(n, dt)
	if err != nil {
		t.Fatal(err)
	}
	log(d.CopyHostToDevice(id, pattern(n, dt)))
	return id
}

// packedFrames returns vals packed at dt's width as CopyHostToDevicePacked
// frames of at most frame elements each.
func packedFrames(dt isa.DataType, vals []int64, frame int) func(cmdstream.FrameFunc) error {
	packed := make([]byte, len(vals)*dt.Bytes())
	dt.Pack(packed, vals)
	var r bytes.Reader
	return func(fn cmdstream.FrameFunc) error {
		if len(packed) == 0 {
			return io.EOF
		}
		size := min(len(packed), frame*dt.Bytes())
		r.Reset(packed[:size])
		packed = packed[size:]
		return fn(dt, size, &r)
	}
}

// TestObjectStorageRecycledReadsZero checks every first access to an
// uncleared recycled array of another type against the same access to a
// fresh array: both devices run the same commands (so faults strike the
// same bits), except that the recycled device frees the int64 object whose
// array it then hands out, stale, for the object under test. Each access
// must see zeros where the freed object's bytes lie, at one worker and at
// NumCPU, with faults off, on, and corrected by ECC; a failed h2d of the
// wrong length leaves its landed prefix and zeros.
func TestObjectStorageRecycledReadsZero(t *testing.T) {
	faults := map[string]*fault.Config{
		"nofault": nil,
		"faults":  {Seed: 5, TransientBitRate: 1e-4, StuckBits: 16, FailedCores: 1},
		"ecc":     {Seed: 5, TransientBitRate: 1e-4, StuckBits: 16, FailedCores: 1, ECC: true},
	}
	// Spans several core regions and more than one shard.
	n := int64(3*parallelGrain + 17)
	for _, workers := range []int{1, runtime.NumCPU()} {
		for fname, fc := range faults {
			for _, dt := range []isa.DataType{isa.UInt8, isa.Int16, isa.Int32} {
				for _, c := range recycledCases {
					t.Run(fmt.Sprintf("workers%d/%s/%v/%s", workers, fname, dt, c.name), func(t *testing.T) {
						var logs [2]string
						for k, recycle := range []bool{false, true} {
							d, err := New(Config{Target: TargetFulcrum, Module: dram.DDR4(1), Functional: true,
								Workers: workers, Faults: fc})
							if err != nil {
								t.Fatal(err)
							}
							log := func(vals ...any) { logs[k] += fmt.Sprintln(vals...) }
							if _, err := d.Alloc(1, isa.Int64); err != nil { // a keeper
								t.Fatal(err)
							}
							old := patterned(t, d, n, isa.Int64, log)
							if recycle {
								if err := d.Free(old); err != nil {
									t.Fatal(err)
								}
							}
							id, err := d.Alloc(n, dt)
							if err != nil {
								t.Fatal(err)
							}
							if o, _ := d.Object(id); o.stale != recycle {
								t.Fatalf("recycle %v: new object stale %v", recycle, o.stale)
							}
							c.run(t, d, id, n, dt, log)
						}
						if logs[0] != logs[1] {
							t.Errorf("recycled array read differently from a fresh one:\nfresh:    %.400s\nrecycled: %.400s", logs[0], logs[1])
						}
					})
				}
			}
		}
	}
}

// TestObjectStorageFailedH2DLeavesPrefix checks the exact contents a
// failed h2d leaves on a recycled array: the frames that landed, then
// zeros, whether the payload ran long or short.
func TestObjectStorageFailedH2DLeavesPrefix(t *testing.T) {
	const n, frame = 1000, 300
	// A long payload lands the whole frames that fit; a short one lands
	// all of its frames.
	for name, c := range map[string]struct{ total, landed int64 }{
		"over":  {n + 1, n / frame * frame},
		"under": {n - 1, n - 1},
	} {
		t.Run(name, func(t *testing.T) {
			d := newDev(t, TargetFulcrum)
			if _, err := d.Alloc(1, isa.Int64); err != nil {
				t.Fatal(err)
			}
			old, err := d.Alloc(n, isa.Int64)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.CopyHostToDevice(old, pattern(n, isa.Int64)); err != nil {
				t.Fatal(err)
			}
			if err := d.Free(old); err != nil {
				t.Fatal(err)
			}
			id, err := d.Alloc(n, isa.Int16)
			if err != nil {
				t.Fatal(err)
			}
			vals := pattern(c.total, isa.Int16)
			if err := d.CopyHostToDevicePacked(id, packedFrames(isa.Int16, vals, frame)); !errors.Is(err, ErrShapeMismatch) {
				t.Fatalf("h2d of %d values into %d: %v", c.total, n, err)
			}
			got, err := d.CopyDeviceToHost(id)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range got {
				want := int64(0)
				if int64(i) < c.landed {
					want = vals[i]
				}
				if v != want {
					t.Fatalf("element %d = %d, want %d (%d landed)", i, v, want, c.landed)
				}
			}
		})
	}
}

// TestObjectStorageFreedIDReturnsErrFreed checks that a freed ID stays
// freed after its storage went to a new object, and that the freed object
// no longer references that storage.
func TestObjectStorageFreedIDReturnsErrFreed(t *testing.T) {
	d := newDev(t, TargetFulcrum)
	if _, err := d.Alloc(1, isa.Int32); err != nil {
		t.Fatal(err)
	}
	old, err := d.Alloc(500, isa.Int32)
	if err != nil {
		t.Fatal(err)
	}
	stale, _ := d.Object(old)
	if err := d.Free(old); err != nil {
		t.Fatal(err)
	}
	if stale.data != nil {
		t.Error("a freed object still references its storage")
	}
	id, err := d.Alloc(500, isa.Int32)
	if err != nil {
		t.Fatal(err)
	}
	if id == old || len(d.res.spares) != 0 {
		t.Fatalf("new object %d over freed %d, %d spares left", id, old, len(d.res.spares))
	}
	if _, err := d.Object(old); !errors.Is(err, ErrFreed) {
		t.Errorf("lookup of freed id: %v", err)
	}
	if _, err := d.CopyDeviceToHost(old); !errors.Is(err, ErrFreed) {
		t.Errorf("read of freed id: %v", err)
	}
	if err := d.Free(old); !errors.Is(err, ErrFreed) {
		t.Errorf("double free: %v", err)
	}
	if err := d.Broadcast(id, 9); err != nil {
		t.Fatal(err)
	}
}

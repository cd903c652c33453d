package device

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"pimeval/internal/dram"
	"pimeval/internal/fault"
	"pimeval/internal/isa"
)

// Tests for object storage width and lifetime: an object stores n elements
// at its type's width, a freed object's storage is a spare that a later
// allocation of the same type and length reuses, and the device drops every
// spare when an allocation finds none of its type and length or when its
// last live object is freed.

// spareBytes returns the storage bytes the device holds as spares.
func spareBytes(d *Device) int64 {
	var n int64
	for _, s := range d.res.spares {
		n += s.Len() * int64(s.Type().Bytes())
	}
	return n
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

// TestObjectStorageReuseByTypeAndLength checks that a spare serves only an
// allocation of its own type and length: an equal-length allocation of
// another type of the same width allocates fresh storage and drops the
// spare, and one of the spare's type takes it.
func TestObjectStorageReuseByTypeAndLength(t *testing.T) {
	d := newDev(t, TargetFulcrum)
	alloc := func(dt isa.DataType) *Object {
		t.Helper()
		id, err := d.Alloc(300, dt)
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
	alloc(isa.Int64) // a keeper stays live, so each free leaves a spare
	free(alloc(isa.UInt8))
	b := alloc(isa.Int8)
	if b.data.Type() != isa.Int8 || len(d.res.spares) != 0 {
		t.Fatalf("int8 allocation over a uint8 spare got %v storage, %d spares left",
			b.data.Type(), len(d.res.spares))
	}
	stored := &b.data.(isa.Slice[int8])[0]
	free(b)
	c := alloc(isa.Int8)
	if &c.data.(isa.Slice[int8])[0] != stored || len(d.res.spares) != 0 {
		t.Fatal("int8 allocation did not take the int8 spare of its length")
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

// TestObjectStorageIdleDeviceHoldsNothing checks that freeing a device's
// last live object drops every spare.
func TestObjectStorageIdleDeviceHoldsNothing(t *testing.T) {
	d := newDev(t, TargetBitSerial)
	var ids []ObjID
	for _, n := range []int64{10, 10, 4096, 77} {
		id, err := d.Alloc(n, isa.Int16)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i, id := range ids {
		if err := d.Free(id); err != nil {
			t.Fatal(err)
		}
		if last := i == len(ids)-1; last != (len(d.res.spares) == 0) {
			t.Fatalf("after %d of %d frees: %d spares", i+1, len(ids), len(d.res.spares))
		}
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

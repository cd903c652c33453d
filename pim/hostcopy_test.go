package pim

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"pimeval/internal/cmdstream"
)

// celsius is a named host type over int32: the typed boundary takes any
// type defined over an integer type, not only the predeclared ones.
type celsius int32

// carrierCopyTo is the carrier reference of CopyToDevice: widen the host
// slice to int64 carriers, then hand them to the device.
func carrierCopyTo[T Integer](v *Device, id ObjID, data []T) error {
	if data == nil {
		return v.d.CopyHostToDevice(id, nil)
	}
	vals := make([]int64, len(data))
	for i, x := range data {
		vals[i] = int64(x)
	}
	return v.d.CopyHostToDevice(id, vals)
}

// carrierCopyFrom is the carrier reference of CopyFromDevice: read the
// object as int64 carriers, check the length, then narrow into dst.
func carrierCopyFrom[T Integer](v *Device, id ObjID, dst []T) error {
	vals, err := v.d.CopyDeviceToHost(id)
	if err != nil {
		return err
	}
	if vals == nil {
		return nil
	}
	if len(dst) != len(vals) {
		return fmt.Errorf("%w: destination slice length %d, object length %d",
			ErrTypeMismatch, len(dst), len(vals))
	}
	for i, x := range vals {
		dst[i] = T(x)
	}
	return nil
}

// hostCopier is one way of moving host slices across the boundary: the
// typed API or its carrier reference.
type hostCopier[T Integer] struct {
	to   func(*Device, ObjID, []T) error
	from func(*Device, ObjID, []T) error
}

// hostCopyRun is everything a boundary program observes: what it read
// back, the errors it got, and the device's statistics and recorded bytes.
type hostCopyRun[T Integer] struct {
	reads   [][]T
	errs    []string
	report  string
	metrics Metrics
	stream  []byte
}

// hostValues returns n values of T that cover T's whole range: lane
// extremes of every width first, then random 64-bit patterns, each
// truncated to T as a conversion from int64 does.
func hostValues[T Integer](n int) []T {
	edges := []int64{0, 1, -1, 127, 128, -128, -129, 255, 256, 32767, 32768, -32768, 65535,
		math.MaxInt32, math.MinInt32, math.MaxUint32, 1 << 32, math.MaxInt64, math.MinInt64}
	rng := rand.New(rand.NewSource(int64(n)))
	out := make([]T, n)
	for i := range out {
		x := int64(rng.Uint64())
		if i < len(edges) {
			x = edges[i]
		}
		out[i] = T(x)
	}
	return out
}

// runHostCopies drives one boundary program through c on a fresh device:
// a copy in and out, failed copies of the wrong length in both directions,
// then a read and a failed write of an object that took recycled storage.
func runHostCopies[T Integer](t *testing.T, c hostCopier[T], cfg Config, dt DataType, format string, host []T) hostCopyRun[T] {
	t.Helper()
	dev, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if format != "" {
		f, err := ParseStreamFormat(format)
		if err != nil {
			t.Fatal(err)
		}
		if err := dev.RecordStreamTo(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	var run hostCopyRun[T]
	note := func(err error) {
		if err != nil && !errors.Is(err, ErrTypeMismatch) {
			t.Fatalf("%v: %v", dt, err)
		}
		run.errs = append(run.errs, fmt.Sprint(err))
	}
	read := func(id ObjID, n int) {
		dst := make([]T, n)
		note(c.from(dev, id, dst))
		run.reads = append(run.reads, dst)
	}
	alloc := func() ObjID {
		id, err := dev.Alloc(int64(len(host)), dt)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	if _, err := dev.Alloc(1, Int64); err != nil { // a keeper, so frees leave spares
		t.Fatal(err)
	}
	n := len(host)
	x := alloc()
	note(c.to(dev, x, host))
	read(x, n)
	note(c.to(dev, x, host[:n-1]))
	read(x, n+1)
	note(c.from(dev, x, nil))
	read(x, n)
	if err := dev.Free(x); err != nil {
		t.Fatal(err)
	}
	y := alloc() // recycled storage, still holding x's bytes
	read(y, n)
	note(c.to(dev, y, slices.Concat(host, host)))
	read(y, n)
	if err := dev.FinishRecording(); err != nil {
		t.Fatal(err)
	}
	run.report, run.metrics, run.stream = dev.Report(), dev.Metrics(), buf.Bytes()
	return run
}

// checkHostCopies runs the boundary program for host type T over every
// object type, unrecorded and recorded in both formats, at 1 and 4
// workers, through the typed API and through the carrier reference, and
// requires every observable to agree; the reads must also equal the
// per-element definition T(Truncate(int64(x))) and, from recycled
// storage, zero.
func checkHostCopies[T Integer](t *testing.T) {
	typed := hostCopier[T]{CopyToDevice[T], CopyFromDevice[T]}
	carrier := hostCopier[T]{carrierCopyTo[T], carrierCopyFrom[T]}
	host := hostValues[T](3*4096 + 17) // spans several core regions and shards
	for dt := Int8; dt <= UInt64; dt++ {
		want := make([]T, len(host))
		for i, x := range host {
			want[i] = T(dt.Truncate(int64(x)))
		}
		for _, format := range []string{"", "bin", "json"} {
			for _, workers := range []int{1, 4} {
				cfg := Config{Target: Fulcrum, Ranks: 1, Functional: true, Workers: workers}
				got := runHostCopies(t, typed, cfg, dt, format, host)
				ref := runHostCopies(t, carrier, cfg, dt, format, host)
				name := fmt.Sprintf("%T into %v, format %q, %d workers", T(0), dt, format, workers)
				if !slices.Equal(got.reads[0], want) {
					t.Fatalf("%s: read back differs from T(Truncate(x))", name)
				}
				if zero := make([]T, len(host)); !slices.Equal(got.reads[3], zero) || !slices.Equal(got.reads[4], zero) {
					t.Fatalf("%s: recycled object read nonzero values", name)
				}
				for i := range ref.reads {
					if !slices.Equal(got.reads[i], ref.reads[i]) {
						t.Fatalf("%s: read %d differs from the carrier reference", name, i)
					}
				}
				if !slices.Equal(got.errs, ref.errs) {
					t.Fatalf("%s: errors %q, carrier reference %q", name, got.errs, ref.errs)
				}
				if got.report != ref.report || got.metrics != ref.metrics {
					t.Fatalf("%s: statistics differ from the carrier reference", name)
				}
				if !bytes.Equal(got.stream, ref.stream) {
					t.Fatalf("%s: recorded %d stream bytes differ from the carrier reference's %d",
						name, len(got.stream), len(ref.stream))
				}
				if format != "" {
					checkRecordedPayload(t, name, got.stream, host)
				}
			}
		}
	}
}

// checkRecordedPayload checks that a recorded boundary program holds one
// h2d payload, the host values widened to carriers before truncation.
func checkRecordedPayload[T Integer](t *testing.T, name string, stream []byte, host []T) {
	t.Helper()
	s, err := DecodeStream(bytes.NewReader(stream))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var payloads [][]int64
	for _, rec := range s.Records {
		if rec.Kind == cmdstream.KindCopyH2D {
			payloads = append(payloads, rec.Data)
		}
	}
	want := make([]int64, len(host))
	for i, x := range host {
		want[i] = int64(x)
	}
	if len(payloads) != 1 || !slices.Equal(payloads[0], want) {
		t.Fatalf("%s: recorded %d h2d payloads, want one of the widened host values", name, len(payloads))
	}
}

// checkModelOnlyCopies checks the typed API against the carrier reference
// on a model-only device: nil copies charge the transfer, a non-nil slice
// is ignored, and a read leaves dst untouched.
func checkModelOnlyCopies[T Integer](t *testing.T) {
	observe := func(c hostCopier[T]) (string, Metrics, []T) {
		dev, err := NewDevice(Config{Target: BankLevel, Ranks: 1})
		if err != nil {
			t.Fatal(err)
		}
		id, err := dev.Alloc(1000, Int16)
		if err != nil {
			t.Fatal(err)
		}
		dst := []T{7, 8, 9}
		for _, err := range []error{
			c.to(dev, id, nil), c.to(dev, id, []T{1, 2}),
			c.from(dev, id, nil), c.from(dev, id, dst),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
		return dev.Report(), dev.Metrics(), dst
	}
	gotReport, gotMetrics, gotDst := observe(hostCopier[T]{CopyToDevice[T], CopyFromDevice[T]})
	refReport, refMetrics, _ := observe(hostCopier[T]{carrierCopyTo[T], carrierCopyFrom[T]})
	if gotReport != refReport || gotMetrics != refMetrics {
		t.Fatalf("%T: model-only statistics differ from the carrier reference", T(0))
	}
	if !slices.Equal(gotDst, []T{7, 8, 9}) {
		t.Fatalf("%T: model-only CopyFromDevice wrote dst: %v", T(0), gotDst)
	}
}

// TestHostCopyConformance checks the typed host boundary, which converts
// between a host []T and object storage in one step, against the carrier
// reference that widens to []int64 and narrows back, for every host type
// and every object type.
func TestHostCopyConformance(t *testing.T) {
	for _, check := range []func(*testing.T){
		checkHostCopies[int8], checkHostCopies[int16], checkHostCopies[int32], checkHostCopies[int64],
		checkHostCopies[uint8], checkHostCopies[uint16], checkHostCopies[uint32], checkHostCopies[uint64],
		checkHostCopies[int], checkHostCopies[uint], checkHostCopies[celsius],
		checkModelOnlyCopies[int8], checkModelOnlyCopies[uint32], checkModelOnlyCopies[int64],
		checkModelOnlyCopies[celsius],
	} {
		check(t)
	}
}

// TestHostCopyAllocations guards the typed boundary's memory traffic: an
// unrecorded copy of 1 Mi int32 values into an Int32 object allocates no
// buffer of its length, and a copy back into the caller's slice allocates
// nothing.
func TestHostCopyAllocations(t *testing.T) {
	const n = 1 << 20
	dev, err := NewDevice(Config{Target: Fulcrum, Ranks: 1, Functional: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	id, err := dev.Alloc(n, Int32)
	if err != nil {
		t.Fatal(err)
	}
	host := hostValues[int32](n)
	if err := CopyToDevice(dev, id, host); err != nil { // warms the device's tables
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := CopyToDevice(dev, id, host); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<10 {
		t.Errorf("CopyToDevice of %d int32 values allocated %d bytes, want < 64 KiB", n, grew)
	}
	if allocs := testing.AllocsPerRun(3, func() {
		if err := CopyFromDevice(dev, id, host); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("CopyFromDevice into the caller's slice made %v allocations, want 0", allocs)
	}
}

// BenchmarkHostCopy times the typed boundary in both directions for the
// suite's common host/object type pairs, including a truncating one.
func BenchmarkHostCopy(b *testing.B) {
	const n = 1 << 20
	b.Run("int32-Int32", func(b *testing.B) { benchHostCopy[int32](b, n, Int32) })
	b.Run("uint8-UInt8", func(b *testing.B) { benchHostCopy[uint8](b, n, UInt8) })
	b.Run("int32-Int8", func(b *testing.B) { benchHostCopy[int32](b, n, Int8) })
}

func benchHostCopy[T Integer](b *testing.B, n int, dt DataType) {
	dev, err := NewDevice(Config{Target: Fulcrum, Ranks: 1, Functional: true, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	id, err := dev.Alloc(int64(n), dt)
	if err != nil {
		b.Fatal(err)
	}
	host := hostValues[T](n)
	b.Run("to", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(n) * int64(dt.Bytes()))
		for range b.N {
			if err := CopyToDevice(dev, id, host); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("from", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(n) * int64(dt.Bytes()))
		for range b.N {
			if err := CopyFromDevice(dev, id, host); err != nil {
				b.Fatal(err)
			}
		}
	})
}

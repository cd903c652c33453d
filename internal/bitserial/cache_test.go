package bitserial

import (
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"pimeval/internal/dram"
	"pimeval/internal/energy"
	"pimeval/internal/isa"
)

// TestBuildCachedMatchesBuild checks the memoized path returns programs
// equal to a fresh compilation for every (op, dt, imm) shape the device
// dispatches, and that repeated lookups share one program instance.
func TestBuildCachedMatchesBuild(t *testing.T) {
	ops := []isa.Op{
		isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpAnd, isa.OpOr,
		isa.OpXor, isa.OpXnor, isa.OpNot, isa.OpMin, isa.OpMax, isa.OpLt,
		isa.OpGt, isa.OpEq, isa.OpAbs, isa.OpPopCount, isa.OpSelect,
	}
	types := []isa.DataType{isa.Int8, isa.Int32, isa.UInt16, isa.UInt64}
	for _, op := range ops {
		for _, dt := range types {
			cached, err := BuildCached(op, dt, 0)
			if err != nil {
				t.Fatalf("BuildCached(%v, %v): %v", op, dt, err)
			}
			fresh, err := Build(op, dt, 0)
			if err != nil {
				t.Fatalf("Build(%v, %v): %v", op, dt, err)
			}
			if !reflect.DeepEqual(cached, fresh) {
				t.Errorf("BuildCached(%v, %v) differs from Build", op, dt)
			}
			again, err := BuildCached(op, dt, 0)
			if err != nil {
				t.Fatal(err)
			}
			if again != cached {
				t.Errorf("BuildCached(%v, %v) did not memoize (distinct pointers)", op, dt)
			}
		}
	}
}

// TestCompactPrograms pins the compact program representation: the live
// size of the program caches sets the interpreter workloads' peak heap.
func TestCompactPrograms(t *testing.T) {
	if size := unsafe.Sizeof(MicroOp{}); size != 12 {
		t.Errorf("MicroOp is %d bytes, want 12", size)
	}
	for op := isa.Op(0); op < isa.Op(isa.NumOps); op++ {
		for dt := isa.Int8; dt <= isa.UInt64; dt++ {
			p, err := BuildCached(op, dt, 3)
			if err != nil {
				continue // no microprogram
			}
			if cap(p.Ops) != len(p.Ops) {
				t.Errorf("%v.%v: %d ops stored at capacity %d", op, dt, len(p.Ops), cap(p.Ops))
			}
		}
	}
	for _, spec := range []FusedSpec{
		{Op1: isa.OpSub, Op2: isa.OpAbs, DT: isa.Int16},
		{Op1: isa.OpMul, Op2: isa.OpAdd, DT: isa.Int32, Scalar1: true, S1: 5, Binary2: true},
		{Op1: isa.OpAdd, Op2: isa.OpXor, DT: isa.UInt8, Scalar1: true, S1: -7, Scalar2: true, S2: 0x55},
	} {
		fp, err := BuildFusedCached(spec)
		if err != nil {
			t.Fatalf("BuildFusedCached(%+v): %v", spec, err)
		}
		if cap(fp.Ops) != len(fp.Ops) {
			t.Errorf("fused %s.%v: %d ops stored at capacity %d", fp.Name, spec.DT, len(fp.Ops), cap(fp.Ops))
		}
	}
}

// TestBuildCachedImmediates pins the keying rule: shift and broadcast
// programs depend on the immediate, every other op ignores it.
func TestBuildCachedImmediates(t *testing.T) {
	s1, _ := BuildCached(isa.OpShiftL, isa.Int32, 1)
	s2, _ := BuildCached(isa.OpShiftL, isa.Int32, 7)
	if s1 == s2 {
		t.Error("shift programs with different amounts shared one cache entry")
	}
	b1, _ := BuildCached(isa.OpBroadcast, isa.Int32, 5)
	b2, _ := BuildCached(isa.OpBroadcast, isa.Int32, 6)
	if b1 == b2 {
		t.Error("broadcast programs with different values shared one cache entry")
	}
	a1, _ := BuildCached(isa.OpAdd, isa.Int32, 5)
	a2, _ := BuildCached(isa.OpAdd, isa.Int32, 6)
	if a1 != a2 {
		t.Error("add programs with different (ignored) immediates did not share")
	}
}

// TestBuildCachedClampsShiftAmounts checks that every shift amount at or
// past the width resolves to one program, and that a stream of distinct
// out-of-range amounts, as a hostile client may send, adds no cache entries.
func TestBuildCachedClampsShiftAmounts(t *testing.T) {
	entries := func() (n int) {
		buildCache.Range(func(any, any) bool { n++; return true })
		return n
	}
	for _, dt := range []isa.DataType{isa.Int8, isa.UInt16, isa.Int32, isa.UInt64} {
		for _, op := range []isa.Op{isa.OpShiftL, isa.OpShiftR} {
			w := int64(dt.Bits())
			want, err := BuildCached(op, dt, w)
			if err != nil {
				t.Fatal(err)
			}
			for _, amount := range []int64{w + 1, 1 << 40} {
				if got, _ := BuildCached(op, dt, amount); got != want {
					t.Errorf("%v.%v: amount %d compiled apart from amount %d", op, dt, amount, w)
				}
			}
			before := entries()
			for amount := w + 2; amount < w+2000; amount++ {
				if _, err := BuildCached(op, dt, amount); err != nil {
					t.Fatal(err)
				}
			}
			if after := entries(); after != before {
				t.Errorf("%v.%v: %d out-of-range amounts grew the cache from %d to %d entries",
					op, dt, 1998, before, after)
			}
		}
	}
}

// TestBuildCachedBroadcastBounded checks that broadcast values cannot grow
// the process-wide cache: Counts() agree for every value of a type, values
// equal after truncation share one program, and N fresh cost models each
// broadcasting a distinct value add at most one entry per type.
func TestBuildCachedBroadcastBounded(t *testing.T) {
	entries := func() (n int) {
		buildCache.Range(func(any, any) bool { n++; return true })
		return n
	}
	mod := dram.DDR4(1)
	em := energy.NewModel(mod)
	values := []int64{0, 1, -1, 0x5a, 1 << 40, -(1 << 62)}
	for dt := isa.DataType(0); int(dt) < isa.NumTypes; dt++ {
		want, err := BuildCached(isa.OpBroadcast, dt, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range values {
			p, err := BuildCached(isa.OpBroadcast, dt, v)
			if err != nil {
				t.Fatal(err)
			}
			if p.Counts() != want.Counts() {
				t.Errorf("%v: broadcast %d counts %+v, want %+v", dt, v, p.Counts(), want.Counts())
			}
			if dt.Bits() < 64 {
				wide := v + 1<<uint(dt.Bits())
				if q, _ := BuildCached(isa.OpBroadcast, dt, wide); q != p {
					t.Errorf("%v: broadcast %d compiled apart from %d, equal after truncation", dt, wide, v)
				}
			}
		}
		before := entries()
		const n = 2000
		for i := int64(0); i < n; i++ {
			m := NewModel()
			cmd := isa.Command{Op: isa.OpBroadcast, Type: dt, Scalar: 1_000_003 * i, WritesResult: true}
			if c := m.CmdCost(cmd, 8192, 1, mod, em); c.TimeNS <= 0 {
				t.Fatalf("%v: broadcast costs %v", dt, c)
			}
		}
		if after := entries(); after > before+1 {
			t.Errorf("%v: %d models broadcasting distinct values grew the cache from %d to %d entries",
				dt, n, before, after)
		}
	}
}

// TestBuildCachedErrors checks unsupported ops memoize their error and keep
// returning it.
func TestBuildCachedErrors(t *testing.T) {
	for i := 0; i < 2; i++ {
		if _, err := BuildCached(isa.OpRedSum, isa.Int32, 0); err == nil {
			t.Fatal("BuildCached(redsum) succeeded; reductions have no microprogram")
		}
	}
}

// BenchmarkBuildCached contrasts a memoized lookup against a fresh
// compilation — the per-call cost BuildCached removes from EvalElements
// callers, the cost model, and the fuzz targets.
func BenchmarkBuildCached(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := BuildCached(isa.OpMul, isa.Int32, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Build(isa.OpMul, isa.Int32, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestBuildCachedConcurrent hammers the cache from many goroutines over a
// mixed key set — the -race CI job turns any unsynchronized access into a
// failure — and verifies every goroutine observes programs identical to the
// serial compilation.
func TestBuildCachedConcurrent(t *testing.T) {
	type shape struct {
		op  isa.Op
		dt  isa.DataType
		imm int64
	}
	shapes := []shape{
		{isa.OpAdd, isa.Int32, 0}, {isa.OpMul, isa.Int8, 0},
		{isa.OpDiv, isa.UInt16, 0}, {isa.OpShiftR, isa.Int64, 3},
		{isa.OpShiftR, isa.Int64, 9}, {isa.OpBroadcast, isa.UInt8, 0x5A},
		{isa.OpPopCount, isa.UInt32, 0}, {isa.OpRedSum, isa.Int32, 0}, // error entry
	}
	want := make([]*Program, len(shapes))
	for i, s := range shapes {
		want[i], _ = Build(s.op, s.dt, s.imm)
	}
	const goroutines = 16
	const iters = 200
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				s := shapes[(g+i)%len(shapes)]
				p, err := BuildCached(s.op, s.dt, s.imm)
				ref := want[(g+i)%len(shapes)]
				if ref == nil {
					if err == nil {
						errs <- "expected error for op without microprogram"
						return
					}
					continue
				}
				if err != nil {
					errs <- err.Error()
					return
				}
				if !reflect.DeepEqual(p, ref) {
					errs <- "cached program differs from serial compilation"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

package device

import (
	"fmt"
	"math/rand"
	"testing"

	"pimeval/internal/isa"
	"pimeval/internal/kernels"
)

// BenchmarkExecKernels quantifies what the specialized element kernels buy
// over a per-element loop: the resolved storage kernel (micro/*/kernel,
// kernels.On) against the same element loop over int64 carriers through
// the golden oracle, kernels.RefBinary (micro/*/reference), on
// representative (op, type) shapes at 64K elements. SetBytes counts the
// bytes each loop touches: element width for storage, 8 for carriers.
// The kernel-only rows time the word-at-a-time kernels at the widths the
// replay trace uses (scalar mul and xor, fill, sum) and the branch-free
// ones (scalar eq, min, select) on seeded random data, where a branch on
// element data would mispredict half the time. BENCH_kernels.json archives
// an earlier run, which also had whole-device rows for the since-removed
// per-element device path.
func BenchmarkExecKernels(b *testing.B) {
	const n = 1 << 16
	shapes := []struct {
		op isa.Op
		dt isa.DataType
	}{
		{isa.OpAdd, isa.Int32},
		{isa.OpMul, isa.Int32},
		{isa.OpDiv, isa.Int32},
		{isa.OpLt, isa.Int32},
		{isa.OpAdd, isa.Int8},
		{isa.OpAdd, isa.UInt8},
		{isa.OpAdd, isa.Int16},
		{isa.OpMul, isa.UInt64},
	}
	for _, sh := range shapes {
		op, dt := sh.op, sh.dt
		a, c := edgeVectors(dt, 31)
		for len(a) < n {
			a = append(a, a...)
			c = append(c, c...)
		}
		a, c = a[:n], c[:n]
		dst := make([]int64, n)
		name := fmt.Sprintf("micro/%v.%v", op, dt)
		b.Run(name+"/kernel", func(b *testing.B) {
			k := kernels.On(dt).Binary(op, dt)
			if k == nil {
				b.Fatalf("no kernel for %v.%v", op, dt)
			}
			ea, ec, out := stored(dt, a), stored(dt, c), dt.MakeElems(n)
			b.SetBytes(int64(3 * n * dt.Bytes()))
			for i := 0; i < b.N; i++ {
				k(out, ea, ec, 0, n)
			}
		})
		b.Run(name+"/reference", func(b *testing.B) {
			b.SetBytes(3 * n * 8)
			for i := 0; i < b.N; i++ {
				for j := int64(0); j < n; j++ {
					dst[j] = kernels.RefBinary(op, dt, a[j], c[j])
				}
			}
		})
	}

	rng := rand.New(rand.NewSource(1))
	seeded := func(dt isa.DataType) isa.Elems {
		v := make([]int64, n)
		for i := range v {
			v[i] = dt.Truncate(rng.Int63())
		}
		return stored(dt, v)
	}
	kernel := func(name string, bytes int, run func()) {
		b.Run("micro/"+name+"/kernel", func(b *testing.B) {
			b.SetBytes(int64(bytes))
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
	for _, dt := range []isa.DataType{isa.UInt8, isa.Int16, isa.Int32} {
		k, a, out, w := kernels.On(dt), seeded(dt), dt.MakeElems(n), n*dt.Bytes()
		s := dt.Truncate(0x5b)
		mul, xor := k.Scalar(isa.OpMul, dt), k.Scalar(isa.OpXor, dt)
		kernel(fmt.Sprintf("mul.scalar.%v", dt), 2*w, func() { mul(out, a, s, 0, n) })
		kernel(fmt.Sprintf("xor.scalar.%v", dt), 2*w, func() { xor(out, a, s, 0, n) })
		kernel(fmt.Sprintf("fill.%v", dt), w, func() { k.Fill(out, s, 0, n) })
		kernel(fmt.Sprintf("sum.%v", dt), w, func() { benchSum += k.Sum(a, 0, n) })
	}
	u8, i32 := kernels.On(isa.UInt8), kernels.On(isa.Int32)
	a8, out8 := seeded(isa.UInt8), isa.UInt8.MakeElems(n)
	eq := u8.Scalar(isa.OpEq, isa.UInt8)
	kernel("eq.scalar.uint8", 2*n, func() { eq(out8, a8, 0x5b, 0, n) })
	a, c, cond, out := seeded(isa.Int32), seeded(isa.Int32), isa.Int32.MakeElems(n), isa.Int32.MakeElems(n)
	for i := int64(0); i < n; i++ {
		cond.SetBits(i, uint64(rng.Intn(2))) // half the conditions false, at random
	}
	minK, sel := i32.Binary(isa.OpMin, isa.Int32), i32.Select(isa.Int32)
	kernel("min.int32", 3*4*n, func() { minK(out, a, c, 0, n) })
	kernel("select.int32", 4*4*n, func() { sel(out, cond, a, c, 0, n) })
}

// benchSum keeps the summing rows' results live.
var benchSum int64

package device

import (
	"fmt"
	"testing"

	"pimeval/internal/isa"
	"pimeval/internal/kernels"
)

// BenchmarkExecKernels quantifies what the specialized element kernels buy
// over a per-element loop: the resolved storage kernel (micro/*/kernel,
// kernels.On) against the same element loop over int64 carriers through
// the golden oracle, kernels.RefBinary (micro/*/reference), on
// representative (op, type) shapes at 64K elements. SetBytes counts the
// bytes each loop touches: element width for storage, 8 for carriers. BENCH_kernels.json archives an earlier run, which also had
// whole-device rows for the since-removed per-element device path.
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
}

package device

import (
	"fmt"
	"runtime"
	"testing"

	"pimeval/internal/dram"
	"pimeval/internal/isa"
	"pimeval/internal/kernels"
)

// BenchmarkExecKernels quantifies what the specialized element kernels buy
// over the golden per-element interpreter. Two tiers:
//
//   - micro/*: the raw element loop in isolation — the resolved kernel
//     against the equivalent evalBinary+Truncate loop the dispatcher ran
//     before this change — on representative (op, type) shapes at 64K
//     elements. This is the number the >=2x acceptance bar is read from.
//   - device/*: a full ExecBinary vecadd over 4M int32 through the device,
//     kernel path vs Config.ReferenceEval, serially and at the full worker
//     pool, so EXPERIMENTS.md can report end-to-end wall-clock including
//     dispatch, cost modeling, and span scheduling.
//
// Its archived output is BENCH_kernels.json.
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
			k := kernels.Binary(op, dt)
			if k == nil {
				b.Fatalf("no kernel for %v.%v", op, dt)
			}
			b.SetBytes(3 * n * 8)
			for i := 0; i < b.N; i++ {
				k(dst, a, c, 0, n)
			}
		})
		b.Run(name+"/reference", func(b *testing.B) {
			b.SetBytes(3 * n * 8)
			for i := 0; i < b.N; i++ {
				for j := int64(0); j < n; j++ {
					dst[j] = dt.Truncate(evalBinary(op, dt, a[j], c[j]))
				}
			}
		})
	}

	const devN = 1 << 22 // 4M int32, matches BenchmarkParallelScaling
	host := make([]int64, devN)
	for i := range host {
		host[i] = int64(int32(i*2654435761 + 12345))
	}
	workerCounts := []int{1}
	if ncpu := runtime.NumCPU(); ncpu > 1 {
		workerCounts = append(workerCounts, ncpu)
	}
	for _, w := range workerCounts {
		for _, ref := range []bool{false, true} {
			w, ref := w, ref
			path := "kernel"
			if ref {
				path = "reference"
			}
			b.Run(fmt.Sprintf("device/vecadd/workers=%d/%s", w, path), func(b *testing.B) {
				d, err := New(Config{
					Target: TargetFulcrum, Module: dram.DDR4(1),
					Functional: true, Workers: w, ReferenceEval: ref,
				})
				if err != nil {
					b.Fatal(err)
				}
				alloc := func() ObjID {
					id, err := d.Alloc(devN, isa.Int32)
					if err != nil {
						b.Fatal(err)
					}
					return id
				}
				ao, co, do := alloc(), alloc(), alloc()
				if err := d.CopyHostToDevice(ao, host); err != nil {
					b.Fatal(err)
				}
				if err := d.CopyHostToDevice(co, host); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(3 * devN * 4)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := d.ExecBinary(isa.OpAdd, ao, co, do); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

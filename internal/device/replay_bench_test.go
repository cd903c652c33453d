package device

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"pimeval/internal/cmdstream"
	"pimeval/internal/dram"
	"pimeval/internal/isa"
)

// BenchmarkReplayPhase times the device side of one trace phase of the
// pimperf replay workloads per element type, at their 256Ki-element
// scale: four allocations, two h2d copies landing 64Ki-element packed
// frames through CopyHostToDevicePacked (the path replay takes), a
// broadcast, an add, a scalar multiply, a scalar xor repeated four times,
// two reductions and four frees. The last free leaves the device idle; it
// keeps the freed arrays as spares, so after the first iteration each
// phase runs on recycled storage, as each phase of the trace after the
// first does.
func BenchmarkReplayPhase(b *testing.B) {
	const n, frame = 256 << 10, 64 << 10
	for _, dt := range []isa.DataType{isa.UInt8, isa.Int16, isa.Int32} {
		b.Run(dt.String(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(dt) + 1))
			packed := [2][]byte{}
			for k := range packed {
				vals := make([]int64, n)
				for i := range vals {
					vals[i] = dt.Truncate(rng.Int63())
				}
				packed[k] = make([]byte, n*dt.Bytes())
				dt.Pack(packed[k], vals)
			}
			d, err := New(Config{Target: TargetFulcrum, Module: dram.DDR4(1), Functional: true, Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			var r bytes.Reader
			h2d := func(id ObjID, src []byte) error {
				return d.CopyHostToDevicePacked(id, func(fn cmdstream.FrameFunc) error {
					if len(src) == 0 {
						return io.EOF
					}
					size := frame * dt.Bytes()
					r.Reset(src[:size])
					src = src[size:]
					return fn(dt, size, &r)
				})
			}
			must := func(err error) {
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var ids [4]ObjID
				for k := range ids {
					ids[k], err = d.Alloc(n, dt)
					must(err)
				}
				a, bb, c, x := ids[0], ids[1], ids[2], ids[3]
				must(h2d(a, packed[0]))
				must(h2d(bb, packed[1]))
				must(d.Broadcast(c, 3))
				must(d.ExecBinary(isa.OpAdd, a, bb, c))
				must(d.ExecScalar(isa.OpMul, c, 5, c))
				must(d.WithRepeat(4, func() error { return d.ExecScalar(isa.OpXor, a, 7, x) }))
				_, err = d.RedSum(c)
				must(err)
				_, err = d.RedSum(x)
				must(err)
				for _, id := range ids {
					must(d.Free(id))
				}
			}
		})
	}
}

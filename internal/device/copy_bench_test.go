package device

import (
	"bytes"
	"math/rand"
	"testing"

	"pimeval/internal/cmdstream"
	"pimeval/internal/dram"
	"pimeval/internal/isa"
)

// BenchmarkH2D times the out-of-core h2d path of stream replay for each
// element type and both payload faces: one 256Ki-element payload read frame
// by frame from a PIMB stream and written into a device object. "packed" is
// the path replay takes (cmdstream.PackedSource frames landing in storage
// through CopyHostToDevicePacked, one copy per frame); "chunks" is the
// []int64 face (the decoder's Unpack to int64 carriers, then
// CopyHostToDeviceFrom's narrowing Store), which a source wrapper without
// the packed face still takes. Each iteration opens the encoded stream
// afresh, so decoder setup is included.
func BenchmarkH2D(b *testing.B) {
	const n = 256 << 10
	for dt := isa.DataType(0); int(dt) < isa.NumTypes; dt++ {
		for _, face := range []string{"packed", "chunks"} {
			b.Run(dt.String()+"/"+face, func(b *testing.B) {
				enc := h2dStream(b, dt, n)
				d, err := New(Config{Target: TargetFulcrum, Module: dram.DDR4(1), Functional: true})
				if err != nil {
					b.Fatal(err)
				}
				id, err := d.Alloc(n, dt)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(n * int64(dt.Bytes()))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					src, err := cmdstream.OpenSource(bytes.NewReader(enc))
					if err != nil {
						b.Fatal(err)
					}
					for k := 0; k < 2; k++ { // the alloc, then the h2d record
						if _, err := src.Next(); err != nil {
							b.Fatal(err)
						}
					}
					ps := src.(cmdstream.PackedSource)
					if face == "packed" {
						err = d.CopyHostToDevicePacked(id, ps.NextPayloadFrame)
					} else {
						err = d.CopyHostToDeviceFrom(id, ps.NextPayloadChunk)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// h2dStream encodes a PIMB stream of one alloc of n elements of dt and one
// h2d of seeded values that fit dt, so the payload packs at dt's width.
func h2dStream(b *testing.B, dt isa.DataType, n int64) []byte {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(dt) + 1))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = dt.Truncate(rng.Int63() - rng.Int63())
	}
	var buf bytes.Buffer
	sink := cmdstream.NewWriter(&buf, cmdstream.FormatBinary)
	h := cmdstream.Header{Version: cmdstream.Version, Target: "fulcrum", TargetID: int(TargetFulcrum),
		Module: dram.DDR4(1), Functional: true}
	recs := []cmdstream.Record{
		{Seq: 1, Kind: cmdstream.KindAlloc, Obj: 1, Type: dt.String(), N: n},
		{Seq: 2, Kind: cmdstream.KindCopyH2D, Obj: 1, Data: vals},
	}
	if err := sink.Begin(h); err != nil {
		b.Fatal(err)
	}
	for i := range recs {
		if err := sink.Write(&recs[i]); err != nil {
			b.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

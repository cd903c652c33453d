package cmdstream_test

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"pimeval/internal/cmdstream"
	"pimeval/internal/device"
	"pimeval/internal/dram"
)

// countingWriter tallies bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// memSamplingSource wraps a ChunkedSource and samples heap usage on every
// record and payload chunk, tracking the peak.
type memSamplingSource struct {
	src interface {
		cmdstream.Source
		cmdstream.ChunkedSource
	}
	peak uint64
	recs int64
}

func (m *memSamplingSource) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > m.peak {
		m.peak = ms.HeapAlloc
	}
}

func (m *memSamplingSource) Header() cmdstream.Header { return m.src.Header() }
func (m *memSamplingSource) Close() error             { return m.src.Close() }
func (m *memSamplingSource) Next() (*cmdstream.Record, error) {
	rec, err := m.src.Next()
	if err == nil {
		m.recs++
		if m.recs%64 == 0 {
			m.sample()
		}
	}
	return rec, err
}
func (m *memSamplingSource) PendingPayload() bool { return m.src.PendingPayload() }
func (m *memSamplingSource) NextPayloadChunk() ([]int64, error) {
	chunk, err := m.src.NextPayloadChunk()
	if err == nil {
		m.sample()
	}
	return chunk, err
}

// TestOutOfCoreReplay streams a multi-hundred-MB binary command stream
// through an io.Pipe into the streaming replay path and proves two things:
//
//  1. Bounded memory: peak heap stays a small multiple of the device
//     footprint — far below the encoded stream size — because payloads
//     move in O(chunk) frames and records are never materialized.
//  2. Bit-identical replay: every iteration embeds the generator-computed
//     reduction result, which the replayer verifies against the
//     functionally replayed data; any divergence fails the replay.
//
// The full run pushes >512 MiB of encoded stream (the acceptance-scale
// number quoted in EXPERIMENTS.md); -short scales down to ~64 MiB.
func TestOutOfCoreReplay(t *testing.T) {
	iters := 256
	if testing.Short() {
		iters = 32
	}
	const n = 2 << 20 // elements per upload; ~2 MiB of encoded uint8 payload

	header := cmdstream.Header{
		Version:    cmdstream.Version,
		Target:     "fulcrum",
		TargetID:   1,
		Module:     dram.DDR4(1),
		Functional: true,
	}

	pr, pw := io.Pipe()
	cw := &countingWriter{w: pw}
	var wg sync.WaitGroup
	var genErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer pw.Close()
		sink := cmdstream.NewWriter(cw, cmdstream.FormatBinary)
		if genErr = sink.Begin(header); genErr != nil {
			return
		}
		seq := int64(0)
		emit := func(rec cmdstream.Record) bool {
			if genErr != nil {
				return false
			}
			seq++
			rec.Seq = seq
			genErr = sink.Write(&rec)
			return genErr == nil
		}
		emit(cmdstream.Record{Kind: cmdstream.KindAlloc, Obj: 1, Type: "uint8", N: n})
		rng := rand.New(rand.NewSource(42))
		data := make([]int64, n)
		for i := 0; i < iters; i++ {
			sum := int64(0)
			for j := range data {
				data[j] = rng.Int63() & 0xFF
				sum += data[j]
			}
			if !emit(cmdstream.Record{Kind: cmdstream.KindCopyH2D, Obj: 1, Data: data}) {
				return
			}
			// The generator-computed reduction: replay re-executes it on
			// the uploaded data and fails on any mismatch, so a clean
			// replay proves the payload arrived bit-identical.
			if !emit(cmdstream.Record{Kind: cmdstream.KindExec, Form: cmdstream.FormRedSum,
				Op: "redsum", Type: "uint8", N: n, A: 1, Result: sum}) {
				return
			}
		}
		emit(cmdstream.Record{Kind: cmdstream.KindFree, Obj: 1})
		if genErr == nil {
			genErr = sink.Close()
		}
	}()

	src, err := cmdstream.OpenSource(pr)
	if err != nil {
		t.Fatal(err)
	}
	cs, ok := src.(interface {
		cmdstream.Source
		cmdstream.ChunkedSource
	})
	if !ok {
		t.Fatal("binary source does not support chunked payloads")
	}
	dev, err := device.NewFromHeader(header, 1)
	if err != nil {
		t.Fatal(err)
	}
	ms := &memSamplingSource{src: cs}
	ms.sample()
	if err := cmdstream.ReplaySourceOpts(dev, ms, cmdstream.ReplayOptions{}); err != nil {
		t.Fatalf("streaming replay failed: %v", err)
	}
	wg.Wait()
	if genErr != nil {
		t.Fatalf("generator failed: %v", genErr)
	}

	streamMB := float64(cw.n) / (1 << 20)
	peakMB := float64(ms.peak) / (1 << 20)
	t.Logf("encoded stream %.0f MiB, %d records, peak heap %.0f MiB", streamMB, ms.recs, peakMB)
	if !testing.Short() && cw.n < 512<<20 {
		t.Errorf("encoded stream only %.0f MiB, want >= 512 MiB", streamMB)
	}
	// The device's functional backing for the 2 Mi-element object is
	// 16 MiB ([]int64); allow generous slack for the runtime, chunk
	// buffers, and GC lag — the stream itself is an order of magnitude
	// bigger than the bound.
	const peakLimit = 160 << 20
	if ms.peak > peakLimit {
		t.Errorf("peak heap %.0f MiB exceeds %d MiB bound (stream was %.0f MiB — not out-of-core)",
			peakMB, peakLimit>>20, streamMB)
	}
	if sum := fmt.Sprintf("%.0f", streamMB); sum == "0" {
		t.Error("no stream bytes generated")
	}
}

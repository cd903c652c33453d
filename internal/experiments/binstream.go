package experiments

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"pimeval/pim"
)

// BinStream measures the two command-stream encodings against each other:
// encoded size, bytes per record, and encode/decode throughput for JSON vs
// the bit-packed binary format, over recorded functional streams whose
// payload element width varies (the binary format packs payload elements at
// their true width, so narrow types compress hardest). The rendered table
// is the EXPERIMENTS.md "binary stream format" artifact; the
// BenchmarkBinaryStream/BenchmarkJSONStream benchmarks measure the same
// comparison.
func BinStream() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Binary vs JSON command-stream encoding (functional vecadd-style recording)\n\n")
	fmt.Fprintf(&b, "%-8s %8s %12s %12s %6s %10s %10s %10s %10s\n",
		"payload", "records", "JSON B", "binary B", "ratio",
		"enc MB/s", "enc MB/s", "dec MB/s", "dec MB/s")
	fmt.Fprintf(&b, "%-8s %8s %12s %12s %6s %10s %10s %10s %10s\n",
		"", "", "", "", "", "(json)", "(bin)", "(json)", "(bin)")
	for _, c := range []struct {
		dt pim.DataType
		n  int64
	}{
		{pim.UInt8, 1 << 20},
		{pim.Int32, 1 << 20},
		{pim.Int64, 1 << 20},
	} {
		s, err := recordBinStreamSample(c.dt, c.n)
		if err != nil {
			return "", err
		}
		var jsonBuf, binBuf bytes.Buffer
		jsonEnc, err := timeIt(func() error { return s.Encode(&jsonBuf) })
		if err != nil {
			return "", err
		}
		binEnc, err := timeIt(func() error { return s.EncodeBinary(&binBuf) })
		if err != nil {
			return "", err
		}
		jsonDec, err := timeIt(func() error {
			_, err := pim.DecodeStream(bytes.NewReader(jsonBuf.Bytes()))
			return err
		})
		if err != nil {
			return "", err
		}
		binDec, err := timeIt(func() error {
			_, err := pim.DecodeStream(bytes.NewReader(binBuf.Bytes()))
			return err
		})
		if err != nil {
			return "", err
		}
		mbps := func(n int, d time.Duration) float64 {
			return float64(n) / (1 << 20) / d.Seconds()
		}
		fmt.Fprintf(&b, "%-8v %8d %12d %12d %5.1fx %10.0f %10.0f %10.0f %10.0f\n",
			c.dt, len(s.Records), jsonBuf.Len(), binBuf.Len(),
			float64(jsonBuf.Len())/float64(binBuf.Len()),
			mbps(jsonBuf.Len(), jsonEnc), mbps(binBuf.Len(), binEnc),
			mbps(jsonBuf.Len(), jsonDec), mbps(binBuf.Len(), binDec))
	}
	fmt.Fprintf(&b, "\nThroughput is measured over each format's own encoded bytes.\n")
	return b.String(), nil
}

// recordBinStreamSample records a payload-bearing functional stream: two
// operand uploads, an add, a reduction, and a readback on a one-rank
// Fulcrum device.
func recordBinStreamSample(dt pim.DataType, n int64) (*pim.Stream, error) {
	dev, err := pim.NewDevice(pim.Config{
		Target: pim.Fulcrum, Ranks: 1, Functional: true, Workers: Workers,
	})
	if err != nil {
		return nil, err
	}
	dev.RecordStream()
	rng := rand.New(rand.NewSource(1))
	a, err := dev.Alloc(n, dt)
	if err != nil {
		return nil, err
	}
	bo, err := dev.AllocAssociated(a)
	if err != nil {
		return nil, err
	}
	dst, err := dev.AllocAssociated(a)
	if err != nil {
		return nil, err
	}
	vals := make([]int64, n)
	for _, id := range []pim.ObjID{a, bo} {
		for i := range vals {
			vals[i] = dt.Truncate(rng.Int63())
		}
		if err := pim.CopyToDevice(dev, id, vals); err != nil {
			return nil, err
		}
	}
	if err := dev.Add(a, bo, dst); err != nil {
		return nil, err
	}
	if _, err := dev.RedSum(dst); err != nil {
		return nil, err
	}
	if err := pim.CopyFromDevice(dev, dst, vals); err != nil {
		return nil, err
	}
	return dev.RecordedStream(), nil
}

// timeIt runs f once and returns its wall-clock duration.
func timeIt(f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return time.Since(start), err
}

package difftest

import (
	"testing"

	_ "pimeval/benchmarks/all"
	"pimeval/benchmarks/suite"
	"pimeval/pim"
)

// benchStreams are the benchmarks whose recorded streams the optimizer
// benchmark measures: the fusion showcase (axpy), a scalar-chain image
// kernel (brightness), a reduction-heavy loop nest (kmeans), and a
// broadcast-tiling matrix kernel (gemv).
var benchStreams = []string{"axpy", "brightness", "kmeans", "gemv"}

// recordModelOnly records one benchmark's command stream at the paper's
// Table I input scale in model-only mode (no data payloads, so the stream
// is the pure IR the optimizer sees in production sweeps).
func recordModelOnly(tb testing.TB, name string) *pim.Stream {
	tb.Helper()
	b, err := suite.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := b.Run(suite.Config{Target: pim.Fulcrum, Record: true})
	if err != nil {
		tb.Fatal(err)
	}
	if res.Stream == nil || len(res.Stream.Records) == 0 {
		tb.Fatalf("%s: no stream recorded", name)
	}
	return res.Stream
}

// BenchmarkStreamOptimize measures the optimizer's wall-clock cost per
// stream and reports the simulated latency/energy deltas of the optimized
// replay as custom metrics (sim-speedup, sim-ms-saved, sim-mj-saved, and
// records-removed), archived in BENCH_streamopt.json.
func BenchmarkStreamOptimize(b *testing.B) {
	for _, name := range benchStreams {
		b.Run(name, func(b *testing.B) {
			stream := recordModelOnly(b, name)
			base, err := pim.Replay(stream, pim.ReplayConfig{})
			if err != nil {
				b.Fatal(err)
			}
			baseM := base.Metrics()

			var opt *pim.Stream
			var res pim.OptimizeResult
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if opt, res, err = pim.Optimize(stream); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()

			odev, err := pim.Replay(opt, pim.ReplayConfig{})
			if err != nil {
				b.Fatal(err)
			}
			optM := odev.Metrics()
			if optM.TotalMS() > 0 {
				b.ReportMetric(baseM.TotalMS()/optM.TotalMS(), "sim-speedup")
			}
			b.ReportMetric(baseM.TotalMS()-optM.TotalMS(), "sim-ms-saved")
			b.ReportMetric(baseM.TotalMJ()-optM.TotalMJ(), "sim-mJ-saved")
			b.ReportMetric(float64(len(stream.Records)-len(opt.Records)), "records-removed")
			b.ReportMetric(float64(res.Fused), "fused")
			b.ReportMetric(float64(res.Hoisted), "hoisted")
		})
	}
}

// BenchmarkReplayOptimized measures the replay wall-clock of baseline vs
// optimized streams — the end-to-end effect of the smaller record count.
func BenchmarkReplayOptimized(b *testing.B) {
	stream := recordModelOnly(b, "axpy")
	opt, _, err := pim.Optimize(stream)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pim.Replay(stream, pim.ReplayConfig{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("optimized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pim.Replay(opt, pim.ReplayConfig{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

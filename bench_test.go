package pimeval

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (see DESIGN.md §6 for the experiment index). Each
// benchmark regenerates its artifact end-to-end — workload, parameter
// sweep, baselines — and reports the headline numbers as custom metrics so
// `go test -bench=. -benchmem` reproduces the evaluation in one command.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"pimeval/benchmarks/suite"
	"pimeval/internal/analog"
	"pimeval/internal/bitserial"
	"pimeval/internal/experiments"
	"pimeval/internal/isa"
	"pimeval/pim"
)

// suiteResults caches the main 32-rank suite run across benchmarks within
// one bench binary invocation.
var suiteResults map[pim.Target][]suite.Result

func mainSuite(b *testing.B) map[pim.Target][]suite.Result {
	b.Helper()
	if suiteResults == nil {
		rs, err := experiments.SuiteAllTargets(32)
		if err != nil {
			b.Fatal(err)
		}
		suiteResults = rs
	}
	return suiteResults
}

func gmeanOf(rs []suite.Result, f func(suite.Result) float64) float64 {
	var sum float64
	var n int
	for _, r := range rs {
		if v := f(r); v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

func BenchmarkTable1Suite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if !strings.Contains(experiments.Table1(), "vecadd") {
			b.Fatal("suite listing incomplete")
		}
	}
}

func BenchmarkTable2Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if !strings.Contains(experiments.Table2(), "Fulcrum") {
			b.Fatal("config listing incomplete")
		}
	}
}

func BenchmarkFig1Dendrogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.Fig1()
		if err != nil {
			b.Fatal(err)
		}
		if !strings.Contains(s, "vecadd") {
			b.Fatal("dendrogram missing leaves")
		}
	}
}

func BenchmarkFig6Cols(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig6Cols()
		if err != nil {
			b.Fatal(err)
		}
		// Headline: bit-serial add latency halves when columns double.
		var c1024, c8192 float64
		for _, p := range pts {
			if p.Target == pim.BitSerial && p.Op == "Add" {
				switch p.Param {
				case 1024:
					c1024 = p.LatencyMS
				case 8192:
					c8192 = p.LatencyMS
				}
			}
		}
		b.ReportMetric(c1024/c8192, "bitserial-add-colscaling")
	}
}

func BenchmarkFig6Banks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig6Banks()
		if err != nil {
			b.Fatal(err)
		}
		var b16, b128 float64
		for _, p := range pts {
			if p.Target == pim.Fulcrum && p.Op == "Add" {
				switch p.Param {
				case 16:
					b16 = p.LatencyMS
				case 128:
					b128 = p.LatencyMS
				}
			}
		}
		b.ReportMetric(b16/b128, "fulcrum-add-bankscaling")
	}
}

func BenchmarkFig7Breakdown(b *testing.B) {
	rs := mainSuite(b)
	for i := 0; i < b.N; i++ {
		if !strings.Contains(experiments.Fig7(rs), "radixsort") {
			b.Fatal("breakdown incomplete")
		}
	}
}

func BenchmarkFig8OpMix(b *testing.B) {
	rs := mainSuite(b)
	for i := 0; i < b.N; i++ {
		if !strings.Contains(experiments.Fig8(rs[pim.BitSerial]), "popcount") {
			b.Fatal("op mix incomplete")
		}
	}
}

func BenchmarkFig9SpeedupCPU(b *testing.B) {
	rs := mainSuite(b)
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig9(rs)
	}
	for _, tgt := range pim.AllTargets {
		g := gmeanOf(rs[tgt], func(r suite.Result) float64 { w, _ := r.SpeedupCPU(); return w })
		b.ReportMetric(g, tgt.String()+"-gmean-speedup-cpu")
	}
}

func BenchmarkFig10aSpeedupGPU(b *testing.B) {
	rs := mainSuite(b)
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig10a(rs)
	}
	for _, tgt := range pim.AllTargets {
		b.ReportMetric(gmeanOf(rs[tgt], suite.Result.SpeedupGPU), tgt.String()+"-gmean-speedup-gpu")
	}
}

func BenchmarkFig10bEnergyGPU(b *testing.B) {
	rs := mainSuite(b)
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig10b(rs)
	}
	for _, tgt := range pim.AllTargets {
		b.ReportMetric(gmeanOf(rs[tgt], suite.Result.EnergyReductionGPU), tgt.String()+"-gmean-energy-gpu")
	}
}

func BenchmarkFig11EnergyCPU(b *testing.B) {
	rs := mainSuite(b)
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig11(rs)
	}
	for _, tgt := range pim.AllTargets {
		b.ReportMetric(gmeanOf(rs[tgt], suite.Result.EnergyReductionCPU), tgt.String()+"-gmean-energy-cpu")
	}
}

func BenchmarkFig12RankScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.Fig12()
		if err != nil {
			b.Fatal(err)
		}
		if !strings.Contains(s, "Rank=32") {
			b.Fatal("rank scaling incomplete")
		}
	}
}

func BenchmarkFig13RankCapacity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.Fig13()
		if err != nil {
			b.Fatal(err)
		}
		if !strings.Contains(s, "vecadd") {
			b.Fatal("rank capacity comparison incomplete")
		}
	}
}

func BenchmarkValidationFulcrum(b *testing.B) {
	var rows []experiments.ValidationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.ValidateFulcrum()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Ratio(), "ratio-"+r.Kernel)
	}
}

// BenchmarkSuitePerApp times one model-scale run of every benchmark on
// every architecture — the per-cell cost behind Figures 7-11.
func BenchmarkSuitePerApp(b *testing.B) {
	for _, bench := range suite.All() {
		for _, tgt := range pim.AllTargets {
			bench, tgt := bench, tgt
			b.Run(bench.Info().Name+"/"+tgt.String(), func(b *testing.B) {
				var last suite.Result
				for i := 0; i < b.N; i++ {
					var err error
					last, err = bench.Run(suite.Config{Target: tgt, Ranks: 32})
					if err != nil {
						b.Fatal(err)
					}
				}
				w, _ := last.SpeedupCPU()
				b.ReportMetric(w, "speedup-cpu")
				b.ReportMetric(last.Metrics.KernelMS, "modeled-kernel-ms")
			})
		}
	}
}

// BenchmarkSuiteFunctional times one functional, golden-verified run of
// every app (Table I and the extensions) on every target at twice its
// default functional size with one worker — the suite path the pimperf
// suite-live workload measures — and reports its allocations.
func BenchmarkSuiteFunctional(b *testing.B) {
	for _, bench := range append(suite.All(), suite.Extensions()...) {
		for _, tgt := range pim.AllTargets {
			bench, tgt := bench, tgt
			b.Run(bench.Info().Name+"/"+tgt.String(), func(b *testing.B) {
				b.ReportAllocs()
				cfg := suite.Config{Target: tgt, Functional: true, Workers: 1,
					Size: 2 * bench.DefaultSize(true), EmitReport: true}
				for i := 0; i < b.N; i++ {
					r, err := bench.Run(cfg)
					if err != nil {
						b.Fatal(err)
					}
					if !r.Verified || r.Degraded {
						b.Fatalf("not verified against the golden reference: %v", r.Err)
					}
				}
			})
		}
	}
}

// BenchmarkMicroprogramCompile measures the two microprogram compilers —
// the library's own hot path when cost caches are cold.
func BenchmarkMicroprogramCompile(b *testing.B) {
	b.Run("digital-mul-int32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bitserial.Build(isa.OpMul, isa.Int32, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("digital-div-int32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bitserial.Build(isa.OpDiv, isa.Int32, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("analog-add-int32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := analog.Build(isa.OpAdd, isa.Int32, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMicroOpInterpreter measures the gate-level functional engine
// through EvalElements, layout transforms included, at the two call shapes
// the pimperf microprogram-eval workload runs: one 16 Ki-element call (two
// 8192-lane batches, the pimasm -run shape) and a one-element call (the
// fuzz-target shape).
func BenchmarkMicroOpInterpreter(b *testing.B) {
	for _, c := range []struct {
		op isa.Op
		dt isa.DataType
	}{{isa.OpAdd, isa.Int32}, {isa.OpDiv, isa.Int64}} {
		p, err := bitserial.BuildCached(c.op, c.dt, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, n := range []int{2 * bitserial.BatchWidth, 1} {
			rng := rand.New(rand.NewSource(1))
			operands := make([][]int64, 2)
			for k := range operands {
				operands[k] = make([]int64, n)
				for i := range operands[k] {
					operands[k][i] = c.dt.Truncate(rng.Int63())
				}
			}
			b.Run(fmt.Sprintf("%v.%v/n=%d", c.op, c.dt, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := bitserial.EvalElements(p, c.dt.Bits(), n, operands, 1); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkExtensionsKernels runs the paper's future-work kernels (prefix
// sum, string match, transitive closure, PCA) at full scale.
func BenchmarkExtensionsKernels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.ExtensionsTable()
		if err != nil {
			b.Fatal(err)
		}
		if !strings.Contains(s, "prefixsum") {
			b.Fatal("extensions table incomplete")
		}
	}
}

// BenchmarkFutureWorkHBM runs the DDR4-vs-HBM2 technology comparison
// (paper Section IX: conclusions "might change with HBM").
func BenchmarkFutureWorkHBM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.HBMTable()
		if err != nil {
			b.Fatal(err)
		}
		if !strings.Contains(s, "HBM2") {
			b.Fatal("HBM table incomplete")
		}
	}
}

// BenchmarkAblationAnalogBitSerial quantifies the digital-vs-analog
// bit-serial argument of Section IV.
func BenchmarkAblationAnalogBitSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.AnalogTable()
		if err != nil {
			b.Fatal(err)
		}
		if !strings.Contains(s, "Analog/Digital") {
			b.Fatal("analog table incomplete")
		}
	}
}

// BenchmarkParallelScaling measures the functional execution engine's
// worker-pool scaling on large data-carrying kernels: an element-wise
// vecadd and a gemv-style Mul+RedSumSeg, each over 4M int32 elements on
// Fulcrum. Results are bit-identical across worker counts (see
// internal/device/paralleltest); only wall-clock time changes. Speedup is
// bounded by runtime.NumCPU() on the host running the benchmark.
func BenchmarkParallelScaling(b *testing.B) {
	const n = 1 << 22 // 4M elements
	const segLen = 1 << 10
	counts := []int{1, 2, 4}
	if ncpu := runtime.NumCPU(); ncpu > counts[len(counts)-1] {
		counts = append(counts, ncpu)
	}
	host := make([]int32, n)
	for i := range host {
		host[i] = int32(i*2654435761 + 12345)
	}
	setup := func(b *testing.B, workers int) (*pim.Device, pim.ObjID, pim.ObjID, pim.ObjID) {
		b.Helper()
		v, err := pim.NewDevice(pim.Config{
			Target: pim.Fulcrum, Ranks: 32, Functional: true, Workers: workers,
		})
		if err != nil {
			b.Fatal(err)
		}
		alloc := func() pim.ObjID {
			id, err := v.Alloc(n, pim.Int32)
			if err != nil {
				b.Fatal(err)
			}
			return id
		}
		a, c, dst := alloc(), alloc(), alloc()
		if err := pim.CopyToDevice(v, a, host); err != nil {
			b.Fatal(err)
		}
		if err := pim.CopyToDevice(v, c, host); err != nil {
			b.Fatal(err)
		}
		return v, a, c, dst
	}
	for _, w := range counts {
		w := w
		b.Run(fmt.Sprintf("vecadd/workers=%d", w), func(b *testing.B) {
			v, a, c, dst := setup(b, w)
			b.SetBytes(3 * n * 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := v.Add(a, c, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("gemv/workers=%d", w), func(b *testing.B) {
			v, a, c, dst := setup(b, w)
			b.SetBytes(3 * n * 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := v.Mul(a, c, dst); err != nil {
					b.Fatal(err)
				}
				if _, err := v.RedSumSeg(dst, segLen); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDispatch measures the per-command front-end overhead of the
// dispatch path — validation, lowering, cost modeling, and sink fan-out —
// on commands whose element count is too small for the functional loop to
// matter. This is the regression guard for the staged pipeline: its numbers
// are compared against the seed (pre-pipeline) dispatch path in
// EXPERIMENTS.md and must stay within 5%.
func BenchmarkDispatch(b *testing.B) {
	for _, fn := range []bool{true, false} {
		fn := fn
		mode := "functional"
		if !fn {
			mode = "model-only"
		}
		b.Run(mode, func(b *testing.B) {
			v, err := pim.NewDevice(pim.Config{
				Target: pim.Fulcrum, Ranks: 1, Functional: fn, Workers: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			const n = 8 // small-N: dispatch overhead dominates the element loop
			alloc := func() pim.ObjID {
				id, err := v.Alloc(n, pim.Int32)
				if err != nil {
					b.Fatal(err)
				}
				return id
			}
			a, c, dst := alloc(), alloc(), alloc()
			if fn {
				host := make([]int32, n)
				if err := pim.CopyToDevice(v, a, host); err != nil {
					b.Fatal(err)
				}
				if err := pim.CopyToDevice(v, c, host); err != nil {
					b.Fatal(err)
				}
			}
			b.Run("binary", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := v.Add(a, c, dst); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("scalar", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := v.AddScalar(a, 3, dst); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("redsum", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := v.RedSum(a); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkAblationAESSbox compares the two AES S-box realizations: the
// bitsliced pimAesSbox command versus the explicit GF(2^8) inversion ladder
// built from generic PIM ops (the design choice DESIGN.md calls out).
func BenchmarkAblationAESSbox(b *testing.B) {
	bench, err := suite.ByName("aes-enc")
	if err != nil {
		b.Fatal(err)
	}
	var cmdMS float64
	for i := 0; i < b.N; i++ {
		res, err := bench.Run(suite.Config{Target: pim.BitSerial, Ranks: 32})
		if err != nil {
			b.Fatal(err)
		}
		cmdMS = res.Metrics.KernelMS
	}
	b.ReportMetric(cmdMS, "sbox-command-kernel-ms")
}

package bench

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestMedianQuartilesSpread(t *testing.T) {
	// Reference values from Python's statistics.median and
	// statistics.quantiles(xs, n=4).
	cases := []struct {
		xs          []float64
		med, q1, q3 float64
		spread      float64
	}{
		{[]float64{5, 1, 3}, 3, 1, 5, 4.0 / 3},
		{[]float64{1, 2, 3, 4}, 2.5, 1.25, 3.75, 1},
		{[]float64{10, 1, 7, 3, 9, 2, 8, 4, 6, 5}, 5.5, 2.75, 8.25, 1},
		{[]float64{2, 4}, 3, 1.5, 4.5, 1},
		{[]float64{7}, 7, 7, 7, 0},
	}
	for _, c := range cases {
		q1, q3 := Quartiles(c.xs)
		if got := Median(c.xs); got != c.med {
			t.Errorf("Median(%v) = %v, want %v", c.xs, got, c.med)
		}
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("Quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
		if got := Spread(c.xs); math.Abs(got-c.spread) > 1e-12 {
			t.Errorf("Spread(%v) = %v, want %v", c.xs, got, c.spread)
		}
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median(nil) is not NaN")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	// A failed operation enters as +Inf and lands in the tail.
	withFail := []float64{1, 2, 3, math.Inf(1)}
	if got := Percentile(withFail, 99); !math.IsInf(got, 1) {
		t.Errorf("p99 with a failure = %v, want +Inf", got)
	}
	if got := Percentile(withFail, 50); got != 2 {
		t.Errorf("p50 with a failure = %v, want 2", got)
	}
}

// fakeClock steps a tracer's clock by hand.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }

func TestSelfTimeSubtractsChildren(t *testing.T) {
	clock := &fakeClock{}
	tr := &Tracer{now: clock.now}
	l := tr.Lane(0)
	// op [0,100) holds decode [10,30) and exec [40,90), and exec holds a
	// nested decode [50,60).
	l.Begin("bench.op")
	clock.t = 10
	l.Begin("decode")
	clock.t = 30
	l.End()
	clock.t = 40
	l.Begin("exec")
	clock.t = 50
	l.Begin("decode")
	clock.t = 60
	l.End()
	clock.t = 90
	l.End()
	clock.t = 100
	l.End()
	// A second lane runs concurrently: its time never subtracts from the
	// first lane's spans.
	other := tr.Lane(1)
	clock.t = 20
	other.Begin("decode")
	clock.t = 80
	other.End()

	got := tr.Layers()
	want := map[string]LayerTime{
		"bench.op": {Calls: 1, Total: 100, Self: 30},
		"decode":   {Calls: 3, Total: 20 + 10 + 60, Self: 20 + 10 + 60},
		"exec":     {Calls: 1, Total: 50, Self: 40},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("layers = %+v, want %+v", got, want)
	}
	spans, dropped := tr.Spans()
	if len(spans) != 4+1 || dropped != 0 {
		t.Fatalf("%d spans, %d dropped; want 5, 0", len(spans), dropped)
	}
	if spans[0].Name != "bench.op" || spans[0].Parent != 0 || spans[3].Parent != spans[2].ID ||
		spans[4].Parent != 1 {
		t.Errorf("span parents wrong: %+v", spans)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		next   []float64
		better string
		want   string
	}{
		{[]float64{100, 100, 101, 99, 100}, "higher", "unchanged"},
		{[]float64{80, 81, 79, 80, 80}, "higher", "worse"},
		{[]float64{80, 81, 79, 80, 80}, "lower", "better"},
		// Spread above the bound: unresolved unless the runs separate.
		{[]float64{60, 140, 100, 70, 130}, "higher", "unresolved"},
		{[]float64{110, 200, 150, 120, 190}, "higher", "better"},
	}
	for _, c := range cases {
		if got := Verdict(base, c.next, c.better, 0.05); got != c.want {
			t.Errorf("Verdict(%v, %s) = %s, want %s", c.next, c.better, got, c.want)
		}
	}
}

// TestSpecMatchesHarness keeps BENCHMARK.json and the harness in step.
func TestSpecMatchesHarness(t *testing.T) {
	spec, err := ReadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, harness %d", len(spec.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, harness %s: %s", i, spec.Workloads[i], w.Name, w.Why)
		}
	}
	var e2e []Def
	for _, b := range spec.EndToEnd {
		e2e = append(e2e, Def{b.Name, b.Unit, b.Better})
	}
	if !reflect.DeepEqual(e2e, EndToEnd) {
		t.Errorf("end_to_end = %+v, harness %+v", e2e, EndToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, PerLayer) {
		t.Errorf("per_layer differs from the harness's PerLayer")
	}
}

// TestWorkloadsMiniature runs every workload untraced and traced at
// miniature scale: every gate must pass and every metric BENCHMARK.json
// names must come out with its unit.
func TestWorkloadsMiniature(t *testing.T) {
	spec, err := ReadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range Workloads {
		for _, traced := range []bool{false, true} {
			r, err := Run(w, Options{Seed: 1, Seconds: 0.05, Trace: traced, Small: true})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d errors=%v",
					w.Name, traced, r.Correct, r.Attempted, r.Failed, r.Errors)
			}
			want := spec.PerLayer
			if !traced {
				want = nil
				for _, b := range spec.EndToEnd {
					want = append(want, Def{b.Name, b.Unit, b.Better})
				}
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(r.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := r.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.Name, traced, d.Name, m, d.Unit)
				}
			}
		}
	}
}

package server

import (
	"math/rand"
	"testing"
)

// TestPercentileNearestRank pins Percentile to the nearest-rank
// definition: the ceil(p/100*n)-th smallest sample, over shuffled input.
func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		rand.New(rand.NewSource(int64(n))).Shuffle(n, func(i, j int) { s[i], s[j] = s[j], s[i] })
		return s
	}
	cases := []struct {
		name    string
		samples []float64
		p       float64
		want    float64
	}{
		{"empty", nil, 50, 0},
		{"one sample", []float64{4}, 99, 4},
		{"p40 of 3", seq(3), 40, 2},
		{"p50 of 3", seq(3), 50, 2},
		{"p50 of 4", seq(4), 50, 2},
		{"p99 of 256", seq(256), 99, 254},
		{"p99 of 100", seq(100), 99, 99},
		{"p7 of 100", seq(100), 7, 7},
		{"p90 of 10", seq(10), 90, 9},
		{"p100 is the max", seq(17), 100, 17},
		{"p0 is the min", seq(17), 0, 1},
	}
	for _, c := range cases {
		in := append([]float64(nil), c.samples...)
		if got := Percentile(c.samples, c.p); got != c.want {
			t.Errorf("%s: Percentile(p%v) = %v, want %v", c.name, c.p, got, c.want)
		}
		for i := range in {
			if in[i] != c.samples[i] {
				t.Fatalf("%s: Percentile reordered its input", c.name)
			}
		}
	}
}

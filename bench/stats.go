package bench

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN when xs is empty.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// Quartiles returns the first and third quartiles of xs with the same
// interpolation as Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so spreads computed here and by external tooling
// agree. A single value is its own quartiles; an empty input gives NaN.
func Quartiles(xs []float64) (q1, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0]
	}
	s := sorted(xs)
	n := len(s)
	q := func(i int) float64 {
		m := (n + 1) * i
		j := m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(m - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// Spread is the interquartile range of xs as a share of its median: the
// run-to-run noise measure BENCHMARK.json bounds are derived from.
func Spread(xs []float64) float64 {
	q1, q3 := Quartiles(xs)
	return (q3 - q1) / math.Abs(Median(xs))
}

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below it.
// Failed operations enter as +Inf, so they count as missing every latency
// limit. Empty input gives NaN.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// Bound is one end-to-end metric of BENCHMARK.json: the share of the base
// median by which it may worsen before a change counts as a regression.
type Bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Spec is the part of BENCHMARK.json the harness reads.
type Spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []Bound `json:"end_to_end"`
	PerLayer []Def   `json:"per_layer"`
}

// ReadSpec loads BENCHMARK.json.
func ReadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Verdict classifies one (metric, workload) pair of a comparison.
func Verdict(base, next []float64, better string, bound float64) string {
	// worse(a, b) is how much worse b is than a, as a share of a.
	worse := func(a, b float64) float64 {
		if better == "higher" {
			return (a - b) / a
		}
		return (b - a) / a
	}
	if max(Spread(base), Spread(next)) > bound {
		// Too noisy to read a median shift; only a clean separation counts.
		if separated(base, next, worse) {
			return "better"
		}
		if separated(next, base, worse) {
			return "worse"
		}
		return "unresolved"
	}
	switch d := worse(Median(base), Median(next)); {
	case d > bound:
		return "worse"
	case d < -bound:
		return "better"
	}
	return "unchanged"
}

// separated reports whether every run of b beats every run of a.
func separated(a, b []float64, worse func(a, b float64) float64) bool {
	for _, x := range a {
		for _, y := range b {
			if worse(x, y) >= 0 {
				return false
			}
		}
	}
	return true
}

// Compare prints one row per (metric, workload) pair with a bound: both
// sides' medians and quartiles and the verdict. It returns how many pairs
// came out worse.
func Compare(w io.Writer, base, next *File, spec *Spec) int {
	bounds := map[string]Bound{}
	for _, b := range spec.EndToEnd {
		bounds[b.Name] = b
	}
	nextSeries := map[[2]string]*series{}
	for _, s := range group(next.Runs) {
		nextSeries[[2]string{s.workload, s.metric}] = s
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median\tbase q1..q3\tnew median\tnew q1..q3\tchange\tbound\tverdict\t")
	worse := 0
	for _, b := range group(base.Runs) {
		bd, ok := bounds[b.metric]
		n := nextSeries[[2]string{b.workload, b.metric}]
		if !ok || n == nil {
			continue
		}
		v := Verdict(b.values, n.values, bd.Better, bd.Bound)
		if v == "worse" {
			worse++
		}
		bq1, bq3 := Quartiles(b.values)
		nq1, nq3 := Quartiles(n.values)
		bm, nm := Median(b.values), Median(n.values)
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.4g..%.4g\t%.6g\t%.4g..%.4g\t%+.1f%%\t%.0f%%\t%s\t\n",
			b.workload, b.metric, b.unit, bm, bq1, bq3, nm, nq1, nq3, 100*(nm-bm)/bm, 100*bd.Bound, v)
	}
	tw.Flush()
	return worse
}

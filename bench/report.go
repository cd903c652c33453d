package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"text/tabwriter"
)

// Host describes the machine a result file was measured on.
type Host struct {
	NumCPU    int    `json:"nproc"`
	CPU       string `json:"cpu"`
	GoVersion string `json:"go"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
}

// HostInfo describes this machine.
func HostInfo() Host {
	h := Host{NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// File is the document -json writes and -compare reads: every run made,
// with the machine and the run length.
type File struct {
	Host    Host         `json:"host"`
	Seconds float64      `json:"seconds"`
	Runs    []*RunResult `json:"runs"`
}

// ReadFile loads a result file.
func ReadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// finite maps values JSON cannot carry onto numbers: NaN (no samples) to
// 0, and an infinite latency (failed operations past the percentile) to
// the largest float.
func finite(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	}
	return v
}

// WriteResultLine writes the one-line result object of a single run:
// exactly correct, attempted, failed and metrics.
func WriteResultLine(w io.Writer, r *RunResult) error {
	ms := map[string]Metric{}
	for k, m := range r.Metrics {
		ms[k] = Metric{finite(m.Value), m.Unit}
	}
	return json.NewEncoder(w).Encode(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
}

// WriteFile writes f as indented JSON.
func WriteFile(path string, f *File) error {
	for _, r := range f.Runs {
		for k, m := range r.Metrics {
			r.Metrics[k] = Metric{finite(m.Value), m.Unit}
		}
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// series groups the runs' values by workload and metric, in first-seen
// order.
type series struct {
	workload, metric, unit string
	values                 []float64
}

func group(runs []*RunResult) []*series {
	var out []*series
	idx := map[[2]string]*series{}
	for _, r := range runs {
		for _, name := range sortedKeys(r.Metrics) {
			key := [2]string{r.Workload, name}
			s := idx[key]
			if s == nil {
				s = &series{workload: r.Workload, metric: name, unit: r.Metrics[name].Unit}
				idx[key] = s
				out = append(out, s)
			}
			s.values = append(s.values, r.Metrics[name].Value)
		}
	}
	return out
}

// PrintSummary prints every metric of every workload as median, Q1 and Q3
// over the runs, with the error rate per workload.
func PrintSummary(w io.Writer, runs []*RunResult) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian\tq1\tq3\truns\t")
	for _, s := range group(runs) {
		q1, q3 := Quartiles(s.values)
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.6g\t%d\t\n", s.workload, s.metric, s.unit,
			Median(s.values), q1, q3, len(s.values))
	}
	tw.Flush()
	attempted, failed := map[string]int64{}, map[string]int64{}
	var order []string
	for _, r := range runs {
		if _, ok := attempted[r.Workload]; !ok {
			order = append(order, r.Workload)
		}
		attempted[r.Workload] += r.Attempted
		failed[r.Workload] += r.Failed
		for _, e := range r.Errors {
			fmt.Fprintf(w, "%s: FAILED: %s\n", r.Workload, e)
		}
	}
	for _, wl := range order {
		fmt.Fprintf(w, "%s: error_rate %d/%d = %g\n", wl, failed[wl], attempted[wl],
			float64(failed[wl])/float64(attempted[wl]))
	}
}

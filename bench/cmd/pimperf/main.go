// Command pimperf runs the simulator's performance benchmark.
//
//	pimperf -workload suite-live -seed 1 -seconds 10 -trace 0
//	pimperf -seed 1 -runs 5 -json out.json -trace spans.json
//	pimperf -compare base.json new.json
//
// With -workload it runs that workload once per -runs and, for a single
// run, ends its output with one JSON line holding correct, attempted,
// failed and the metrics. Without -workload it runs every workload -runs
// times in this process. Every metric prints by name with its unit, as the
// median, Q1 and Q3 over the runs. -trace 1 (or -trace <file>, which also
// writes the spans there) reports the per-layer metrics of a traced run
// instead of the end-to-end ones. pimperf exits non-zero when any
// correctness gate fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"pimeval/bench"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pimperf:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("pimperf", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "run only this workload (default: all, in order)")
		seed     = fs.Int64("seed", 1, "seed for the generated inputs")
		seconds  = fs.Float64("seconds", 10, "measuring time per run")
		runs     = fs.Int("runs", 1, "runs per workload")
		trace    = fs.String("trace", "0", "1, or a file to write spans to, for a traced run")
		jsonOut  = fs.String("json", "", "write every run to this file")
		compare  = fs.Bool("compare", false, "compare two -json files: pimperf -compare base.json new.json")
		spec     = fs.String("spec", "BENCHMARK.json", "BENCHMARK.json, for -compare bounds")
	)
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	if *compare {
		return compareFiles(out, fs.Args(), *spec)
	}
	workloads := bench.Workloads
	if *workload != "" {
		w, err := bench.Lookup(*workload)
		if err != nil {
			return 0, err
		}
		workloads = []*bench.Workload{w}
	}
	traced := *trace != "0" && *trace != ""
	spansPath := ""
	if traced && *trace != "1" {
		spansPath = *trace
	}

	file := &bench.File{Host: bench.HostInfo(), Seconds: *seconds}
	var spans []any
	for _, w := range workloads {
		for i := 0; i < *runs; i++ {
			r, err := bench.Run(w, bench.Options{Seed: *seed, Seconds: *seconds, Trace: traced})
			if err != nil {
				return 0, err
			}
			fmt.Fprintf(out, "%s seed %d run %d: %d attempted, %d failed\n", w.Name, *seed, i+1, r.Attempted, r.Failed)
			file.Runs = append(file.Runs, r)
			if spansPath != "" {
				spans = append(spans, r.SpansDoc())
			}
		}
	}
	bench.PrintSummary(out, file.Runs)
	if *jsonOut != "" {
		if err := bench.WriteFile(*jsonOut, file); err != nil {
			return 0, err
		}
	}
	if spansPath != "" {
		if err := writeJSON(spansPath, spans); err != nil {
			return 0, err
		}
	}
	code := 0
	for _, r := range file.Runs {
		if !r.Correct {
			code = 1
		}
	}
	if len(file.Runs) == 1 {
		if err := bench.WriteResultLine(out, file.Runs[0]); err != nil {
			return 0, err
		}
	}
	return code, nil
}

func compareFiles(out io.Writer, paths []string, specPath string) (int, error) {
	if len(paths) != 2 {
		return 0, fmt.Errorf("-compare wants two result files, got %d", len(paths))
	}
	spec, err := bench.ReadSpec(specPath)
	if err != nil {
		return 0, err
	}
	base, err := bench.ReadFile(paths[0])
	if err != nil {
		return 0, err
	}
	next, err := bench.ReadFile(paths[1])
	if err != nil {
		return 0, err
	}
	if bench.Compare(out, base, next, spec) > 0 {
		return 1, nil
	}
	return 0, nil
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

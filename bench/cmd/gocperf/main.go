// Command gocperf is the repository's end-to-end benchmark of gocserve. One
// invocation runs one workload in a fresh process:
//
//	gocperf --workload eq-cold --seed 1 --seconds 15 --trace 0
//
// The process runs on one P (GOMAXPROCS=1). On a two-vCPU machine the Go
// scheduler switches between two throughput regimes mid-run when the
// clients, handlers and engine workers spread over two Ps (a cache-hit
// load moved by 30% between them), while on one P runs agree within a few
// percent. The engine still runs 2 workers and up to 2 clients drive it,
// so all the concurrency is there; only parallel speed-up is not measured.
//
// It prints every metric by name and unit, then as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"} holding the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1). It
// exits 1 if any output was wrong or any op failed.
//
// Other modes:
//
//	gocperf -list                          metric catalogue: units, layers, predictions
//	gocperf -summarize OUT REPORT...       median and quartiles over run reports
//	gocperf -compare BASE CHANGE           ./BENCHMARK.json bounds applied to two summaries
//
// bench/run.sh drives these; see bench/README.md.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"gameofcoins/bench"
)

func main() {
	workload := flag.String("workload", "", "workload to run: eq-cold or persist-stream")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 15, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 adds the traced phase and prints per-layer metrics on the last line")
	workdir := flag.String("workdir", ".bench_build/work", "scratch directory for store data; emptied after the run")
	spans := flag.String("spans", "", "write the traced phase's spans as JSON into this directory")
	report := flag.String("report", "", "write the full run report as JSON to this file")
	list := flag.Bool("list", false, "print the metric catalogue and exit")
	summarize := flag.String("summarize", "", "write a summary of the run reports named as arguments to this file")
	compare := flag.Bool("compare", false, "compare two summaries named as arguments against the bounds in ./BENCHMARK.json")
	flag.Parse()
	runtime.GOMAXPROCS(1)

	var err error
	code := 0
	switch {
	case *list:
		err = bench.WriteList(os.Stdout)
	case *summarize != "":
		err = summarizeReports(*summarize, flag.Args())
	case *compare:
		code, err = compareSummaries(flag.Args())
	default:
		if *trace != 0 && *trace != 1 {
			err = fmt.Errorf("--trace must be 0 or 1, not %d", *trace)
			break
		}
		code, err = run(bench.Config{
			Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
			WorkDir: *workdir, SpansDir: *spans,
		}, *report)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gocperf:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(cfg bench.Config, reportPath string) (int, error) {
	timeout := max(170*time.Second, time.Duration(4*cfg.Seconds*float64(time.Second))+60*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	rep, err := bench.Run(ctx, cfg)
	if err != nil {
		return 0, err
	}
	if reportPath != "" {
		if err := bench.WriteJSON(reportPath, rep); err != nil {
			return 0, err
		}
	}
	last := map[string]bench.Value{}
	w := bufio.NewWriter(os.Stdout)
	emit := func(ms []bench.Metric, onLastLine bool) {
		for _, m := range ms {
			v, ok := rep.Metrics[m.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "%-15s %-30s %16.6f %-8s n=%d\n", cfg.Workload, m.Name, v.Value, v.Unit, rep.Samples[m.Name])
			if onLastLine {
				last[m.Name] = v
			}
		}
	}
	emit(bench.EndToEndMetrics(), !cfg.Trace)
	emit(bench.PerLayerMetrics(), cfg.Trace)
	fmt.Fprintf(w, "%-15s attempted %d, failed %d\n", cfg.Workload, rep.Attempted, rep.Failed)
	for _, f := range rep.Failures {
		fmt.Fprintln(os.Stderr, "gocperf: FAIL:", f)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   rep.Failed == 0,
		"attempted": rep.Attempted,
		"failed":    rep.Failed,
		"metrics":   last,
	})
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "%s\n", line)
	if err := w.Flush(); err != nil {
		return 0, err
	}
	if rep.Failed > 0 {
		return 1, nil
	}
	return 0, nil
}

func summarizeReports(out string, paths []string) error {
	if len(paths) == 0 {
		return fmt.Errorf("-summarize needs run report files")
	}
	var reps []*bench.Report
	for _, p := range paths {
		var rep bench.Report
		if err := bench.ReadJSON(p, &rep); err != nil {
			return err
		}
		reps = append(reps, &rep)
	}
	s, err := bench.Summarize(reps, cpuModel())
	if err != nil {
		return err
	}
	return bench.WriteJSON(out, s)
}

func compareSummaries(paths []string) (int, error) {
	if len(paths) != 2 {
		return 0, fmt.Errorf("-compare needs two summary files, got %d", len(paths))
	}
	bf, err := bench.ReadBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return 0, err
	}
	var base, change bench.Summary
	if err := bench.ReadJSON(paths[0], &base); err != nil {
		return 0, err
	}
	if err := bench.ReadJSON(paths[1], &change); err != nil {
		return 0, err
	}
	failing, err := bench.WriteVerdicts(os.Stdout, bench.Compare(&base, &change, bf))
	if err != nil || !failing {
		return 0, err
	}
	return 1, nil
}

// cpuModel names the processor for summaries; empty where /proc/cpuinfo
// is unavailable.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// Command gocbench regenerates the paper-reproduction experiments (E1–E13,
// see DESIGN.md §6 and EXPERIMENTS.md) and prints their tables and ASCII
// figures.
//
// With -parallel N the suite is fanned across N workers through the
// concurrent experiment engine (internal/engine); the printed tables are
// byte-identical to a sequential run — every experiment derives its
// randomness from the seed alone — only wall-clock time changes.
//
// Serving performance is measured end to end by the separate bench module
// (bench/gocperf.sh), not here.
//
// Usage:
//
//	gocbench [-seed N] [-run E1,E4,...] [-parallel N]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"gameofcoins/internal/experiments"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gocbench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("gocbench", flag.ContinueOnError)
	seed := fs.Uint64("seed", 11, "experiment seed")
	only := fs.String("run", "", "comma-separated experiment IDs (default all)")
	parallel := fs.Int("parallel", 0,
		fmt.Sprintf("worker count for the experiment engine; 0 runs sequentially, -1 uses all %d cores", runtime.GOMAXPROCS(0)))
	if err := fs.Parse(args); err != nil {
		return err
	}
	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	// The filter is applied before execution: -run E3 runs one experiment,
	// not the whole suite.
	var reports []*experiments.Report
	if *parallel != 0 {
		var err error
		if reports, err = experiments.SelectedParallel(context.Background(), *seed, *parallel, want); err != nil {
			return err
		}
	} else {
		reports = experiments.Selected(*seed, want)
	}
	failures := 0
	for _, rep := range reports {
		fmt.Fprintln(w, rep.String())
		if !rep.Pass {
			failures++
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d experiment(s) did not reproduce the expected shape", failures)
	}
	return nil
}

package engine

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"gameofcoins/internal/core"
	"gameofcoins/internal/stats"
)

// BenchmarkLearnSweepWorkers measures the wall-clock scaling of a multi-run
// learning sweep across worker counts. On an N-core machine the workers=N
// variant should run close to N× faster than workers=1 (the per-task work is
// CPU-bound and embarrassingly parallel); the determinism tests guarantee
// the speedup changes nothing about the results.
//
//	go test -bench=LearnSweepWorkers -benchtime=3x ./internal/engine/
func BenchmarkLearnSweepWorkers(b *testing.B) {
	spec := LearnSweep{
		Gen:        core.GenSpec{Miners: 32, Coins: 4},
		Schedulers: []string{"random"},
		Runs:       64,
	}
	counts := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	seen := map[int]bool{}
	for _, workers := range counts {
		if seen[workers] {
			continue
		}
		seen[workers] = true
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng := New(workers)
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(context.Background(), spec, 11, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReplaySweepWorkers scales the heavier market-simulator workload,
// the job type gocserve is expected to spend most of its CPU on.
func BenchmarkReplaySweepWorkers(b *testing.B) {
	spec := ReplaySweep{Runs: runtime.GOMAXPROCS(0) * 2}
	spec.Params.Miners = 60
	spec.Params.Epochs = 24 * 20
	spec.Params.SpikeHour = 24 * 8
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng := New(workers)
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(context.Background(), spec, 7, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMixedLoad measures what fair share does for short jobs behind a
// long one. Each iteration submits, on a Manager over GOMAXPROCS workers,
// one equilibrium_sweep of 256 10×3 games (gocperf eq-cold's game shape)
// and then learn_sweep jobs of 8×2 games at 200 runs per scheduler, 1,200
// tasks (persist-stream's shape), one at a time until the long job
// finishes. It reports the short jobs' submit-to-done latency (short_p50_ms,
// short_p99_ms, over every short job of the run) and the long job's
// makespan (long_ms, the mean over iterations).
//
//	go test ./internal/engine -run '^$' -bench BenchmarkMixedLoad -cpu 1,2 -count 10
func BenchmarkMixedLoad(b *testing.B) {
	m := NewManager(New(0))
	defer m.Close()
	long := EquilibriumSweep{Gen: core.GenSpec{Miners: 10, Coins: 3}, Games: 256}
	short := LearnSweep{Gen: core.GenSpec{Miners: 8, Coins: 2}, Runs: 200}
	var seed uint64
	submit := func(spec Spec) *Job {
		seed++
		j, err := m.SubmitJobOpts("", spec, seed, SubmitOptions{})
		if err != nil {
			b.Fatal(err)
		}
		return j
	}
	since := func(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
	var shortMs []float64
	var longMs float64
	for i := 0; i < b.N; i++ {
		start := time.Now()
		lj := submit(long)
		for ldone := lj.Done(); ldone != nil; {
			t0 := time.Now()
			sj := submit(short)
			for sdone := sj.Done(); sdone != nil; {
				select {
				case <-sdone:
					shortMs = append(shortMs, since(t0))
					sdone = nil
				case <-ldone:
					longMs += since(start)
					ldone = nil
				}
			}
			if st := sj.Status(); st.State != StateDone {
				b.Fatalf("short job ended %s: %s", st.State, st.Error)
			}
		}
		if st := lj.Status(); st.State != StateDone {
			b.Fatalf("long job ended %s: %s", st.State, st.Error)
		}
	}
	sum := stats.Summarize(shortMs)
	b.ReportMetric(sum.Median, "short_p50_ms")
	b.ReportMetric(sum.P99, "short_p99_ms")
	b.ReportMetric(longMs/float64(b.N), "long_ms")
}

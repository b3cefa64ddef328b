package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gameofcoins/internal/core"
	"gameofcoins/internal/replay"
	"gameofcoins/internal/rng"
)

// waitJob blocks until j is terminal or ctx ends. It returns nil once j is
// done, and otherwise an error naming the job's state and message.
func waitJob(ctx context.Context, j *Job) error {
	select {
	case <-j.Done():
	case <-ctx.Done():
		return ctx.Err()
	}
	if st := j.Status(); st.State != StateDone {
		return fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	return nil
}

// TestWorkerCountIndependence is the engine's core guarantee: the same spec
// and seed produce identical aggregated results on 1, 2, and 8 workers.
func TestWorkerCountIndependence(t *testing.T) {
	specs := map[string]Spec{
		"learn_random_games": LearnSweep{
			Gen:        core.GenSpec{Miners: 6, Coins: 3},
			Schedulers: []string{"random", "max-gain"},
			Runs:       10,
		},
		"learn_fixed_game": LearnSweep{
			Game: core.MustNewGame(
				[]core.Miner{{Name: "p1", Power: 13}, {Name: "p2", Power: 7}, {Name: "p3", Power: 5}, {Name: "p4", Power: 2}},
				[]core.Coin{{Name: "a"}, {Name: "b"}},
				[]float64{17, 9},
			),
			Runs: 12,
		},
		"design": DesignSweep{Gen: core.GenSpec{Miners: 4, Coins: 2}, Pairs: 6},
		"eq":     EquilibriumSweep{Gen: core.GenSpec{Miners: 5, Coins: 2}, Games: 20},
		"replay": ReplaySweep{
			Runs:   2,
			Params: replay.ScenarioParams{Miners: 40, Epochs: 24 * 10, SpikeHour: 24 * 4},
		},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			var results []any
			for _, workers := range []int{1, 2, 8} {
				res, err := New(workers).Run(context.Background(), spec, 11, nil)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				results = append(results, res)
			}
			if !reflect.DeepEqual(results[0], results[1]) || !reflect.DeepEqual(results[0], results[2]) {
				t.Fatalf("results differ across worker counts:\n1: %+v\n2: %+v\n8: %+v",
					results[0], results[1], results[2])
			}
		})
	}
}

// TestLearnSweepConverges sanity-checks the aggregate shape: Theorem 1 says
// every run converges.
func TestLearnSweepConverges(t *testing.T) {
	res, err := New(4).Run(context.Background(), LearnSweep{
		Gen:  core.GenSpec{Miners: 8, Coins: 3},
		Runs: 8,
	}, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	sweep := res.(LearnSweepResult)
	if len(sweep.Schedulers) == 0 {
		t.Fatal("no scheduler summaries")
	}
	for _, s := range sweep.Schedulers {
		if s.Converged != s.Runs {
			t.Fatalf("scheduler %s: %d/%d converged", s.Scheduler, s.Converged, s.Runs)
		}
		if s.Steps.N != s.Runs {
			t.Fatalf("scheduler %s: steps summary over %d runs", s.Scheduler, s.Steps.N)
		}
	}
}

// TestDesignSweepReachesTargets mirrors Theorem 2: every non-skipped design
// run ends at the requested equilibrium.
func TestDesignSweepReachesTargets(t *testing.T) {
	res, err := New(4).Run(context.Background(), DesignSweep{
		Gen:   core.GenSpec{Miners: 4, Coins: 2},
		Pairs: 8,
	}, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	sweep := res.(DesignSweepResult)
	if sweep.Reached+sweep.Skipped != sweep.Pairs {
		t.Fatalf("reached %d + skipped %d != pairs %d", sweep.Reached, sweep.Skipped, sweep.Pairs)
	}
	if sweep.Reached == 0 {
		t.Fatal("no design run found a usable game")
	}
}

// TestProgressReachesTotal checks the streaming progress counter.
func TestProgressReachesTotal(t *testing.T) {
	var maxDone atomic.Int64
	var calls atomic.Int64
	spec := EquilibriumSweep{Gen: core.GenSpec{Miners: 4, Coins: 2}, Games: 15}
	_, err := New(4).Run(context.Background(), spec, 5, func(p Progress) {
		calls.Add(1)
		for {
			old := maxDone.Load()
			if int64(p.Done) <= old || maxDone.CompareAndSwap(old, int64(p.Done)) {
				break
			}
		}
		if p.Total != 15 {
			t.Errorf("total = %d", p.Total)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if maxDone.Load() != 15 || calls.Load() != 15 {
		t.Fatalf("progress done=%d calls=%d, want 15/15", maxDone.Load(), calls.Load())
	}
}

// TestTaskErrorCancelsRun checks that a failing task aborts the job and
// surfaces the task error.
func TestTaskErrorCancelsRun(t *testing.T) {
	boom := errors.New("boom")
	spec := Func{
		Name: "failing",
		N:    50,
		Task: func(ctx context.Context, i int, _ *rng.Rand) (any, error) {
			if i == 3 {
				return nil, boom
			}
			return i, nil
		},
	}
	_, err := New(4).Run(context.Background(), spec, 1, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

// TestRunHonorsContextCancellation checks mid-job cancellation.
func TestRunHonorsContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	spec := Func{
		Name: "slow",
		N:    1000,
		Task: func(ctx context.Context, i int, _ *rng.Rand) (any, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(5 * time.Millisecond):
				return i, nil
			}
		},
	}
	done := make(chan error, 1)
	go func() {
		_, err := New(2).Run(ctx, spec, 1, nil)
		done <- err
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not stop after cancellation")
	}
}

// TestFuncDefaultAggregate returns per-task results in task order.
func TestFuncDefaultAggregate(t *testing.T) {
	spec := Func{
		Name: "ident",
		N:    20,
		Task: func(_ context.Context, i int, _ *rng.Rand) (any, error) { return i * i, nil },
	}
	res, err := New(8).Run(context.Background(), spec, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := res.([]any)
	for i, v := range out {
		if v.(int) != i*i {
			t.Fatalf("out[%d] = %v", i, v)
		}
	}
}

// TestValidation rejects bad specs before running anything.
func TestValidation(t *testing.T) {
	bad := []Spec{
		LearnSweep{Runs: 0, Gen: core.GenSpec{Miners: 3, Coins: 2}},
		LearnSweep{Runs: 5},
		LearnSweep{Runs: 5, Gen: core.GenSpec{Miners: 3, Coins: 2}, Schedulers: []string{"nope"}},
		DesignSweep{Pairs: 0, Gen: core.GenSpec{Miners: 3, Coins: 2}},
		ReplaySweep{Runs: 0},
		EquilibriumSweep{Games: 5},
	}
	for i, spec := range bad {
		if _, err := New(1).Run(context.Background(), spec, 1, nil); err == nil {
			t.Fatalf("bad spec %d accepted", i)
		}
	}
}

// TestGenSizeBound: the three GenSpec sweeps share one bound on the games
// they draw, core.MaxGenCells miners × coins. A spec past it, or whose
// product overflows, fails Validate, so no task ever allocates the game;
// a spec at the bound passes.
func TestGenSizeBound(t *testing.T) {
	sweeps := func(gen core.GenSpec) []Validator {
		return []Validator{
			LearnSweep{Gen: gen, Runs: 1},
			DesignSweep{Gen: gen, Pairs: 1},
			EquilibriumSweep{Gen: gen, Games: 1},
		}
	}
	for _, gen := range []core.GenSpec{
		{Miners: 1_000_000_000, Coins: 2},
		{Miners: core.MaxGenCells/4 + 1, Coins: 4},
		{Miners: 1, Coins: core.MaxGenCells + 1},
		{Miners: 1 << 40, Coins: 1 << 40},
	} {
		for _, v := range sweeps(gen) {
			if err := v.Validate(); err == nil {
				t.Errorf("%T with %d × %d passed Validate", v, gen.Miners, gen.Coins)
			}
		}
	}
	for _, gen := range []core.GenSpec{{Miners: core.MaxGenCells / 4, Coins: 4}, {Miners: 1, Coins: core.MaxGenCells}} {
		for _, v := range sweeps(gen) {
			if err := v.Validate(); err != nil {
				t.Errorf("%T with %d × %d: %v", v, gen.Miners, gen.Coins, err)
			}
		}
	}
}

// TestManagerLifecycle submits, waits, and reads back a job.
func TestManagerLifecycle(t *testing.T) {
	m := NewManager(New(4))
	defer m.Close()
	job, err := m.SubmitJobOpts("", EquilibriumSweep{Gen: core.GenSpec{Miners: 4, Coins: 2}, Games: 10}, 9, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := waitJob(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	st := job.Status()
	if st.State != StateDone || st.Progress.Done != 10 {
		t.Fatalf("status = %+v", st)
	}
	res, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.(EquilibriumSweepResult).Games != 10 {
		t.Fatalf("result = %+v", res)
	}
	got, err := m.Get(job.ID())
	if err != nil || got != job {
		t.Fatalf("Get = %v, %v", got, err)
	}
	if _, err := m.Get("job-999"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown job err = %v", err)
	}
}

// TestManagerCancel cancels a long job mid-flight.
func TestManagerCancel(t *testing.T) {
	m := NewManager(New(2))
	defer m.Close()
	job, err := m.SubmitJobOpts("", LearnSweep{
		Gen:        core.GenSpec{Miners: 16, Coins: 4},
		Schedulers: []string{"random"},
		Runs:       100000,
	}, 1, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	job.Cancel()
	_ = waitJob(context.Background(), job)
	if st := job.Status(); st.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", st.State)
	}
	if _, err := job.Result(); err == nil {
		t.Fatal("canceled job has a result")
	}
}

// TestTaskPanicBecomesJobError: a panicking spec must fail its own job, not
// crash the process hosting the engine (gocserve runs arbitrary requests).
func TestTaskPanicBecomesJobError(t *testing.T) {
	spec := Func{
		Name: "panics",
		N:    8,
		Task: func(_ context.Context, i int, _ *rng.Rand) (any, error) {
			if i == 5 {
				panic("kaboom")
			}
			return i, nil
		},
	}
	_, err := New(4).Run(context.Background(), spec, 1, nil)
	if err == nil || !strings.Contains(err.Error(), "task panicked: kaboom") {
		t.Fatalf("err = %v, want task-panic error", err)
	}
}

// TestConcurrentRunsShareWorkerCap: two Runs on a 1-worker engine interleave
// on the shared dispatcher and both finish (no deadlock, no oversubscription
// beyond the worker cap).
func TestConcurrentRunsShareWorkerCap(t *testing.T) {
	eng := New(1)
	var inFlight, maxInFlight atomic.Int64
	spec := Func{
		Name: "counted",
		N:    10,
		Task: func(_ context.Context, i int, _ *rng.Rand) (any, error) {
			cur := inFlight.Add(1)
			defer inFlight.Add(-1)
			for {
				old := maxInFlight.Load()
				if cur <= old || maxInFlight.CompareAndSwap(old, cur) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			return i, nil
		},
	}
	errs := make(chan error, 2)
	for k := 0; k < 2; k++ {
		go func() {
			_, err := eng.Run(context.Background(), spec, 1, nil)
			errs <- err
		}()
	}
	for k := 0; k < 2; k++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if maxInFlight.Load() != 1 {
		t.Fatalf("max in-flight tasks = %d, want 1 (engine-wide cap)", maxInFlight.Load())
	}
}

// TestTaskCountCap: a spec fanning out beyond MaxTasksPerJob must fail
// before allocating per-task bookkeeping, not OOM the process.
func TestTaskCountCap(t *testing.T) {
	spec := Func{
		Name: "huge",
		N:    MaxTasksPerJob + 1,
		Task: func(_ context.Context, i int, _ *rng.Rand) (any, error) { return i, nil },
	}
	_, err := New(1).Run(context.Background(), spec, 1, nil)
	if err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("err = %v, want task-cap error", err)
	}
	// The same guard protects the async path gocserve uses — and rejects up
	// front, so an absurd task total is never published in job statuses.
	m := NewManager(New(1))
	defer m.Close()
	_, err = m.SubmitJobOpts("", EquilibriumSweep{Gen: core.GenSpec{Miners: 4, Coins: 2}, Games: 2000000000}, 1, SubmitOptions{})
	if err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("Submit err = %v, want synchronous task-cap error", err)
	}
	// A negative fan-out is rejected the same way.
	_, err = m.SubmitJobOpts("", Func{Name: "neg", N: -1,
		Task: func(_ context.Context, i int, _ *rng.Rand) (any, error) { return i, nil }}, 1, SubmitOptions{})
	if err == nil || !strings.Contains(err.Error(), "tasks") {
		t.Fatalf("Submit err = %v, want negative-task error", err)
	}
}

// TestLearnSweepTasksOverflowSaturates: a Runs value whose product with the
// scheduler count would overflow int must saturate past the cap (and be
// rejected), never wrap to a small or zero task count.
func TestLearnSweepTasksOverflowSaturates(t *testing.T) {
	spec := LearnSweep{
		Gen:        core.GenSpec{Miners: 4, Coins: 2},
		Schedulers: []string{"round-robin", "random", "max-gain", "min-gain"},
		Runs:       1 << 62,
	}
	if n := spec.Tasks(); n <= MaxTasksPerJob {
		t.Fatalf("Tasks() = %d, want > cap %d", n, MaxTasksPerJob)
	}
	if _, err := New(1).Run(context.Background(), spec, 1, nil); err == nil {
		t.Fatal("overflowing sweep accepted")
	}
}

// TestAggregatePanicBecomesJobError: the panic-to-error guarantee covers
// Aggregate as well as RunTask.
func TestAggregatePanicBecomesJobError(t *testing.T) {
	spec := Func{
		Name: "agg-panics",
		N:    2,
		Task: func(_ context.Context, i int, _ *rng.Rand) (any, error) { return i, nil },
		Agg:  func([]any) (any, error) { panic("agg kaboom") },
	}
	m := NewManager(New(2))
	defer m.Close()
	job, err := m.SubmitJobOpts("", spec, 1, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := waitJob(context.Background(), job); err == nil || !strings.Contains(err.Error(), "aggregate panicked") {
		t.Fatalf("err = %v, want aggregate-panic error", err)
	}
	if st := job.Status(); st.State != StateFailed {
		t.Fatalf("state = %s, want failed", st.State)
	}
}

// TestManagerRetention: past DefaultRetention jobs, terminal jobs are
// evicted oldest first, and a running job survives however old it is.
func TestManagerRetention(t *testing.T) {
	m := NewManager(New(1))
	defer m.Close()
	release := make(chan struct{})
	defer close(release)
	running, err := m.SubmitJobOpts("", Func{Name: "block", N: 1, Task: func(ctx context.Context, _ int, _ *rng.Rand) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	}}, 1, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var restored []*Job
	for k := 0; k < DefaultRetention+4; k++ {
		j, err := m.Restore(fmt.Sprintf("done-%d", k), "func", 1, 0, StateDone, "")
		if err != nil {
			t.Fatal(err)
		}
		restored = append(restored, j)
	}
	m.mu.Lock()
	n := len(m.jobs)
	m.mu.Unlock()
	if n != DefaultRetention {
		t.Fatalf("retained %d jobs, cap %d", n, DefaultRetention)
	}
	if _, err := m.Get(running.ID()); err != nil {
		t.Fatalf("running job evicted: %v", err)
	}
	for _, j := range restored[:5] {
		if _, err := m.Get(j.ID()); !errors.Is(err, ErrUnknownJob) {
			t.Fatalf("old terminal job %s not evicted: %v", j.ID(), err)
		}
	}
	if _, err := m.Get(restored[5].ID()); err != nil {
		t.Fatalf("terminal job within the cap evicted: %v", err)
	}
}

// TestReplaySweepRejectsNegativeParams: negative scenario params would panic
// deep in replay.New; Validate must stop them at the boundary.
func TestReplaySweepRejectsNegativeParams(t *testing.T) {
	spec := ReplaySweep{Runs: 1}
	spec.Params.Miners = -1
	if _, err := New(1).Run(context.Background(), spec, 1, nil); err == nil {
		t.Fatal("negative Miners accepted")
	}
}

// TestManagerDeterminismAcrossWorkerCounts reruns the 1-vs-8 check through
// the async path, exactly as gocserve would.
func TestManagerDeterminismAcrossWorkerCounts(t *testing.T) {
	spec := LearnSweep{Gen: core.GenSpec{Miners: 6, Coins: 2}, Schedulers: []string{"round-robin", "random"}, Runs: 10}
	var results []any
	for _, workers := range []int{1, 8} {
		m := NewManager(New(workers))
		job, err := m.SubmitJobOpts("", spec, 21, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := waitJob(context.Background(), job); err != nil {
			t.Fatal(err)
		}
		res, _ := job.Result()
		results = append(results, res)
		m.Close()
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatalf("async results differ:\n1: %+v\n8: %+v", results[0], results[1])
	}
}

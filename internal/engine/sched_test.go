package engine

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gameofcoins/internal/core"
	"gameofcoins/internal/rng"
)

// costWrap overlays arbitrary per-task costs onto any Spec, so property
// tests can skew the scheduling order of real sweeps without touching what
// their tasks compute.
type costWrap struct {
	Spec
	costs []float64
}

func (c costWrap) TaskCost(i int) float64 { return c.costs[i] }

// TestOrderTasksLPT pins the deque-building contract: Sizer costs sort the
// indices longest-first, ties (and the no-Sizer case) keep index order.
func TestOrderTasksLPT(t *testing.T) {
	spec := Func{
		Name: "sized",
		N:    5,
		Task: func(_ context.Context, i int, _ *rng.Rand) (any, error) { return i, nil },
		Cost: func(i int) float64 { return []float64{1, 9, 3, 9, 2}[i] },
	}
	if got, want := orderTasks(spec, 5), []int{1, 3, 2, 4, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("LPT order = %v, want %v", got, want)
	}
	uniform := Func{Name: "uniform", N: 4, Task: spec.Task}
	if got, want := orderTasks(uniform, 4), []int{0, 1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("uniform order = %v, want %v (FIFO)", got, want)
	}
	type bare struct{ Spec } // hides Func's TaskCost: no Sizer at all
	if got, want := orderTasks(bare{uniform}, 4), []int{0, 1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("unsized order = %v, want %v (FIFO)", got, want)
	}
}

// TestSchedulerDeterminismProperty is the tentpole's proof obligation: the
// same specs produce bit-identical results under randomized worker counts,
// randomized cost skews (which randomize the LPT dispatch order), and
// concurrent-job mixes sharing one engine. Determinism holds by
// construction — results land by task index and rng streams fork per index —
// and this test pins that no scheduler change can silently break it.
func TestSchedulerDeterminismProperty(t *testing.T) {
	specs := []Spec{
		LearnSweep{Gen: core.GenSpec{Miners: 5, Coins: 2}, Schedulers: []string{"random", "max-gain"}, Runs: 6},
		DesignSweep{Gen: core.GenSpec{Miners: 4, Coins: 2}, Pairs: 5},
		EquilibriumSweep{Gen: core.GenSpec{Miners: 5, Coins: 2}, Games: 12},
		Func{
			Name: "mix",
			N:    20,
			Task: func(_ context.Context, i int, r *rng.Rand) (any, error) { return r.Uint64() ^ uint64(i), nil },
		},
	}
	// Reference: every spec alone on a single worker, FIFO order.
	refs := make([]any, len(specs))
	for i, spec := range specs {
		res, err := New(1).Run(context.Background(), spec, 23, nil)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = res
	}
	r := rng.New(99)
	for trial := 0; trial < 4; trial++ {
		workers := 1 + r.Intn(8)
		eng := New(workers)
		// Randomize each spec's dispatch order with random task costs, and
		// run all specs concurrently so takes interleave across jobs.
		var wg sync.WaitGroup
		got := make([]any, len(specs))
		errs := make([]error, len(specs))
		for i, spec := range specs {
			costs := make([]float64, spec.Tasks())
			for c := range costs {
				costs[c] = r.Float64()
			}
			wg.Add(1)
			go func(i int, spec Spec) {
				defer wg.Done()
				got[i], errs[i] = eng.Run(context.Background(), costWrap{spec, costs}, 23, nil)
			}(i, spec)
		}
		wg.Wait()
		for i := range specs {
			if errs[i] != nil {
				t.Fatalf("trial %d (workers=%d) spec %d: %v", trial, workers, i, errs[i])
			}
			if !reflect.DeepEqual(got[i], refs[i]) {
				t.Fatalf("trial %d (workers=%d) spec %d: results differ from sequential reference\nref: %+v\ngot: %+v",
					trial, workers, i, refs[i], got[i])
			}
		}
	}
}

// TestFairShareNoStarvation: a long job submitted first must not block a
// short job submitted later — the dispatcher splits the worker pool, so the
// short job finishes while the long one is still mostly pending.
func TestFairShareNoStarvation(t *testing.T) {
	eng := New(2)
	const longN = 40
	var longDone atomic.Int64
	longStarted := make(chan struct{}, 1)
	long := Func{
		Name: "long",
		N:    longN,
		Task: func(ctx context.Context, i int, _ *rng.Rand) (any, error) {
			select {
			case longStarted <- struct{}{}:
			default:
			}
			time.Sleep(10 * time.Millisecond)
			return i, nil
		},
	}
	short := Func{
		Name: "short",
		N:    4,
		Task: func(_ context.Context, i int, _ *rng.Rand) (any, error) {
			time.Sleep(time.Millisecond)
			return i, nil
		},
	}
	longErr := make(chan error, 1)
	go func() {
		_, err := eng.Run(context.Background(), long, 1, func(p Progress) { longDone.Store(int64(p.Done)) })
		longErr <- err
	}()
	<-longStarted
	if _, err := eng.Run(context.Background(), short, 1, nil); err != nil {
		t.Fatal(err)
	}
	// The short job is done; the long one must still be far from it. The
	// bound is deliberately loose (short needs ~2 slots of the pool, so well
	// under half the long job can have completed) — the failure mode it
	// guards against is FIFO feeding, where the short job would have waited
	// for all 40 long tasks and this reads longN.
	if got := longDone.Load(); got > longN/2 {
		t.Fatalf("long job completed %d/%d tasks before the short job finished — short job starved", got, longN)
	}
	if err := <-longErr; err != nil {
		t.Fatal(err)
	}
}

// TestStealAccounting: workers migrating to a second job while their first
// is still live are counted as steals, and completed-task accounting covers
// both jobs.
func TestStealAccounting(t *testing.T) {
	eng := New(2)
	a := Func{
		Name: "a",
		N:    4,
		Task: func(_ context.Context, i int, _ *rng.Rand) (any, error) {
			time.Sleep(20 * time.Millisecond)
			return i, nil
		},
	}
	b := Func{
		Name: "b",
		N:    2,
		Task: func(_ context.Context, i int, _ *rng.Rand) (any, error) { return i, nil },
	}
	done := make(chan error, 2)
	go func() { _, err := eng.Run(context.Background(), a, 1, nil); done <- err }()
	// Give both workers time to sink into job a's first tasks, then submit
	// b: finishing workers must steal over to it while a is still live.
	time.Sleep(5 * time.Millisecond)
	go func() { _, err := eng.Run(context.Background(), b, 1, nil); done <- err }()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	if st.Steals == 0 {
		t.Fatal("no steals counted across two interleaved jobs")
	}
	if st.CompletedTasks != 6 {
		t.Fatalf("completed tasks = %d, want 6", st.CompletedTasks)
	}
	if st.ActiveJobs != 0 || st.QueuedTasks != 0 || st.RunningTasks != 0 {
		t.Fatalf("idle engine reports live state: %+v", st)
	}
}

// TestProgressCounts: on one worker the scheduler snapshot is exact — every
// callback reports queued == total-done and running == 0, and the counters
// land at (done=n, queued=0, running=0).
func TestProgressCounts(t *testing.T) {
	const n = 9
	var calls int
	spec := Func{
		Name: "counted",
		N:    n,
		Task: func(_ context.Context, i int, _ *rng.Rand) (any, error) { return i, nil },
	}
	_, err := New(1).Run(context.Background(), spec, 1, func(p Progress) {
		calls++
		if p.Done != calls || p.Total != n || p.Running != 0 || p.Queued != n-p.Done {
			t.Errorf("callback %d: %+v", calls, p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != n {
		t.Fatalf("progress callbacks = %d, want %d", calls, n)
	}
}

// TestRunZeroTasksPreCanceledContext is the regression test for the n==0
// early return preceding any ctx check: a zero-task spec under an
// already-canceled context must report the cancellation, not aggregate an
// empty result.
func TestRunZeroTasksPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := Func{
		Name: "empty",
		N:    0,
		Task: func(_ context.Context, i int, _ *rng.Rand) (any, error) { return i, nil },
	}
	res, err := New(2).Run(ctx, spec, 1, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("canceled zero-task run produced a result: %v", res)
	}
	if !strings.Contains(err.Error(), "engine: empty:") {
		t.Fatalf("err = %q, want the engine: <kind>: wrapping", err)
	}
}

// TestTaskErrorPreferredOverConcurrentCancel is the regression test for the
// dropped-firstErr bug: when a task fails and the parent ctx is canceled
// concurrently, Run must surface the task error — the cause — not the bare
// ctx.Err() racing in behind it.
func TestTaskErrorPreferredOverConcurrentCancel(t *testing.T) {
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec := Func{
		Name: "failing",
		N:    8,
		Task: func(_ context.Context, i int, _ *rng.Rand) (any, error) {
			if i == 0 {
				cancel() // parent cancellation lands while the failure is in flight
				return nil, boom
			}
			return i, nil
		},
	}
	_, err := New(2).Run(ctx, spec, 1, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the task error, not the concurrent cancellation", err)
	}
	if !strings.Contains(err.Error(), "engine: failing task 0:") {
		t.Fatalf("err = %q, want task wrapping", err)
	}
}

// TestCancellationErrorWrapping: a cancellation with no real task error is
// reported with the same "engine: <kind>:" prefix task errors get, and a
// task surfacing the cancellation as its error does not masquerade as a
// task failure.
func TestCancellationErrorWrapping(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec := Func{
		Name: "polite",
		N:    8,
		Task: func(ctx context.Context, i int, _ *rng.Rand) (any, error) {
			if i == 0 {
				cancel()
			}
			<-ctx.Done()
			return nil, ctx.Err() // the conventional polling-task exit
		},
	}
	_, err := New(2).Run(ctx, spec, 1, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "engine: polite:") {
		t.Fatalf("err = %q, want engine: <kind>: wrapping on the cancellation path", err)
	}
}

// TestProgressSuppressedAfterFailure is the regression test for SSE watchers
// observing a doomed job advance: once a task has failed, still-in-flight
// tasks completing must not publish progress. Tasks 1..3 deliberately return
// success after the cancellation hits them; under the old engine each such
// completion advanced the published counter.
func TestProgressSuppressedAfterFailure(t *testing.T) {
	m := NewManager(New(2))
	defer m.Close()
	boom := errors.New("boom")
	spec := Func{
		Name: "doomed",
		N:    4,
		Task: func(ctx context.Context, i int, _ *rng.Rand) (any, error) {
			if i == 0 {
				return nil, boom
			}
			<-ctx.Done()  // wait for the failure's cancellation…
			return i, nil // …then "complete" anyway
		},
	}
	job, err := m.Submit(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	ch := job.Watch(context.Background())
	var last Status
	for st := range ch {
		last = st
		if st.Progress.Done != 0 {
			t.Fatalf("watcher observed progress %d on a failing job", st.Progress.Done)
		}
	}
	if last.State != StateFailed || !strings.Contains(last.Error, "boom") {
		t.Fatalf("terminal status = %+v, want failed with the task error", last)
	}
}

// TestSweepTaskCosts sanity-checks the built-in Sizer implementations:
// costs are positive and ordered the way the priors claim.
func TestSweepTaskCosts(t *testing.T) {
	learn := LearnSweep{Gen: core.GenSpec{Miners: 6, Coins: 3}, Schedulers: []string{"random", "max-gain"}, Runs: 2}
	if rnd, greedy := learn.TaskCost(0), learn.TaskCost(2); rnd <= greedy {
		t.Fatalf("random-scheduler cost %v not above max-gain cost %v", rnd, greedy)
	}
	// The default-list prior indexes AllSchedulers positionally; guard the
	// assumption that position 1 is "random" so a reorder there cannot
	// silently misweight sweeps.
	defLearn := LearnSweep{Gen: core.GenSpec{Miners: 6, Coins: 3}, Runs: 3}
	if names := defLearn.schedulerNames(); names[1] != "random" {
		t.Fatalf("AllSchedulers()[1] = %q; update LearnSweep.TaskCost's default-list prior", names[1])
	}
	if rnd, rr := defLearn.TaskCost(3), defLearn.TaskCost(0); rnd <= rr {
		t.Fatalf("default-list random cost %v not above round-robin cost %v", rnd, rr)
	}
	small := EquilibriumSweep{Gen: core.GenSpec{Miners: 4, Coins: 2}, Games: 1}
	big := EquilibriumSweep{Gen: core.GenSpec{Miners: 8, Coins: 3}, Games: 1}
	if small.TaskCost(0) >= big.TaskCost(0) {
		t.Fatal("equilibrium enumeration cost not increasing in game size")
	}
	design := DesignSweep{Gen: core.GenSpec{Miners: 4, Coins: 2}, Pairs: 1}
	if design.TaskCost(0) <= big.TaskCost(0) {
		t.Fatal("design cost (repeated enumeration) not above one enumeration of a moderate game")
	}
	replaySweep := ReplaySweep{Runs: 1}
	if replaySweep.TaskCost(0) <= 0 {
		t.Fatal("replay cost must be positive even for all-default params")
	}
	for _, s := range []Sizer{learn, small, design, replaySweep} {
		if c := s.TaskCost(0); c <= 0 {
			t.Fatalf("%T cost %v not positive", s, c)
		}
	}
}

// TestWorkersRetireWhenIdle: the dispatcher spawns workers on demand and
// holds none while idle, so engines are free to construct and abandon.
func TestWorkersRetireWhenIdle(t *testing.T) {
	eng := New(4)
	if live := func() int { eng.mu.Lock(); defer eng.mu.Unlock(); return eng.live }(); live != 0 {
		t.Fatalf("fresh engine has %d live workers", live)
	}
	spec := Func{
		Name: "quick",
		N:    8,
		Task: func(_ context.Context, i int, _ *rng.Rand) (any, error) { return i, nil },
	}
	if _, err := eng.Run(context.Background(), spec, 1, nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		eng.mu.Lock()
		live := eng.live
		eng.mu.Unlock()
		if live == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d workers still live on a drained engine", live)
		}
		time.Sleep(time.Millisecond)
	}
}

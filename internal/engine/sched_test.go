package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gameofcoins/internal/core"
	"gameofcoins/internal/rng"
)

// jitterWrap delays each task of any Spec by its own duration before running
// it, so property tests can make real sweeps' tasks finish out of index
// order without touching what they compute.
type jitterWrap struct {
	Spec
	delays []time.Duration
}

func (w jitterWrap) RunTask(ctx context.Context, i int, r *rng.Rand) (any, error) {
	time.Sleep(w.delays[i])
	return w.Spec.RunTask(ctx, i, r)
}

// TestSchedulerDeterminismProperty is the dispatcher's proof obligation: the
// same specs produce bit-identical results under randomized worker counts,
// randomized task delays of 0–200 µs (which shuffle the order tasks finish
// and publish in), and concurrent-job mixes sharing one engine. Determinism
// holds by construction — results land by task index and rng streams fork
// per index — and this test pins that no scheduler change can silently
// break it.
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
	// Reference: every spec alone on a single worker, in index order.
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
		// Shuffle each spec's completion order with random task delays, and
		// run all specs concurrently so takes interleave across jobs.
		var wg sync.WaitGroup
		got := make([]any, len(specs))
		errs := make([]error, len(specs))
		for i, spec := range specs {
			delays := make([]time.Duration, spec.Tasks())
			for d := range delays {
				delays[d] = time.Duration(r.Intn(201)) * time.Microsecond
			}
			wg.Add(1)
			go func(i int, spec Spec) {
				defer wg.Done()
				got[i], errs[i] = eng.Run(context.Background(), jitterWrap{spec, delays}, 23, nil)
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
// short job finishes while the long one is still mostly pending. On one
// worker every take is a tie, which must alternate between the jobs.
func TestFairShareNoStarvation(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { testFairShareNoStarvation(t, workers) })
	}
}

func testFairShareNoStarvation(t *testing.T, workers int) {
	eng := New(workers)
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
	// bound is deliberately loose (short needs a few of the long job's
	// tasks' time at most, so well under half the long job can have
	// completed) — the failure mode it guards against is FIFO feeding, where
	// the short job would have waited for all 40 long tasks and this reads
	// longN.
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
	inFlight := make(chan struct{})
	spec := Func{
		Name: "doomed",
		N:    4,
		Task: func(ctx context.Context, i int, _ *rng.Rand) (any, error) {
			if i == 0 {
				<-inFlight // fail only once task 1 is running on the other worker
				return nil, boom
			}
			if i == 1 {
				close(inFlight)
			}
			<-ctx.Done()  // wait for the failure's cancellation…
			return i, nil // …then "complete" anyway
		},
	}
	job, err := m.SubmitJobOpts("", spec, 1, SubmitOptions{})
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

// TestStatsReportsClientLoads: the scheduler snapshot counts each named
// client's active jobs and in-flight tasks under its configured share,
// leaves anonymous jobs out of the per-client map, and drops a client once
// its jobs finish.
func TestStatsReportsClientLoads(t *testing.T) {
	e := New(2)
	e.SetClientShare(0.5)
	m := NewManager(e)
	defer m.Close()
	g := newGate()
	defer g.open()
	gated := Func{Name: "test_client_load", N: 2, Task: func(ctx context.Context, i int, _ *rng.Rand) (any, error) {
		return i, g.wait(ctx)
	}}
	var jobs []*Job
	for seed, client := range []string{"a", "b", ""} {
		j, err := m.SubmitJobOpts("", gated, uint64(seed), SubmitOptions{Client: client})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	deadline := time.Now().Add(10 * time.Second)
	st := e.Stats()
	for st.RunningTasks < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		st = e.Stats()
	}
	if st.ActiveJobs != 3 || st.RunningTasks != 2 || st.QueuedTasks != 4 {
		t.Fatalf("stats = %+v, want 3 active jobs, 2 running and 4 queued tasks", st)
	}
	if len(st.Clients) != 2 {
		t.Fatalf("clients = %+v, want a and b only", st.Clients)
	}
	inFlight := 0
	for _, name := range []string{"a", "b"} {
		cl := st.Clients[name]
		if cl.Jobs != 1 || cl.ShareCap != 0.5 {
			t.Errorf("client %s load = %+v, want 1 job under share 0.5", name, cl)
		}
		inFlight += cl.InFlight
	}
	if inFlight > st.RunningTasks {
		t.Errorf("clients hold %d tasks in flight, the engine runs %d", inFlight, st.RunningTasks)
	}
	g.open()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, j := range jobs {
		if err := waitJob(ctx, j); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.ActiveJobs != 0 || st.Clients != nil {
		t.Fatalf("stats after the jobs finished = %+v", st)
	}
}

package engine

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"gameofcoins/internal/rng"
)

// gate is a reusable latch test specs block on, so watch tests control
// exactly when tasks may finish.
type gate struct {
	once sync.Once
	ch   chan struct{}
}

func (g *gate) open() { g.once.Do(func() { close(g.ch) }) }
func newGate() *gate  { return &gate{ch: make(chan struct{})} }
func (g *gate) wait(ctx context.Context) error {
	select {
	case <-g.ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TestWatchStreamsProgressAndTerminal: a watcher sees the initial snapshot,
// at least one progress update, and then the terminal status, after which
// the channel closes.
func TestWatchStreamsProgressAndTerminal(t *testing.T) {
	m := NewManager(New(2))
	defer m.Close()

	g := newGate()
	const free, total = 2, 4
	spec := Func{
		Name: "test_watch",
		N:    total,
		Task: func(ctx context.Context, i int, _ *rng.Rand) (any, error) {
			if i >= free {
				if err := g.wait(ctx); err != nil {
					return nil, err
				}
			}
			return i, nil
		},
	}
	job, err := m.SubmitJobOpts("", spec, 1, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ch := job.Watch(context.Background())

	var sawRunning, sawProgress bool
	var last Status
	for st := range ch {
		last = st
		if !st.State.Terminal() {
			sawRunning = true
			if st.Progress.Done > 0 {
				sawProgress = true
			}
			if st.Progress.Done >= free {
				g.open() // all ungated tasks observed; let the rest finish
			}
		}
	}
	if !sawRunning || !sawProgress {
		t.Fatalf("stream skipped states: running=%v progress=%v", sawRunning, sawProgress)
	}
	if last.State != StateDone || last.Progress.Done != total {
		t.Fatalf("terminal status = %+v", last)
	}
}

// TestWatchTerminalJobYieldsFinalStatusImmediately: watching a finished job
// delivers its terminal status and closes without blocking.
func TestWatchTerminalJobYieldsFinalStatusImmediately(t *testing.T) {
	m := NewManager(New(2))
	defer m.Close()
	job, err := m.SubmitJobOpts("", Func{Name: "test_done", N: 2, Task: func(context.Context, int, *rng.Rand) (any, error) {
		return nil, nil
	}}, 1, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := waitJob(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	ch := job.Watch(context.Background())
	st, ok := <-ch
	if !ok || st.State != StateDone {
		t.Fatalf("first receive = %+v, %v", st, ok)
	}
	if _, ok := <-ch; ok {
		t.Fatal("channel not closed after terminal status")
	}
}

// TestWatchCancelDeliversCanceledStatus: watchers of a canceled job receive
// the canceled terminal status, not a silently closed channel.
func TestWatchCancelDeliversCanceledStatus(t *testing.T) {
	m := NewManager(New(2))
	defer m.Close()
	g := newGate()
	defer g.open()
	job, err := m.SubmitJobOpts("", Func{Name: "test_cancel", N: 2, Task: func(ctx context.Context, _ int, _ *rng.Rand) (any, error) {
		return nil, g.wait(ctx)
	}}, 1, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ch := job.Watch(context.Background())
	job.Cancel()
	var last Status
	for st := range ch {
		last = st
	}
	if last.State != StateCanceled {
		t.Fatalf("terminal status = %+v, want canceled", last)
	}
}

// TestWatchContextCancelUnsubscribes: canceling the watcher's context closes
// its channel promptly (without a terminal status) and drops the
// subscription, while the job runs on unaffected.
func TestWatchContextCancelUnsubscribes(t *testing.T) {
	m := NewManager(New(2))
	defer m.Close()
	g := newGate()
	job, err := m.SubmitJobOpts("", Func{Name: "test_unsub", N: 1, Task: func(ctx context.Context, _ int, _ *rng.Rand) (any, error) {
		return nil, g.wait(ctx)
	}}, 1, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ch := job.Watch(ctx)
	cancel()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				g.open()
				if err := waitJob(context.Background(), job); err != nil {
					t.Fatalf("job broken by watcher unsubscribe: %v", err)
				}
				return
			}
		case <-deadline:
			t.Fatal("watch channel never closed after context cancel")
		}
	}
}

// TestQueuedJobsHoldNoGoroutines: a queued job and a watcher of it under a
// live cancelable context hold context hooks, not goroutines, so 100 watched
// jobs queued behind one busy worker grow the goroutine count by a small
// constant instead of with the job count.
func TestQueuedJobsHoldNoGoroutines(t *testing.T) {
	m := NewManager(New(1))
	defer m.Close()
	g := newGate()
	defer g.open()
	started := make(chan struct{})
	if _, err := m.SubmitJobOpts("", Func{Name: "test_blocker", N: 1, Task: func(ctx context.Context, _ int, _ *rng.Rand) (any, error) {
		close(started)
		return nil, g.wait(ctx)
	}}, 1, SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	<-started // the only worker is now busy until the gate opens

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	before := runtime.NumGoroutine()
	const n = 100
	jobs := make([]*Job, 0, n)
	for k := range n {
		job, err := m.SubmitJobOpts("", Func{Name: "test_queued", N: 2, Task: func(context.Context, int, *rng.Rand) (any, error) {
			return nil, nil
		}}, uint64(k), SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		job.Watch(ctx)
		jobs = append(jobs, job)
	}
	if grown := runtime.NumGoroutine() - before; grown > 10 {
		t.Fatalf("%d queued, watched jobs added %d goroutines, want a small constant", n, grown)
	}
	g.open()
	for _, job := range jobs {
		if err := waitJob(context.Background(), job); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTerminalJobKeepsOnlyRecord: a finished job releases its run's context
// and drops the run (spec, rng base, results, deque), its watchers with
// their context hooks and its ledger's parking, keeping its record:
// counters, the ledger's run, and outcome.
func TestTerminalJobKeepsOnlyRecord(t *testing.T) {
	m := NewManager(New(2))
	defer m.Close()
	// Gate the tasks so the run is still live when the test captures it.
	g := newGate()
	defer g.open()
	spec := newSumSpec(8)
	task := spec.Task
	spec.Task = func(ctx context.Context, i int, r *rng.Rand) (any, error) {
		if err := g.wait(ctx); err != nil {
			return nil, err
		}
		return task(ctx, i, r)
	}
	job, err := m.SubmitJobOpts("", spec, 1, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	job.mu.Lock()
	run := job.run
	job.mu.Unlock()
	job.Watch(ctx)
	g.open()
	if err := waitJob(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	if run.ctx.Err() == nil {
		t.Fatal("finished run never released its context from the manager's")
	}
	job.mu.Lock()
	defer job.mu.Unlock()
	if job.run != nil || job.watchers != nil || job.ledger.park != nil {
		t.Fatalf("terminal job still holds run %p, watchers %v, parked documents %q", job.run, job.watchers, job.ledger.park)
	}
	if job.state != StateDone || job.done != 8 || job.watermarkLocked() != 8 || job.result != wantSum(8) {
		t.Fatalf("terminal record = %+v, result %v", job.statusLocked(), job.result)
	}
}

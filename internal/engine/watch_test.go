package engine

import (
	"context"
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
	job, err := m.Submit(spec, 1)
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
	job, err := m.Submit(Func{Name: "test_done", N: 2, Task: func(context.Context, int, *rng.Rand) (any, error) {
		return nil, nil
	}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(context.Background()); err != nil {
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
	job, err := m.Submit(Func{Name: "test_cancel", N: 2, Task: func(ctx context.Context, _ int, _ *rng.Rand) (any, error) {
		return nil, g.wait(ctx)
	}}, 1)
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
	job, err := m.Submit(Func{Name: "test_unsub", N: 1, Task: func(ctx context.Context, _ int, _ *rng.Rand) (any, error) {
		return nil, g.wait(ctx)
	}}, 1)
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
				if err := job.Wait(context.Background()); err != nil {
					t.Fatalf("job broken by watcher unsubscribe: %v", err)
				}
				return
			}
		case <-deadline:
			t.Fatal("watch channel never closed after context cancel")
		}
	}
}

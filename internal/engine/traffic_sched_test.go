package engine

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"gameofcoins/internal/rng"
)

// Admission-control scheduler tests: randomized tenants × priorities ×
// quota shares must never starve an admitted job, and priority weights must
// visibly tilt the fair-share split without preempting anyone.

// TestMultiTenantNoStarvationProperty: random fleets of client-attributed
// jobs at random priority weights, under a random per-client share cap,
// on random worker counts. Every admitted job must reach StateDone — the
// quota pass in take() must stay work-conserving (waived when everyone is
// over, when one client is alone, or when nothing is observed yet), never
// wedging the pool.
func TestMultiTenantNoStarvationProperty(t *testing.T) {
	r := rng.New(4242)
	for trial := 0; trial < 6; trial++ {
		workers := 1 + r.Intn(4)
		tenants := 2 + r.Intn(3)
		eng := New(workers)
		m := NewManager(eng)
		// Half the trials run with a (sometimes aggressive) share cap, the
		// rest uncapped; both must complete everything.
		var share float64
		if r.Intn(2) == 0 {
			share = 0.2 + 0.6*r.Float64()
		}
		eng.SetClientShare(share)
		weights := []float64{0.5, 1.0, 2.0}

		var jobs []*Job
		for c := 0; c < tenants; c++ {
			client := fmt.Sprintf("tenant-%d", c)
			njobs := 1 + r.Intn(2)
			for k := 0; k < njobs; k++ {
				n := 4 + r.Intn(12)
				spec := Func{
					Name: fmt.Sprintf("t%d-c%d-j%d", trial, c, k),
					N:    n,
					Task: func(_ context.Context, i int, _ *rng.Rand) (any, error) {
						time.Sleep(time.Duration(1+i%3) * time.Millisecond)
						return i, nil
					},
				}
				j, err := m.SubmitJobOpts("", spec, uint64(trial), SubmitOptions{
					Client: client,
					Weight: weights[r.Intn(len(weights))],
				})
				if err != nil {
					t.Fatal(err)
				}
				jobs = append(jobs, j)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		for _, j := range jobs {
			if err := j.Wait(ctx); err != nil {
				t.Fatalf("trial %d (workers=%d tenants=%d share=%.2f): job %s never finished: %v",
					trial, workers, tenants, share, j.ID(), err)
			}
			if st := j.Status(); st.State != StateDone {
				t.Fatalf("trial %d: job %s ended %s: %s", trial, j.ID(), st.State, st.Error)
			}
		}
		cancel()
		m.Close()
	}
}

// TestPriorityWeightsTiltThroughput: a high-priority job submitted while a
// low-priority one is mid-run drains markedly faster — the weighted
// fair-share comparison hands it most of the pool — yet the low job keeps
// making progress (no preemption, no starvation) and finishes too.
func TestPriorityWeightsTiltThroughput(t *testing.T) {
	eng := New(4)
	m := NewManager(eng)
	defer m.Close()
	const n = 30
	task := func(_ context.Context, i int, _ *rng.Rand) (any, error) {
		time.Sleep(5 * time.Millisecond)
		return i, nil
	}
	var lowStarted atomic.Bool
	low, err := m.SubmitJobOpts("", Func{
		Name: "low",
		N:    n,
		Task: func(ctx context.Context, i int, r *rng.Rand) (any, error) {
			lowStarted.Store(true)
			return task(ctx, i, r)
		},
	}, 1, SubmitOptions{Client: "tenant-low", Weight: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for !lowStarted.Load() {
		time.Sleep(time.Millisecond)
	}
	high, err := m.SubmitJobOpts("", Func{Name: "high", N: n, Task: task}, 1,
		SubmitOptions{Client: "tenant-high", Weight: 2.0})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := high.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	lowDone := low.Status().Progress.Done
	// The 0.5-vs-2.0 weights balance worker allocation at roughly 4:1, so
	// by high's finish the low job should be far behind. The bound is
	// deliberately loose: the failure mode is unweighted 1:1 sharing, which
	// would put lowDone within a task or two of n.
	if lowDone > 4*n/5 {
		t.Fatalf("low job completed %d/%d tasks by the time high finished — priority weight had no effect", lowDone, n)
	}
	// No preemption and no starvation: the low job was never paused and
	// still completes.
	if lowDone == 0 {
		t.Fatal("low-priority job made no progress while high ran — starved outright")
	}
	if err := low.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}

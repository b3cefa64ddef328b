package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"gameofcoins/internal/rng"
)

// coderFunc wraps Func with a TaskCoder for int task results, making it
// distributable in tests.
type coderFunc struct{ Func }

func (coderFunc) EncodeTaskResult(res any) (json.RawMessage, error) { return json.Marshal(res) }
func (coderFunc) DecodeTaskResult(raw json.RawMessage) (any, error) {
	var v int
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, err
	}
	return v, nil
}

// slowSquares is an n-task distributable job whose task i sleeps briefly and
// returns i*i; the sleep keeps the pending deque populated long enough for
// lease calls to find work.
func slowSquares(n int) coderFunc {
	return coderFunc{Func{
		Name: "squares",
		N:    n,
		Task: func(ctx context.Context, i int, _ *rng.Rand) (any, error) {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(2 * time.Millisecond):
			}
			return i * i, nil
		},
		Agg: func(results []any) (any, error) {
			sum := 0
			for _, r := range results {
				sum += r.(int)
			}
			return sum, nil
		},
	}}
}

// startWireJob submits spec as a distributable job and returns the Job.
func startWireJob(t *testing.T, mgr *Manager, spec Spec, seed uint64) *Job {
	t.Helper()
	job, err := mgr.SubmitJobOpts("", spec, seed, SubmitOptions{Remote: &RemoteInfo{WireKind: spec.Kind(), Spec: json.RawMessage(`{}`), Seed: seed}})
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// leaseSoon polls LeaseRemote until it grants (the manager enqueues
// asynchronously) or the deque drains for good.
func leaseSoon(t *testing.T, e *Engine, maxTasks int) RemoteLease {
	t.Helper()
	for range 500 {
		if lease, ok := e.LeaseRemote(maxTasks, 0); ok {
			return lease
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("LeaseRemote never granted")
	return RemoteLease{}
}

func TestLeaseRemoteEmptyEngine(t *testing.T) {
	if _, ok := New(1).LeaseRemote(16, 0); ok {
		t.Fatal("LeaseRemote granted a lease on an idle engine")
	}
}

func TestLeaseRemoteNeverTakesMoreThanHalf(t *testing.T) {
	e := New(1)
	mgr := NewManager(e)
	defer mgr.Close()
	job := startWireJob(t, mgr, slowSquares(64), 1)

	lease := leaseSoon(t, e, 1000)
	// The deque had at most 64 pending when the lease was cut; the grant is
	// capped at half the remainder (rounded up), so local workers keep feed.
	if len(lease.TaskList()) > 33 {
		t.Fatalf("lease took %d of <= 64 pending tasks, want <= half (33)", len(lease.TaskList()))
	}
	if lease.Wire.WireKind != "squares" {
		t.Fatalf("lease wire kind = %q, want %q", lease.Wire.WireKind, "squares")
	}

	// Hand the range back so the job can finish.
	e.RequeueRemote(lease.Run, lease.TaskList())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := job.Wait(ctx); err != nil {
		t.Fatalf("job after requeue: %v", err)
	}
	res, _ := job.Result()
	if want := 64 * 63 * 127 / 6; res != want { // sum of squares 0..63
		t.Fatalf("result = %v, want %d", res, want)
	}
	if st := e.Stats(); st.RemoteRequeued < uint64(len(lease.TaskList())) {
		t.Fatalf("RemoteRequeued = %d, want >= %d", st.RemoteRequeued, len(lease.TaskList()))
	}
}

func TestReportRemoteFirstWriterWinsAndValidates(t *testing.T) {
	e := New(1)
	mgr := NewManager(e)
	defer mgr.Close()
	job := startWireJob(t, mgr, slowSquares(64), 1)

	lease := leaseSoon(t, e, 8)
	results := make(map[int]json.RawMessage, len(lease.TaskList()))
	for _, task := range lease.TaskList() {
		results[task] = json.RawMessage(fmt.Sprintf("%d", task*task))
	}

	// An out-of-range index must reject the whole report before anything
	// publishes (all-or-nothing).
	bad := map[int]json.RawMessage{lease.TaskList()[0]: results[lease.TaskList()[0]], 64: json.RawMessage("0")}
	if _, err := e.ReportRemote(lease.Run, bad); err == nil {
		t.Fatal("out-of-range report accepted")
	}
	// So must an undecodable result.
	garbled := map[int]json.RawMessage{lease.TaskList()[0]: json.RawMessage(`"not an int"`)}
	if _, err := e.ReportRemote(lease.Run, garbled); err == nil {
		t.Fatal("undecodable report accepted")
	}

	accepted, err := e.ReportRemote(lease.Run, results)
	if err != nil {
		t.Fatal(err)
	}
	if accepted != len(results) {
		t.Fatalf("first report: accepted %d, want %d", accepted, len(results))
	}
	// The same results again: first writer already won every index.
	accepted, err = e.ReportRemote(lease.Run, results)
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 0 {
		t.Fatalf("duplicate report: accepted %d, want 0", accepted)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := job.Wait(ctx); err != nil {
		t.Fatalf("job: %v", err)
	}
	res, _ := job.Result()
	if want := 64 * 63 * 127 / 6; res != want {
		t.Fatalf("result = %v, want %d", res, want)
	}
}

func TestRemoteUnknownRun(t *testing.T) {
	e := New(1)
	if _, err := e.ReportRemote(999, map[int]json.RawMessage{0: json.RawMessage("1")}); !errors.Is(err, ErrRunGone) {
		t.Fatalf("ReportRemote on unknown run: got %v, want ErrRunGone", err)
	}
	e.RequeueRemote(999, []int{1, 2, 3}) // must be a silent no-op
	e.FailRemote(999, "boom")            // likewise
}

func TestFailRemoteFailsJob(t *testing.T) {
	e := New(1)
	mgr := NewManager(e)
	defer mgr.Close()
	job := startWireJob(t, mgr, slowSquares(64), 1)

	lease := leaseSoon(t, e, 8)
	e.FailRemote(lease.Run, "deterministic task failure")

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := job.Wait(ctx)
	if err == nil || job.Status().State != StateFailed {
		t.Fatalf("job after FailRemote: err=%v state=%v, want failed", err, job.Status().State)
	}
	if want := "deterministic task failure"; err != nil && !strings.Contains(err.Error(), want) {
		t.Fatalf("job error %q does not carry the remote message %q", err, want)
	}
}

// TestObservedCostStats locks in the EWMA feedback loop: completed local
// tasks must populate Stats().Observed for the job's cost key, which lease
// sizing and weighted fair share read.
func TestObservedCostStats(t *testing.T) {
	e := New(2)
	spec := slowSquares(16)
	if _, err := e.Run(context.Background(), spec, 1, nil); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	o, ok := st.Observed["squares"]
	if !ok {
		t.Fatalf("no observed cost for %q: %+v", "squares", st.Observed)
	}
	if o.Samples == 0 || o.MsPerTask <= 0 || o.MsPerCost <= 0 {
		t.Fatalf("observed cost not populated: %+v", o)
	}
	// Tasks sleep ~2ms; the EWMA should be in that order of magnitude, not
	// wildly off (which would poison lease sizing).
	if o.MsPerTask < 0.5 || o.MsPerTask > 500 {
		t.Fatalf("MsPerTask = %v, implausible for a ~2ms task", o.MsPerTask)
	}
}

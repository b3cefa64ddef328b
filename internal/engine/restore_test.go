package engine

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"gameofcoins/internal/rng"
	"gameofcoins/internal/stats"
)

// TestManagerRestore: a terminal job injected by the persistence layer is
// indistinguishable from one that finished in-process — status, Done/Wait —
// except that its result lies in the store, as does each span of its
// ledger, which the count of its persisted task documents rebuilds; a span
// it will never complete is gone rather than incomplete, and its ID
// advances the mint counter so later submissions never collide.
func TestManagerRestore(t *testing.T) {
	m := NewManager(New(1))
	defer m.Close()

	job, err := m.Restore("job-7", "toy", 3, 1, StateDone, "")
	if err != nil {
		t.Fatal(err)
	}
	st := job.Status()
	if st.State != StateDone || st.Progress.Done != 3 || st.Progress.Total != 3 || st.Progress.Watermark != 1 {
		t.Fatalf("restored status = %+v", st)
	}
	if res, err := job.Result(); !errors.Is(err, ErrResultStored) || res != nil {
		t.Fatalf("restored result = %v, %v; want it in the store", res, err)
	}
	if got, err := job.ResultRange(0, 1); !errors.Is(err, ErrRangeStored) {
		t.Fatalf("restored range [0,1) = %s, %v; want it in the store", got.Bytes(), err)
	}
	if _, err := job.ResultRange(0, 3); !errors.Is(err, ErrRangeGone) {
		t.Fatalf("range over a missing document: %v", err)
	}
	select {
	case <-job.Done():
	default:
		t.Fatal("restored job's Done channel is open")
	}
	if err := waitJob(context.Background(), job); err != nil {
		t.Fatalf("restored done job = %v", err)
	}
	got, err := m.Get("job-7")
	if err != nil || got != job {
		t.Fatalf("Get = %v, %v", got, err)
	}
	// Documents past the job's last task are ignored.
	short, err := m.Restore("job-8", "toy", 1, 2, StateDone, "")
	if err != nil {
		t.Fatal(err)
	}
	if wm := short.Watermark(); wm != 1 {
		t.Fatalf("one-task restore with two documents: watermark %d", wm)
	}

	// Failed restores carry their recorded error; Cancel is a no-op.
	failed, err := m.Restore("job-9", "toy", 2, 0, StateFailed, "stored boom")
	if err != nil {
		t.Fatal(err)
	}
	failed.Cancel()
	if st := failed.Status(); st.State != StateFailed || st.Error != "stored boom" {
		t.Fatalf("failed status = %+v", st)
	}
	if _, err := failed.ResultRange(0, 1); !errors.Is(err, ErrNoLedger) {
		t.Fatalf("failed restore's range: %v", err)
	}

	// The counter moved past the highest restored ID.
	fresh, err := m.SubmitJobOpts("", Func{Name: "f", N: 1,
		Task: func(_ context.Context, i int, _ *rng.Rand) (any, error) { return i, nil }}, 1, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID() != "job-10" {
		t.Fatalf("fresh job ID = %s, want job-10", fresh.ID())
	}

	// Guard rails: duplicates and non-terminal states are rejected.
	if _, err := m.Restore("job-7", "toy", 1, 0, StateDone, ""); err == nil {
		t.Fatal("duplicate restore accepted")
	}
	if _, err := m.Restore("job-99", "toy", 1, 0, StateRunning, ""); err == nil {
		t.Fatal("non-terminal restore accepted")
	}
	if _, err := m.Restore("", "toy", 1, 0, StateDone, ""); err == nil {
		t.Fatal("empty-ID restore accepted")
	}
}

// TestManagerResubmit: a job resubmitted through SubmitJobOpts runs under
// its caller-chosen ID and produces the same result a fresh submission
// would (determinism); a duplicate ID is rejected, and the reused ID
// advances the mint counter.
func TestManagerResubmit(t *testing.T) {
	m := NewManager(New(2))
	defer m.Close()
	spec := Func{Name: "sum", N: 4,
		Task: func(_ context.Context, i int, r *rng.Rand) (any, error) { return int(r.Uint64() % 100), nil },
		Agg: func(results []any) (any, error) {
			s := 0
			for _, v := range results {
				s += v.(int)
			}
			return s, nil
		}}

	ref, err := m.SubmitJobOpts("", spec, 11, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := waitJob(context.Background(), ref); err != nil {
		t.Fatal(err)
	}
	want, _ := ref.Result()

	job, err := m.SubmitJobOpts("job-33", spec, 11, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if job.ID() != "job-33" {
		t.Fatalf("ID = %s", job.ID())
	}
	if err := waitJob(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	if got, _ := job.Result(); got != want {
		t.Fatalf("resubmitted result %v != original %v", got, want)
	}

	if _, err := m.SubmitJobOpts("job-33", spec, 11, SubmitOptions{}); err == nil {
		t.Fatal("duplicate resubmit accepted")
	}
	// The reused ID advanced the mint counter: fresh jobs never collide.
	fresh, err := m.SubmitJobOpts("", spec, 11, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID() != "job-34" {
		t.Fatalf("fresh job after a job-33 resubmit minted %s, want job-34", fresh.ID())
	}
}

// TestResultSchemaCheck: a stored result passes only its version's result
// schema — a built-in result passes, a kind with no result schema accepts
// any document, and a corrupt document's error names the kind.
func TestResultSchemaCheck(t *testing.T) {
	raw, err := json.Marshal(LearnSweepResult{
		TotalRuns: 8,
		Schedulers: []SchedulerSummary{{
			Scheduler: "random", Runs: 8, Converged: 8,
			Steps: stats.Summarize([]float64{3, 5, 7, 9}),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Version 0, the pre-versioning records' version, counts as 1.
	for _, version := range []int{0, 1} {
		if err := ValidateResult("learn_sweep", version, raw); err != nil {
			t.Fatalf("v%d: built-in result rejected: %v", version, err)
		}
	}

	for _, doc := range []string{`{"answer":41}`, `[1,"x"]`, ``} {
		if err := ValidateResult("never_registered_kind", 1, json.RawMessage(doc)); err != nil {
			t.Fatalf("kind without a result schema rejected %q: %v", doc, err)
		}
	}

	for _, doc := range []string{`{"total_runs":"nope"}`, `{"total_runs":8,"bogus":1}`, `[]`, ``, `{"total_runs":`} {
		if err := ValidateResult("learn_sweep", 1, json.RawMessage(doc)); err == nil ||
			!strings.Contains(err.Error(), "learn_sweep") {
			t.Fatalf("corrupt document %q: err = %v", doc, err)
		}
	}
}

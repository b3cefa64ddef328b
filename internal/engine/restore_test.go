package engine

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"gameofcoins/internal/rng"
	"gameofcoins/internal/stats"
)

// TestManagerRestore: a terminal job injected by the persistence layer is
// indistinguishable from one that finished in-process — status, result,
// Done/Wait — and its ID advances the mint counter so later submissions
// never collide.
func TestManagerRestore(t *testing.T) {
	m := NewManager(New(1))
	defer m.Close()

	job, err := m.Restore("job-7", "toy", 3, 42, StateDone, "")
	if err != nil {
		t.Fatal(err)
	}
	st := job.Status()
	if st.State != StateDone || st.Progress.Done != 3 || st.Progress.Total != 3 {
		t.Fatalf("restored status = %+v", st)
	}
	if res, ok := job.Result(); !ok || res != 42 {
		t.Fatalf("restored result = %v, %v", res, ok)
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

	// Failed restores carry their recorded error; Cancel is a no-op.
	failed, err := m.Restore("job-9", "toy", 2, nil, StateFailed, "stored boom")
	if err != nil {
		t.Fatal(err)
	}
	failed.Cancel()
	if st := failed.Status(); st.State != StateFailed || st.Error != "stored boom" {
		t.Fatalf("failed status = %+v", st)
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
	if _, err := m.Restore("job-7", "toy", 1, nil, StateDone, ""); err == nil {
		t.Fatal("duplicate restore accepted")
	}
	if _, err := m.Restore("job-99", "toy", 1, nil, StateRunning, ""); err == nil {
		t.Fatal("non-terminal restore accepted")
	}
	if _, err := m.Restore("", "toy", 1, nil, StateDone, ""); err == nil {
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

// TestResultCodecRoundTrip: built-in results revive through the registry
// into their typed form; unregistered kinds fall back to a raw-JSON copy.
func TestResultCodecRoundTrip(t *testing.T) {
	orig := LearnSweepResult{
		TotalRuns: 8,
		Schedulers: []SchedulerSummary{{
			Scheduler: "random", Runs: 8, Converged: 8,
			Steps: stats.Summarize([]float64{3, 5, 7, 9}),
		}},
	}
	raw, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	revived, err := DecodeResult("learn_sweep", 1, raw)
	if err != nil {
		t.Fatal(err)
	}
	typed, ok := revived.(LearnSweepResult)
	if !ok {
		t.Fatalf("revived type = %T", revived)
	}
	if !reflect.DeepEqual(typed, orig) {
		t.Fatalf("round-trip changed the result:\n%+v\n%+v", typed, orig)
	}
	// Re-encoding is byte-identical — the property the restart cache needs.
	again, err := json.Marshal(typed)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(raw) {
		t.Fatalf("re-encoded bytes differ:\n%s\n%s", again, raw)
	}

	// Unregistered kind: the raw document itself comes back (a copy).
	doc := json.RawMessage(`{"answer":41}`)
	out, err := DecodeResult("never_registered_kind", 1, doc)
	if err != nil {
		t.Fatal(err)
	}
	rawOut, ok := out.(json.RawMessage)
	if !ok || string(rawOut) != string(doc) {
		t.Fatalf("fallback = %T %s", out, rawOut)
	}
	doc[10] = '2'
	if string(rawOut) != `{"answer":41}` {
		t.Fatal("fallback aliases the caller's buffer")
	}

	// A registered codec surfaces corrupt documents as errors.
	if _, err := DecodeResult("learn_sweep", 1, json.RawMessage(`{"total_runs":"nope"}`)); err == nil ||
		!strings.Contains(err.Error(), "learn_sweep") {
		t.Fatalf("corrupt document err = %v", err)
	}
}

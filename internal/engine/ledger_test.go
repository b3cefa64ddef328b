package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"

	"gameofcoins/internal/rng"
)

func TestParseTaskRange(t *testing.T) {
	tr, err := ParseTaskRange("3-17")
	if err != nil || tr.Lo != 3 || tr.Hi != 17 {
		t.Fatalf("parse 3-17 = %v, %v", tr, err)
	}
	for _, bad := range []string{"", "5", "a-b", "-1-3", "5-5", "7-3"} {
		if _, err := ParseTaskRange(bad); err == nil {
			t.Fatalf("ParseTaskRange(%q) accepted", bad)
		}
	}
}

// TestResultLedgerWatermark: out-of-order publications advance the job's
// ledger watermark only over the contiguous prefix; ranges of complete spans
// are served mid-run, incomplete or out-of-bounds ones report the sentinel
// errors, and a second publication of an index loses to the first.
func TestResultLedgerWatermark(t *testing.T) {
	e := New(1)
	r, err := e.newRun(context.Background(), newSumSpec(5), 1, SubmitOptions{}, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.cancel(nil)
	j := r.job
	publish := func(task int, doc string) bool {
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.publishLocked(e, r, task, 100+task, json.RawMessage(doc), false)
	}
	publish(2, `2`)
	publish(0, `0`)
	if wm := j.Watermark(); wm != 1 {
		t.Fatalf("watermark = %d, want 1", wm)
	}
	// The island past the watermark is recorded and servable on its own.
	if docs, err := j.ResultRange(2, 3); err != nil || string(docs[0]) != "2" {
		t.Fatalf("island range = %v, %v", docs, err)
	}
	if _, err := j.ResultRange(0, 2); !errors.Is(err, ErrRangeIncomplete) {
		t.Fatalf("incomplete range err = %v", err)
	}
	if _, err := j.ResultRange(0, 9); !errors.Is(err, ErrBadRange) {
		t.Fatalf("out-of-bounds range err = %v", err)
	}
	publish(1, `1`)
	if wm := j.Watermark(); wm != 3 {
		t.Fatalf("watermark = %d, want 3", wm)
	}
	docs, err := j.ResultRange(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 3 || string(docs[1]) != "1" {
		t.Fatalf("range = %v", docs)
	}
	// First writer wins: a duplicate publication must not replace the bytes
	// or count the task twice.
	if publish(1, `99`) {
		t.Fatal("duplicate publication accepted")
	}
	docs, _ = j.ResultRange(1, 2)
	if string(docs[0]) != "1" {
		t.Fatalf("duplicate publication replaced ledger bytes: %s", docs[0])
	}
	if st := j.Status(); st.Progress.Done != 3 || st.Progress.Watermark != 3 {
		t.Fatalf("status progress = %+v, want done 3, watermark 3", st.Progress)
	}
}

// sumSpec is a fast TaskCoder spec: task i returns base+i, the aggregate is
// the sum. ran records which task indices actually executed.
type sumSpec struct {
	coderFunc
	mu  *sync.Mutex
	ran map[int]bool
}

func newSumSpec(n int) *sumSpec {
	s := &sumSpec{mu: &sync.Mutex{}, ran: map[int]bool{}}
	s.Func = Func{
		Name: "sum",
		N:    n,
		Task: func(_ context.Context, i int, _ *rng.Rand) (any, error) {
			s.mu.Lock()
			s.ran[i] = true
			s.mu.Unlock()
			return 100 + i, nil
		},
		Agg: func(results []any) (any, error) {
			total := 0
			for _, r := range results {
				total += r.(int)
			}
			return total, nil
		},
	}
	return s
}

func (s *sumSpec) executed() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []int
	for i := range s.ran {
		out = append(out, i)
	}
	return out
}

func wantSum(n int) int {
	total := 0
	for i := 0; i < n; i++ {
		total += 100 + i
	}
	return total
}

// TestJobLedgerLocalRun: a TaskCoder job run entirely locally fills its
// ledger — final watermark covers every task and ResultRange serves the
// TaskCoder encodings byte-for-byte.
func TestJobLedgerLocalRun(t *testing.T) {
	mgr := NewManager(New(4))
	defer mgr.Close()
	job, err := mgr.Submit(newSumSpec(16), 7)
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	if wm := job.Watermark(); wm != 16 {
		t.Fatalf("watermark = %d, want 16", wm)
	}
	if _, err := job.ResultRange(0, 16); err != nil {
		t.Fatalf("full span after completion: %v", err)
	}
	docs, err := job.ResultRange(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	for k, d := range docs {
		if want := fmt.Sprint(103 + k); string(d) != want {
			t.Fatalf("task %d doc = %s, want %s", 3+k, d, want)
		}
	}
	st := job.Status()
	if st.Progress.Watermark != 16 {
		t.Fatalf("status watermark = %d", st.Progress.Watermark)
	}
}

// TestJobNoLedger: a spec without a TaskCoder has no ledger; range queries
// report ErrNoLedger and the status watermark stays zero.
func TestJobNoLedger(t *testing.T) {
	mgr := NewManager(New(2))
	defer mgr.Close()
	job, err := mgr.Submit(Func{
		Name: "plain",
		N:    4,
		Task: func(_ context.Context, i int, _ *rng.Rand) (any, error) { return i, nil },
		Agg:  func(results []any) (any, error) { return len(results), nil },
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	if _, err := job.ResultRange(0, 1); !errors.Is(err, ErrNoLedger) {
		t.Fatalf("ResultRange err = %v", err)
	}
	if job.Watermark() != 0 {
		t.Fatal("ledger state on a non-TaskCoder job")
	}
}

// TestSubmitJobOptsPrefill: prefilled tasks are decoded into the job (and
// its ledger) without executing; only the uncovered suffix runs, and the
// aggregate is byte-identical to an uninterrupted run.
func TestSubmitJobOptsPrefill(t *testing.T) {
	const n = 12
	mgr := NewManager(New(4))
	defer mgr.Close()
	spec := newSumSpec(n)
	prefill := map[int]json.RawMessage{}
	for i := 0; i < 5; i++ {
		prefill[i] = json.RawMessage(fmt.Sprint(100 + i))
	}
	prefill[8] = json.RawMessage(fmt.Sprint(108)) // island beyond the prefix
	job, err := mgr.SubmitJobOpts("", spec, 7, SubmitOptions{Prefill: prefill})
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	res, ok := job.Result()
	if !ok || res.(int) != wantSum(n) {
		t.Fatalf("result = %v (ok=%v), want %d", res, ok, wantSum(n))
	}
	for _, i := range spec.executed() {
		if prefill[i] != nil {
			t.Fatalf("prefilled task %d executed anyway", i)
		}
	}
	if len(spec.executed()) != n-len(prefill) {
		t.Fatalf("executed %d tasks, want %d", len(spec.executed()), n-len(prefill))
	}
	if wm := job.Watermark(); wm != n {
		t.Fatalf("final watermark = %d, want %d", wm, n)
	}
	st := job.Status()
	if st.Progress.Done != n {
		t.Fatalf("done = %d, want %d", st.Progress.Done, n)
	}
}

// TestSubmitJobOptsPrefillAll: a fully prefilled job never executes a task
// and still aggregates, finishes, and serves its ledger.
func TestSubmitJobOptsPrefillAll(t *testing.T) {
	const n = 6
	mgr := NewManager(New(2))
	defer mgr.Close()
	spec := newSumSpec(n)
	prefill := map[int]json.RawMessage{}
	for i := 0; i < n; i++ {
		prefill[i] = json.RawMessage(fmt.Sprint(100 + i))
	}
	job, err := mgr.SubmitJobOpts("", spec, 7, SubmitOptions{Prefill: prefill})
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	res, ok := job.Result()
	if !ok || res.(int) != wantSum(n) {
		t.Fatalf("result = %v (ok=%v)", res, ok)
	}
	if got := spec.executed(); len(got) != 0 {
		t.Fatalf("fully prefilled job executed tasks %v", got)
	}
	if wm := job.Watermark(); wm != n {
		t.Fatalf("watermark = %d", wm)
	}
}

// TestSubmitJobOptsPrefillInvalid: a prefill document that fails the
// TaskCoder decode is discarded and its task recomputes — corrupt persisted
// ranges degrade to recomputation, never to a wrong aggregate.
func TestSubmitJobOptsPrefillInvalid(t *testing.T) {
	const n = 4
	mgr := NewManager(New(2))
	defer mgr.Close()
	spec := newSumSpec(n)
	prefill := map[int]json.RawMessage{
		0: json.RawMessage(`100`),
		1: json.RawMessage(`"not an int"`),
	}
	job, err := mgr.SubmitJobOpts("", spec, 7, SubmitOptions{Prefill: prefill})
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	res, ok := job.Result()
	if !ok || res.(int) != wantSum(n) {
		t.Fatalf("result = %v (ok=%v), want %d", res, ok, wantSum(n))
	}
	ran := map[int]bool{}
	for _, i := range spec.executed() {
		ran[i] = true
	}
	if ran[0] {
		t.Fatal("valid prefilled task 0 executed")
	}
	if !ran[1] {
		t.Fatal("invalid prefill for task 1 was not recomputed")
	}
}

// TestRemoteReportFeedsLedger: results arriving through ReportRemote land in
// the ledger with the worker's reported bytes.
func TestRemoteReportFeedsLedger(t *testing.T) {
	e := New(1)
	mgr := NewManager(e)
	defer mgr.Close()
	job := startWireJob(t, mgr, slowSquares(32), 1)
	lease := leaseSoon(t, e, 8)
	tasks := lease.Tasks
	results := make(map[int]json.RawMessage, len(tasks))
	for _, task := range tasks {
		results[task] = json.RawMessage(fmt.Sprint(task * task))
	}
	if _, err := e.ReportRemote(lease.Run, results); err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	if wm := job.Watermark(); wm != 32 {
		t.Fatalf("watermark = %d, want 32", wm)
	}
	docs, err := job.ResultRange(tasks[0], tasks[0]+1)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprint(tasks[0] * tasks[0]); string(docs[0]) != want {
		t.Fatalf("remote-reported doc = %s, want %s", docs[0], want)
	}
}

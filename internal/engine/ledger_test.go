package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
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
	if docs, err := j.ResultRange(2, 3); err != nil || string(docs.Bytes()) != "2" {
		t.Fatalf("island range = %s, %v", docs.Bytes(), err)
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
	if docs.Len() != 3 || string(docs.Doc(1)) != "1" {
		t.Fatalf("range = %s", docs.Bytes())
	}
	// First writer wins: a duplicate publication must not replace the bytes
	// or count the task twice.
	if publish(1, `99`) {
		t.Fatal("duplicate publication accepted")
	}
	docs, _ = j.ResultRange(1, 2)
	if string(docs.Doc(0)) != "1" {
		t.Fatalf("duplicate publication replaced ledger bytes: %s", docs.Doc(0))
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
	job, err := mgr.SubmitJobOpts("", newSumSpec(16), 7, SubmitOptions{})
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
	for k := range docs.Len() {
		if want := fmt.Sprint(103 + k); string(docs.Doc(k)) != want {
			t.Fatalf("task %d doc = %s, want %s", 3+k, docs.Doc(k), want)
		}
	}
	st := job.Status()
	if st.Progress.Watermark != 16 {
		t.Fatalf("status watermark = %d", st.Progress.Watermark)
	}
}

// TestResultRangeIsAView: a span below the watermark is a view of the
// ledger, not a copy: two calls share one body, the view is capped at hi so
// an append copies instead of writing into the ledger, and a call allocates
// nothing.
func TestResultRangeIsAView(t *testing.T) {
	mgr := NewManager(New(2))
	defer mgr.Close()
	job, err := mgr.SubmitJobOpts("", newSumSpec(16), 7, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	all, err := job.ResultRange(0, 16)
	if err != nil {
		t.Fatal(err)
	}
	head, err := job.ResultRange(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if b := head.Bytes(); &b[0] != &all.Bytes()[0] || cap(b) != len(b) {
		t.Fatalf("ResultRange(0, 8) is not a capped view of the ledger's run (spare capacity %d)", cap(b)-len(b))
	}
	if grown := head.AppendDoc([]byte(`0`)); &grown.Bytes()[0] == &all.Bytes()[0] || string(all.Doc(8)) != "108" {
		t.Fatalf("an append to a view wrote into the ledger: task 8 is %s", all.Doc(8))
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = job.ResultRange(0, 16) }); allocs != 0 {
		t.Fatalf("ResultRange below the watermark allocates %v times, want 0", allocs)
	}
}

// TestCanceledLedgerIsTrimmed: a job that ends short of its tasks keeps
// its ledger's run in a body just big enough for the documents it holds,
// not the one sized for every task, and still serves them.
func TestCanceledLedgerIsTrimmed(t *testing.T) {
	mgr := NewManager(New(2))
	defer mgr.Close()
	g := newGate()
	defer g.open()
	spec := newSumSpec(64)
	task := spec.Task
	spec.Task = func(ctx context.Context, i int, r *rng.Rand) (any, error) {
		if i >= 8 {
			if err := g.wait(ctx); err != nil {
				return nil, err
			}
		}
		return task(ctx, i, r)
	}
	job, err := mgr.SubmitJobOpts("", spec, 1, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for st := range job.Watch(context.Background()) {
		if st.Progress.Watermark >= 8 {
			job.Cancel()
		}
	}
	if st := job.Status(); st.State != StateCanceled {
		t.Fatalf("job ended %s", st.State)
	}
	if docs, err := job.ResultRange(0, 8); err != nil || string(docs.Bytes()) != "100,101,102,103,104,105,106,107" {
		t.Fatalf("canceled job's range [0,8) = %s, %v", docs.Bytes(), err)
	}
	job.mu.Lock()
	defer job.mu.Unlock()
	if run := job.ledger.docs; cap(run.body) != len(run.body) || cap(run.ends) != len(run.ends) {
		t.Fatalf("a canceled ledger of %d documents keeps room for %d bytes and %d documents more",
			run.Len(), cap(run.body)-len(run.body), cap(run.ends)-len(run.ends))
	}
}

// TestDropDocs: a done job whose ledger holds every document drops its run
// and keeps the count, so its status reads as before while every span
// reports ErrRangeStored; a running job and a canceled one keep their runs.
func TestDropDocs(t *testing.T) {
	mgr := NewManager(New(2))
	defer mgr.Close()
	g := newGate()
	defer g.open()
	spec := newSumSpec(8)
	task := spec.Task
	spec.Task = func(ctx context.Context, i int, r *rng.Rand) (any, error) {
		if i >= 4 {
			if err := g.wait(ctx); err != nil {
				return nil, err
			}
		}
		return task(ctx, i, r)
	}
	job, err := mgr.SubmitJobOpts("", spec, 1, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if job.DropDocs() {
		t.Fatal("a running job dropped its run")
	}
	g.open()
	if err := waitJob(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	before := job.Status()
	if !job.DropDocs() || job.DropDocs() {
		t.Fatal("a done job's run was not dropped exactly once")
	}
	if st := job.Status(); st != before || st.Progress.Watermark != 8 {
		t.Fatalf("status after the drop = %+v, before %+v", st, before)
	}
	for lo := 0; lo < 8; lo++ {
		if _, err := job.ResultRange(lo, 8); !errors.Is(err, ErrRangeStored) {
			t.Fatalf("range [%d,8) after the drop: %v", lo, err)
		}
	}
	if _, err := job.ResultRange(0, 9); !errors.Is(err, ErrBadRange) {
		t.Fatalf("range past the tasks after the drop: %v", err)
	}
	job.mu.Lock()
	held := job.ledger.docs.Len()
	job.mu.Unlock()
	if held != 0 {
		t.Fatalf("the dropped ledger holds %d documents", held)
	}

	stuck := newSumSpec(8)
	closed := newGate() // never opened: tasks past 3 wait until the job is canceled
	stuck.Task = func(ctx context.Context, i int, r *rng.Rand) (any, error) {
		if i >= 4 {
			if err := closed.wait(ctx); err != nil {
				return nil, err
			}
		}
		return task(ctx, i, r)
	}
	canceled, err := mgr.SubmitJobOpts("", stuck, 2, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	canceled.Cancel()
	<-canceled.Done()
	if canceled.DropDocs() {
		t.Fatal("a canceled job dropped its run")
	}
}

// TestDropResult: only a done job drops its result, after which Result
// reports ErrResultStored and never a nil result; its status is unchanged.
func TestDropResult(t *testing.T) {
	mgr := NewManager(New(2))
	defer mgr.Close()
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
	job, err := mgr.SubmitJobOpts("", spec, 1, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if job.DropResult() {
		t.Fatal("a running job dropped its result")
	}
	if res, err := job.Result(); err == nil || errors.Is(err, ErrResultStored) {
		t.Fatalf("a running job's result: %v, %v", res, err)
	}
	g.open()
	if err := waitJob(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	if res, err := job.Result(); err != nil || res.(int) != wantSum(8) {
		t.Fatalf("result before the drop: %v, %v", res, err)
	}
	before := job.Status()
	if !job.DropResult() {
		t.Fatal("a done job kept its result")
	}
	if res, err := job.Result(); !errors.Is(err, ErrResultStored) || res != nil {
		t.Fatalf("result after the drop: %v, %v; want it in the store", res, err)
	}
	if st := job.Status(); st != before {
		t.Fatalf("status after the drop = %+v, before %+v", st, before)
	}

	stuck := newSumSpec(8)
	stuck.Task = func(ctx context.Context, i int, r *rng.Rand) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	canceled, err := mgr.SubmitJobOpts("", stuck, 2, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	canceled.Cancel()
	<-canceled.Done()
	if canceled.DropResult() {
		t.Fatal("a canceled job dropped a result")
	}
	if _, err := canceled.Result(); err == nil || errors.Is(err, ErrResultStored) {
		t.Fatalf("a canceled job's result: %v", err)
	}
}

// TestLedgerParkSizedToWhatItHolds: a document recorded above the watermark
// is parked in storage sized to the parked documents, not to the job:
// parking task 1 of a 1,048,576-task job allocates under 4 KiB. Recording
// task 0 then carries the watermark past both.
func TestLedgerParkSizedToWhatItHolds(t *testing.T) {
	const total = 1 << 20
	least := ^uint64(0) // the fewest bytes of five parkings: other goroutines may allocate meanwhile
	var l ledger
	for range 5 {
		l = ledger{}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := l.record(1, total, json.RawMessage(`1`)); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 4<<10 {
		t.Fatalf("parking one document of a %d-task job allocates %d bytes", total, least)
	}
	if err := l.record(0, total, json.RawMessage(`0`)); err != nil {
		t.Fatal(err)
	}
	if l.len() != 2 || len(l.park) != 0 || string(l.span(0, 2).Bytes()) != "0,1" {
		t.Fatalf("after task 0 the watermark is %d, %d parked, run %q", l.len(), len(l.park), l.span(0, 2).Bytes())
	}
}

// TestJobNoLedger: a spec without a TaskCoder has no ledger; range queries
// report ErrNoLedger and the status watermark stays zero.
func TestJobNoLedger(t *testing.T) {
	mgr := NewManager(New(2))
	defer mgr.Close()
	job, err := mgr.SubmitJobOpts("", Func{
		Name: "plain",
		N:    4,
		Task: func(_ context.Context, i int, _ *rng.Rand) (any, error) { return i, nil },
		Agg:  func(results []any) (any, error) { return len(results), nil },
	}, 1, SubmitOptions{})
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
	var prefill Docs
	for i := 0; i < 5; i++ {
		prefill = prefill.AppendDoc(fmt.Append(nil, 100+i))
	}
	job, err := mgr.SubmitJobOpts("", spec, 7, SubmitOptions{Prefill: prefill})
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	res, err := job.Result()
	if err != nil || res.(int) != wantSum(n) {
		t.Fatalf("result = %v (%v), want %d", res, err, wantSum(n))
	}
	for _, i := range spec.executed() {
		if i < prefill.Len() {
			t.Fatalf("prefilled task %d executed anyway", i)
		}
	}
	if len(spec.executed()) != n-prefill.Len() {
		t.Fatalf("executed %d tasks, want %d", len(spec.executed()), n-prefill.Len())
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
// and still aggregates, finishes, and serves its ledger; documents past its
// last task are ignored.
func TestSubmitJobOptsPrefillAll(t *testing.T) {
	const n = 6
	mgr := NewManager(New(2))
	defer mgr.Close()
	spec := newSumSpec(n)
	var prefill Docs
	for i := 0; i < n+2; i++ {
		prefill = prefill.AppendDoc(fmt.Append(nil, 100+i))
	}
	job, err := mgr.SubmitJobOpts("", spec, 7, SubmitOptions{Prefill: prefill})
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	res, err := job.Result()
	if err != nil || res.(int) != wantSum(n) {
		t.Fatalf("result = %v (%v)", res, err)
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
	prefill := Docs{}.AppendDoc([]byte(`100`)).AppendDoc([]byte(`"not an int"`))
	job, err := mgr.SubmitJobOpts("", spec, 7, SubmitOptions{Prefill: prefill})
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	res, err := job.Result()
	if err != nil || res.(int) != wantSum(n) {
		t.Fatalf("result = %v (%v), want %d", res, err, wantSum(n))
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
// the ledger as the coder encodes them, however the worker spelled them: a
// report of " 1296 " or "1296\n" is served as 1296, the bytes a local run
// records.
func TestRemoteReportFeedsLedger(t *testing.T) {
	e := New(1)
	mgr := NewManager(e)
	defer mgr.Close()
	job := startWireJob(t, mgr, slowSquares(32), 1)
	lease := leaseSoon(t, e, 8)
	tasks := lease.Tasks
	results := make(map[int]json.RawMessage, len(tasks))
	for k, task := range tasks {
		results[task] = json.RawMessage(fmt.Sprintf([]string{" %d ", "%d\n", "%d"}[k%3], task*task))
	}
	if _, err := e.ReportRemote(lease.Run, results); err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	if wm := job.Watermark(); wm != 32 {
		t.Fatalf("watermark = %d, want 32", wm)
	}
	for _, task := range tasks {
		docs, err := job.ResultRange(task, task+1)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprint(task * task); string(docs.Bytes()) != want {
			t.Fatalf("remote report %q served as %q, want %q", results[task], docs.Bytes(), want)
		}
	}
}

// FuzzLedgerDocs records documents (raw split at NUL bytes, at most 32 of
// them) in the order order shuffles them to, each one parked above the
// watermark until the watermark reaches it. After every record, each span
// of recorded documents reads as those documents joined by commas, through
// span, its copy past the watermark included; once all are recorded,
// every Slice(lo, hi) of the run holds documents lo..hi-1 joined by commas,
// every Doc(i) is document i, and nothing is left parked.
func FuzzLedgerDocs(f *testing.F) {
	f.Add([]byte("1\x00[2,3]\x00\"x\""), []byte{2, 0, 1})
	f.Add([]byte(`{"steps":3,"converged":true}`+"\x00"+`{"steps":12,"converged":false}`+"\x007\x008\x009"), []byte{4, 4, 4, 0})
	f.Add([]byte("a\x00\x00bb\x00ccc"), []byte{})
	f.Fuzz(func(t *testing.T, raw, order []byte) {
		docs := bytes.Split(raw, []byte{0})
		if len(docs) > 32 {
			docs = docs[:32]
		}
		n := len(docs)
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		for i := n - 1; i > 0 && len(order) > 0; i-- {
			k := int(order[i%len(order)]) % (i + 1)
			perm[i], perm[k] = perm[k], perm[i]
		}
		joined := func(lo, hi int) []byte { return bytes.Join(docs[lo:hi], []byte{','}) }
		var l ledger
		for _, task := range perm {
			if err := l.record(task, n, bytes.Clone(docs[task])); err != nil {
				t.Fatal(err)
			}
			for lo := 0; lo < n; lo++ {
				for hi := lo + 1; hi <= n && l.has(hi-1); hi++ {
					if got := l.span(lo, hi); got.Len() != hi-lo || !bytes.Equal(got.Bytes(), joined(lo, hi)) {
						t.Fatalf("span [%d,%d) = %q (%d documents), want %q", lo, hi, got.Bytes(), got.Len(), joined(lo, hi))
					}
				}
			}
		}
		for i, d := range l.park {
			if d != nil {
				t.Fatalf("document %d still parked after the watermark passed it", i)
			}
		}
		run := l.docs
		if run.Len() != n {
			t.Fatalf("the run holds %d documents, want %d", run.Len(), n)
		}
		for i := range n {
			if got := run.Doc(i); !bytes.Equal(got, docs[i]) || cap(got) != len(got) {
				t.Fatalf("Doc(%d) = %q (spare capacity %d), want %q", i, got, cap(got)-len(got), docs[i])
			}
			for hi := i; hi <= n; hi++ {
				if got := run.Slice(i, hi); got.Len() != hi-i || !bytes.Equal(got.Bytes(), joined(i, hi)) {
					t.Fatalf("Slice(%d, %d) = %q (%d documents), want %q", i, hi, got.Bytes(), got.Len(), joined(i, hi))
				}
			}
		}
	})
}

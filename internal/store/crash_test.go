package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gameofcoins/internal/engine"
)

// failWrites swaps the store's log for a read-only handle to it, so every
// write fails until the returned func puts the log back.
func failWrites(t *testing.T, s *File) (restore func()) {
	t.Helper()
	ro, err := os.Open(s.logPath())
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	log := s.f
	s.f = ro
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		s.f = log
		s.mu.Unlock()
		ro.Close()
	}
}

// TestFailedWriteLeavesNoGap: an op reaches the snapshot only once its line
// is in the log. A range write that fails lands nothing, so the job's next,
// longer span is logged from where the log's documents end and a reopen
// holds every document; a handle whose write failed is not held either.
func TestFailedWriteLeavesNoGap(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutJob(JobRecord{ID: "job-1", Tasks: 6, State: JobSubmitted}); err != nil {
		t.Fatal(err)
	}
	ledger := packed(docs(10, 11, 12, 13, 14, 15))
	if err := s.PutJobDocs("job-1", ledger.Slice(0, 2)); err != nil {
		t.Fatal(err)
	}
	restore := failWrites(t, s)
	if err := s.PutJobDocs("job-1", ledger.Slice(0, 4)); err == nil {
		t.Fatal("a range write to a read-only log succeeded")
	}
	if err := s.PutHandle("h-1", "job-1"); err == nil {
		t.Fatal("a handle write to a read-only log succeeded")
	}
	restore()
	if n := s.HeldDocs("job-1"); n != 2 {
		t.Fatalf("after a failed range write the store holds %d documents, want the 2 its log does", n)
	}
	if snap, err := s.Load(); err != nil || len(snap.Handles) != 0 || snap.NextHandle != 0 {
		t.Fatalf("after a failed handle write the store holds %v (next %d), %v", snap.Handles, snap.NextHandle, err)
	}
	if err := s.PutJobDocs("job-1", ledger); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, want := held(t, r, "job-1"), docs(10, 11, 12, 13, 14, 15); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened store holds %s, want %s", got, want)
	}
}

// storeView is what a store serves: its job records, handles, mint counter,
// each job's documents as ReadDocs reads them and each done record's result
// as ReadResult reads it.
type storeView struct {
	jobs    map[string]JobRecord
	handles map[string]string
	next    uint64
	docs    map[string]string
	results map[string]string
}

func viewOf(t *testing.T, s *File) storeView {
	t.Helper()
	snap, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	v := storeView{jobs: snap.Jobs, handles: snap.Handles, next: snap.NextHandle, docs: map[string]string{}, results: map[string]string{}}
	for id, rec := range snap.Jobs {
		if n := s.HeldDocs(id); n > 0 {
			body, err := s.ReadDocs(nil, id, 0, n)
			if err != nil {
				t.Fatal(err)
			}
			v.docs[id] = string(body)
		}
		res, err := s.ReadResult(nil, id)
		if rec.State == JobDone && err == nil {
			v.results[id] = string(res)
		} else if !errors.Is(err, ErrNoDocs) {
			t.Fatalf("%s, %s: ReadResult = %s, %v", id, rec.State, res, err)
		}
	}
	return v
}

// crashLog is a log as a crash could leave it, and the points at which the
// recording had written it up to a line boundary: the store's view then,
// and how many recorded calls had returned. calls counts those that had
// returned when the log was begun.
type crashLog struct {
	name   string
	bytes  []byte
	points map[int64]crashPoint // by the log's length
	calls  int
}

type crashPoint struct {
	view  storeView
	calls int
}

// TestCrashAtEveryWritePoint models process death at every write point of
// a recorded workload: learn_sweep-shaped jobs persisted in several range
// lines, one job past RangeDocCap, handles and releases, failed and
// canceled records, and a compaction. Each log — the one the compaction
// replaced, and the final one — is cut at every line boundary and once
// inside every line, and a copy reopened. OpenFile must succeed; each job's
// documents must be a prefix, at a document boundary, of every document it
// was sent; a done record's result must be the one written; a handle
// released before the cut must stay released; at a boundary where the
// recording stood, the store must serve exactly what the live store served
// then; and one more append after the reopen must read back the same after
// a second reopen.
func TestCrashAtEveryWritePoint(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	full := map[string][]byte{}    // every document each job was sent, joined
	results := map[string]string{} // each done record's result
	released := map[string]int{}   // each released handle, by the calls done when it was
	var logs []*crashLog
	cur := &crashLog{name: "first", points: map[int64]crashPoint{}}
	calls := 0
	mark := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		calls++
		info, err := os.Stat(s.logPath())
		if err != nil {
			t.Fatal(err)
		}
		cur.points[info.Size()] = crashPoint{view: viewOf(t, s), calls: calls}
	}
	mark(nil) // the empty log
	learnDoc := func(job, i int) []byte {
		return fmt.Appendf(nil, `{"steps":%d,"converged":%t}`, (job*7+i*13)%41, (job+i)%3 != 0)
	}
	ledgers := map[string]engine.Docs{}
	addJob := func(id string, tasks int, doc func(i int) []byte) {
		var run engine.Docs
		for i := range tasks {
			run = run.AppendDoc(doc(i))
		}
		ledgers[id] = run
		full[id] = run.Slice(0, min(tasks, RangeDocCap)).Bytes()
		mark(s.PutJob(JobRecord{ID: id, Key: "k-" + id, Kind: "learn_sweep", Seed: 7, Tasks: tasks, State: JobSubmitted}))
	}
	persist := func(id string, wm int) { mark(s.PutJobDocs(id, ledgers[id].Slice(0, wm))) }
	finish := func(id, state string) {
		rec := JobRecord{ID: id, Key: "k-" + id, Kind: "learn_sweep", Seed: 7, Tasks: ledgers[id].Len(), State: state}
		if state == JobDone {
			rec.Result = json.RawMessage(fmt.Sprintf(`{"total_runs":%d}`, ledgers[id].Len()))
			results[id] = string(rec.Result)
		} else {
			rec.Error = "boom"
		}
		mark(s.PutJob(rec))
	}
	release := func(h string) {
		mark(s.DeleteHandle(h))
		released[h] = calls
	}

	mark(s.PutGame("g-1", testGame(t)))
	for j, id := range []string{"job-1", "job-2", "job-3"} {
		addJob(id, 300, func(i int) []byte { return learnDoc(j, i) })
		mark(s.PutHandle(fmt.Sprintf("h-%d", j+1), id))
	}
	addJob("job-4", RangeDocCap+104, func(i int) []byte { return []byte(itoa(i)) })
	mark(s.PutHandle("h-4", "job-4"))
	for _, wm := range []int{100, 250} {
		for _, id := range []string{"job-1", "job-2", "job-3"} {
			persist(id, wm)
		}
	}
	for _, wm := range []int{1500, 3000, RangeDocCap + 104} {
		persist("job-4", wm)
	}
	persist("job-1", 300)
	finish("job-1", JobDone)
	persist("job-2", 300)
	finish("job-2", JobDone)
	finish("job-4", JobDone)
	release("h-2")
	addJob("job-5", 40, func(i int) []byte { return learnDoc(5, i) })
	persist("job-5", 20)
	finish("job-5", JobFailed)
	addJob("job-6", 40, func(i int) []byte { return learnDoc(6, i) })
	mark(s.PutHandle("h-6", "job-6"))
	persist("job-6", 30)
	finish("job-6", JobCanceled)
	release("h-6")

	// The compaction: keep the log it replaces.
	cur.bytes, err = os.ReadFile(s.logPath())
	if err != nil {
		t.Fatal(err)
	}
	logs = append(logs, cur)
	s.mu.Lock()
	err = s.compactLocked()
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	cur = &crashLog{name: "compacted", points: map[int64]crashPoint{}, calls: calls}
	mark(nil)
	persist("job-3", 300)
	finish("job-3", JobDone)
	release("h-1")
	addJob("job-7", 90, func(i int) []byte { return learnDoc(7, i) })
	mark(s.PutHandle("h-7", "job-7"))
	persist("job-7", 45)
	persist("job-7", 90)
	cur.bytes, err = os.ReadFile(s.logPath())
	if err != nil {
		t.Fatal(err)
	}
	logs = append(logs, cur)

	for _, l := range logs {
		for _, cut := range crashCuts(l.bytes) {
			checkCrash(t, l, cut, full, results, released)
		}
	}
}

// crashCuts returns every line boundary of log, and a point inside each
// line.
func crashCuts(log []byte) []int64 {
	cuts := []int64{0}
	for start := 0; start < len(log); {
		end := start + bytes.IndexByte(log[start:], '\n') + 1
		cuts = append(cuts, int64(start+(end-start)/2), int64(end))
		start = end
	}
	return cuts
}

// checkCrash reopens a copy of l cut at cut and checks it (see
// TestCrashAtEveryWritePoint).
func checkCrash(t *testing.T, l *crashLog, cut int64, full map[string][]byte, results map[string]string, released map[string]int) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logName), l.bytes[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenFile(dir)
	if err != nil {
		t.Fatalf("%s log cut at %d: %v", l.name, cut, err)
	}
	got := viewOf(t, r)
	// The recorded point at or before the cut: the calls whose lines the
	// cut log holds all of. Inside a compacted log's snapshot lines there
	// is none, and the compaction is what the cut log reflects.
	var at crashPoint
	var atSize int64 = -1
	for size, p := range l.points {
		if size <= cut && size > atSize {
			at, atSize = p, size
		}
	}
	if atSize == cut && !reflect.DeepEqual(got, at.view) {
		t.Fatalf("%s log cut at %d, a write point: the store serves %+v, the live store served %+v", l.name, cut, got, at.view)
	}
	for id, d := range got.docs {
		want := full[id]
		if !bytes.HasPrefix(want, []byte(d)) || len(d) < len(want) && want[len(d)] != ',' {
			t.Fatalf("%s log cut at %d: %s's documents %.60q are not a prefix of what it was sent", l.name, cut, id, d)
		}
	}
	for id, rec := range got.jobs {
		if rec.State == JobDone && got.results[id] != results[id] {
			t.Fatalf("%s log cut at %d: %s's result %s, written %s", l.name, cut, id, got.results[id], results[id])
		}
	}
	before := l.calls
	if atSize >= 0 {
		before = at.calls
	}
	for h := range got.handles {
		if k, ok := released[h]; ok && k <= before {
			t.Fatalf("%s log cut at %d: handle %s, released by then, is back", l.name, cut, h)
		}
	}
	// One more append, and a second reopen, read the same.
	more := packed(docs(1, 2, 3))
	if err := r.PutJob(JobRecord{ID: "job-99", State: JobSubmitted, Tasks: 3}); err != nil {
		t.Fatal(err)
	}
	if err := r.PutJobDocs("job-99", more); err != nil {
		t.Fatal(err)
	}
	want := viewOf(t, r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := OpenFile(dir)
	if err != nil {
		t.Fatalf("%s log cut at %d, appended to: %v", l.name, cut, err)
	}
	defer again.Close()
	if v := viewOf(t, again); !reflect.DeepEqual(v, want) {
		t.Fatalf("%s log cut at %d, appended to and reopened: %+v, want %+v", l.name, cut, v, want)
	}
	if want.docs["job-99"] != "1,2,3" || !maps.Equal(want.handles, got.handles) {
		t.Fatalf("%s log cut at %d: the append read back %+v", l.name, cut, want)
	}
}

package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gameofcoins/internal/engine"
	"gameofcoins/internal/jsonscan"
)

func docs(vals ...int) []json.RawMessage {
	out := make([]json.RawMessage, len(vals))
	for i, v := range vals {
		out[i] = json.RawMessage(itoa(v))
	}
	return out
}

// packed packs documents into one run.
func packed(docs []json.RawMessage) engine.Docs {
	var run engine.Docs
	for _, d := range docs {
		run = run.AppendDoc(d)
	}
	return run
}

// docList lists a run's documents.
func docList(run engine.Docs) []json.RawMessage {
	out := make([]json.RawMessage, run.Len())
	for i := range out {
		out[i] = run.Doc(i)
	}
	return out
}

// held returns the documents the store holds for a job, read through
// ReadDocs.
func held(t testing.TB, s Store, jobID string) []json.RawMessage {
	t.Helper()
	n := s.HeldDocs(jobID)
	if n == 0 {
		return nil
	}
	body, err := s.ReadDocs([]byte{'['}, jobID, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	arr := jsonscan.Scanner{Doc: append(body, ']')}
	if docs := arr.Elements(n); arr.Done() && len(docs) == n {
		return docs
	}
	t.Fatalf("%s's documents %q are not %d joined by commas", jobID, body, n)
	return nil
}

// openTemp opens a File store on a fresh directory, closed with the test.
func openTemp(t *testing.T) *File {
	t.Helper()
	s, err := OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestRangeFold: contiguous spans extend the job's document prefix,
// overlaps resolve first-writer-wins, covered spans add nothing, and only
// submitted and done jobs keep documents.
func TestRangeFold(t *testing.T) {
	s := openTemp(t)
	if err := s.PutJob(JobRecord{ID: "job-1", Tasks: 10, State: JobSubmitted}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutJobRange("job-1", 0, docs(10, 11)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutJobRange("job-1", 2, docs(12, 13, 14)); err != nil {
		t.Fatal(err)
	}
	// Overlap: tasks 3 and 4 are already recorded; only task 5's document
	// (here deliberately different bytes for 3 and 4) may land.
	if err := s.PutJobRange("job-1", 3, docs(99, 99, 15)); err != nil {
		t.Fatal(err)
	}
	// Fully covered span: dropped outright.
	if err := s.PutJobRange("job-1", 1, docs(99, 99)); err != nil {
		t.Fatal(err)
	}
	// Ranges for unknown jobs are dropped, not stored.
	if err := s.PutJobRange("job-9", 0, docs(1)); err != nil {
		t.Fatal(err)
	}
	want := docs(10, 11, 12, 13, 14, 15)
	if got := held(t, s, "job-1"); !reflect.DeepEqual(got, want) || s.HeldDocs("job-1") != len(want) {
		t.Fatalf("docs = %s (HeldDocs counts %d), want %s", got, s.HeldDocs("job-1"), want)
	}
	if n := s.HeldDocs("job-9"); n != 0 {
		t.Fatal("range for an unknown job was stored")
	}
	// ReadDocs's bytes are the caller's to keep: writing to them changes
	// nothing the store holds.
	mine, err := s.ReadDocs(nil, "job-1", 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	clear(mine)
	if err := s.PutJobRange("job-1", 6, docs(16)); err != nil {
		t.Fatal(err)
	}
	want = docs(10, 11, 12, 13, 14, 15, 16)
	if got := held(t, s, "job-1"); !reflect.DeepEqual(got, want) {
		t.Fatalf("after a caller wrote over its read, docs = %s, want %s", got, want)
	}
	// A done record keeps its documents — they are what makes ?range
	// fetches and resumed downloads work after a restart.
	if err := s.PutJob(JobRecord{ID: "job-1", Tasks: 10, State: JobDone, Result: json.RawMessage(`1`)}); err != nil {
		t.Fatal(err)
	}
	if got := held(t, s, "job-1"); !reflect.DeepEqual(got, want) {
		t.Fatalf("done job's docs = %s, want %s", got, want)
	}
	// A failed record clears them: there is no result they could serve.
	if err := s.PutJob(JobRecord{ID: "job-1", Tasks: 10, State: JobFailed, Error: "boom"}); err != nil {
		t.Fatal(err)
	}
	if n := s.HeldDocs("job-1"); n != 0 {
		t.Fatalf("failed job kept %d docs", n)
	}
	if _, err := s.ReadDocs(nil, "job-1", 0, 1); !errors.Is(err, ErrNoDocs) {
		t.Fatalf("reading a failed job's documents: %v, want ErrNoDocs", err)
	}
}

// TestRangeCompactionCap: monotonic watermark-order growth (what the
// server's watcher emits) saturates at RangeDocCap documents per job: the
// low prefix survives, later spans add nothing.
func TestRangeCompactionCap(t *testing.T) {
	s := openTemp(t)
	if err := s.PutJob(JobRecord{ID: "job-1", Tasks: 2 * RangeDocCap, State: JobSubmitted}); err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < RangeDocCap+512; lo += 512 {
		if err := s.PutJobRange("job-1", lo, seqDocs(lo, 512)); err != nil {
			t.Fatal(err)
		}
	}
	if want := seqDocs(0, RangeDocCap); !reflect.DeepEqual(held(t, s, "job-1"), want) {
		t.Fatalf("capped monotonic growth kept %d docs, want tasks [0,%d)", s.HeldDocs("job-1"), RangeDocCap)
	}
}

// TestRangeOpsThatLandNothingAreNotLogged: a range op the snapshot keeps
// none of (past the document cap, for a job with no live record, or
// starting past the end of the job's documents) writes no log line and
// does not count toward compaction.
func TestRangeOpsThatLandNothingAreNotLogged(t *testing.T) {
	s := openTemp(t)
	if err := s.PutJob(JobRecord{ID: "job-1", Tasks: 2 * RangeDocCap, State: JobSubmitted}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutJob(JobRecord{ID: "job-2", Tasks: 10, State: JobSubmitted}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutJobRange("job-1", 0, seqDocs(0, RangeDocCap)); err != nil {
		t.Fatal(err)
	}
	size := func() int64 {
		t.Helper()
		info, err := os.Stat(filepath.Join(s.dir, logName))
		if err != nil {
			t.Fatal(err)
		}
		return info.Size()
	}
	before, ops := size(), s.ops
	if err := s.PutJobRange("job-1", RangeDocCap, docs(2, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutJobRange("job-9", 0, docs(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutJobRange("job-2", 3, docs(13)); err != nil {
		t.Fatal(err)
	}
	if after := size(); after != before || s.ops != ops {
		t.Fatalf("log grew from %d to %d bytes, %d to %d ops", before, after, ops, s.ops)
	}
	if n := s.HeldDocs("job-1"); n != RangeDocCap {
		t.Fatalf("job-1 holds %d docs", n)
	}
}

// TestPutJobDocsLogsTheDelta: the server's watcher sends views of a job's
// result ledger from task 0. The store logs one line from the old end
// holding only the documents past it — the line a span from there writes —
// and keeps nothing of the caller's run: what it serves afterwards is what
// its log holds, whatever the caller's body holds later.
func TestPutJobDocsLogsTheDelta(t *testing.T) {
	s := openTemp(t)
	if err := s.PutJob(JobRecord{ID: "job-1", Tasks: 6, State: JobSubmitted}); err != nil {
		t.Fatal(err)
	}
	ledger := packed(docs(10, 11, 12, 13, 14, 15))
	for _, wm := range []int{2, 5, 4, 6} {
		if err := s.PutJobDocs("job-1", ledger.Slice(0, wm)); err != nil {
			t.Fatal(err)
		}
	}
	copy(ledger.Bytes(), "99,99,99,99,99,99")
	if got, want := held(t, s, "job-1"), docs(10, 11, 12, 13, 14, 15); !reflect.DeepEqual(got, want) {
		t.Fatalf("the store serves %s after its caller wrote over its run, want %s", got, want)
	}
	log, err := os.ReadFile(filepath.Join(s.dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	want := `{"op":"range","job_id":"job-1","results":[10,11]}
{"op":"range","job_id":"job-1","lo":2,"results":[12,13,14]}
{"op":"range","job_id":"job-1","lo":5,"results":[15]}
`
	if _, ranges, _ := bytes.Cut(log, []byte("\n")); string(ranges) != want {
		t.Fatalf("range lines:\n%s\nwant:\n%s", ranges, want)
	}
}

// seqDocs returns the documents of n consecutive tasks from lo: task i's
// document is i.
func seqDocs(lo, n int) []json.RawMessage {
	out := make([]json.RawMessage, n)
	for i := range out {
		out[i] = json.RawMessage(itoa(lo + i))
	}
	return out
}

// TestFileRangeRoundTrip: a job's documents survive close/reopen, fold into
// one prefix across the replay, and vanish when a failed record lands.
func TestFileRangeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutJob(JobRecord{ID: "job-1", Kind: "toy_sum", Tasks: 6, State: JobSubmitted}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutJob(JobRecord{ID: "job-2", Kind: "toy_sum", Tasks: 4, State: JobSubmitted}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutJobRange("job-1", 0, docs(10, 11)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutJobRange("job-1", 2, docs(12)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutJobRange("job-2", 0, docs(20)); err != nil {
		t.Fatal(err)
	}
	// job-2 finishes: its documents ride along with the done record, so
	// range fetches keep working after the reopen.
	if err := s.PutJob(JobRecord{ID: "job-2", Kind: "toy_sum", Tasks: 4, State: JobDone, Result: json.RawMessage(`41`)}); err != nil {
		t.Fatal(err)
	}
	// job-3 fails: its documents are dead weight and must not survive.
	if err := s.PutJob(JobRecord{ID: "job-3", Kind: "toy_sum", Tasks: 4, State: JobSubmitted}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutJobRange("job-3", 0, docs(30)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutJob(JobRecord{ID: "job-3", Kind: "toy_sum", Tasks: 4, State: JobFailed, Error: "boom"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, want := held(t, s2, "job-1"), docs(10, 11, 12); !reflect.DeepEqual(got, want) {
		t.Fatalf("job-1 docs = %s, want %s", got, want)
	}
	if got := held(t, s2, "job-2"); !reflect.DeepEqual(got, docs(20)) {
		t.Fatalf("done job's docs did not survive the restart: %s", got)
	}
	if n := s2.HeldDocs("job-3"); n != 0 {
		t.Fatal("failed job's docs survived the restart")
	}
}

// TestFileRangeCompaction: compaction writes a job's appended spans as one
// range line; the compacted log replays to the same documents.
func TestFileRangeCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = compactMinOps + 48
	if err := s.PutJob(JobRecord{ID: "job-1", Kind: "toy_sum", Tasks: n + 16, State: JobSubmitted}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := s.PutJobRange("job-1", i, docs(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.ops >= compactMinOps {
		t.Fatalf("log never compacted: %d pending ops", s.ops)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := held(t, s2, "job-1")
	if len(got) != n {
		t.Fatalf("%d docs after compaction, want %d", len(got), n)
	}
	for i, d := range got {
		if string(d) != itoa(100+i) {
			t.Fatalf("task %d doc = %s, want %d", i, d, 100+i)
		}
	}
}

// TestFileRangeTornTail: a crash mid-append of a range op leaves a partial
// final line; open succeeds, every document before it is intact, and the
// torn span is simply gone (the next life recomputes those tasks).
func TestFileRangeTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutJob(JobRecord{ID: "job-1", Kind: "toy_sum", Tasks: 8, State: JobSubmitted}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutJobRange("job-1", 0, docs(10, 11, 12)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"range","job_id":"job-1","lo":3,"results":[13,`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := OpenFile(dir)
	if err != nil {
		t.Fatalf("torn range tail rejected: %v", err)
	}
	defer s2.Close()
	if got, want := held(t, s2, "job-1"), docs(10, 11, 12); !reflect.DeepEqual(got, want) {
		t.Fatalf("docs = %s, want %s", got, want)
	}
}

// TestDropExcessJobsGCsRanges: evicting a job record garbage-collects its
// documents along with handles.
func TestDropExcessJobsGCsRanges(t *testing.T) {
	snap := emptySnapshot()
	snap.Jobs["job-1"] = JobRecord{ID: "job-1", State: JobSubmitted}
	snap.runs["job-1"] = run{n: 1, size: 1, ext: []extent{{n: 1, size: 1, mem: []byte("1")}}}
	snap.runs["job-gone"] = run{n: 1, size: 1, ext: []extent{{n: 1, size: 1, mem: []byte("2")}}}
	snap.dropExcessJobs()
	if _, ok := snap.runs["job-1"]; !ok {
		t.Fatal("live submitted job's docs dropped")
	}
	if _, ok := snap.runs["job-gone"]; ok {
		t.Fatal("evicted job's docs survived GC")
	}
}

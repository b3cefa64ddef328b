package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func docs(vals ...int) []json.RawMessage {
	out := make([]json.RawMessage, len(vals))
	for i, v := range vals {
		out[i] = json.RawMessage(itoa(v))
	}
	return out
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

// TestRangeFold: adjacent spans fold into one record, overlaps resolve
// first-writer-wins, and only submitted jobs accumulate ranges.
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
	// An island beyond the contiguous prefix stays its own record.
	if err := s.PutJobRange("job-1", 8, docs(18)); err != nil {
		t.Fatal(err)
	}
	// Ranges for unknown jobs are dropped, not stored.
	if err := s.PutJobRange("job-9", 0, docs(1)); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	want := []RangeRecord{
		{Lo: 0, Results: docs(10, 11, 12, 13, 14, 15)},
		{Lo: 8, Results: docs(18)},
	}
	if !reflect.DeepEqual(snap.Ranges["job-1"], want) {
		t.Fatalf("ranges = %+v, want %+v", snap.Ranges["job-1"], want)
	}
	if _, ok := snap.Ranges["job-9"]; ok {
		t.Fatal("range for an unknown job was stored")
	}
	// A done record keeps its spans — they are what makes ?range fetches
	// and resumed downloads work after a restart.
	if err := s.PutJob(JobRecord{ID: "job-1", Tasks: 10, State: JobDone, Result: json.RawMessage(`1`)}); err != nil {
		t.Fatal(err)
	}
	snap, err = s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap.Ranges["job-1"], want) {
		t.Fatalf("done job's ranges = %+v, want %+v", snap.Ranges["job-1"], want)
	}
	// A failed record clears them: there is no result they could serve.
	if err := s.PutJob(JobRecord{ID: "job-1", Tasks: 10, State: JobFailed, Error: "boom"}); err != nil {
		t.Fatal(err)
	}
	snap, err = s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Ranges) != 0 {
		t.Fatalf("failed job kept its ranges: %+v", snap.Ranges)
	}
}

// TestRangeCompactionCap: at most rangeDocCap per-task documents are kept
// per job, trimmed from the highest indices so the resumable low prefix
// survives.
func TestRangeCompactionCap(t *testing.T) {
	s := openTemp(t)
	if err := s.PutJob(JobRecord{ID: "job-1", Tasks: 2 * rangeDocCap, State: JobSubmitted}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutJobRange("job-1", 0, seqDocs(0, rangeDocCap-1)); err != nil {
		t.Fatal(err)
	}
	// An island that takes the job one document past the cap loses its
	// last document...
	if err := s.PutJobRange("job-1", rangeDocCap+8, seqDocs(rangeDocCap+8, 2)); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	want := []RangeRecord{
		{Lo: 0, Results: seqDocs(0, rangeDocCap-1)},
		{Lo: rangeDocCap + 8, Results: seqDocs(rangeDocCap+8, 1)},
	}
	if !reflect.DeepEqual(snap.Ranges["job-1"], want) {
		t.Fatalf("ranges = %s, want %s", spans(snap.Ranges["job-1"]), spans(want))
	}
	// ...and one more island, with the job at the cap, is trimmed away.
	if err := s.PutJobRange("job-1", rangeDocCap+20, seqDocs(rangeDocCap+20, 3)); err != nil {
		t.Fatal(err)
	}
	if snap, err = s.Load(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap.Ranges["job-1"], want) {
		t.Fatalf("ranges = %s, want %s", spans(snap.Ranges["job-1"]), spans(want))
	}

	// Monotonic watermark-order growth (what the server's watcher emits)
	// saturates at the cap: the low prefix survives, later spans trim away.
	mono := openTemp(t)
	if err := mono.PutJob(JobRecord{ID: "job-1", Tasks: 2 * rangeDocCap, State: JobSubmitted}); err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < rangeDocCap+512; lo += 512 {
		if err := mono.PutJobRange("job-1", lo, seqDocs(lo, 512)); err != nil {
			t.Fatal(err)
		}
	}
	if snap, err = mono.Load(); err != nil {
		t.Fatal(err)
	}
	want = []RangeRecord{{Lo: 0, Results: seqDocs(0, rangeDocCap)}}
	if !reflect.DeepEqual(snap.Ranges["job-1"], want) {
		t.Fatalf("capped monotonic growth = %s, want %s", spans(snap.Ranges["job-1"]), spans(want))
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

// spans renders range records as [lo,end) spans for failure messages.
func spans(recs []RangeRecord) string {
	var b strings.Builder
	for _, r := range recs {
		fmt.Fprintf(&b, "[%d,%d)", r.Lo, r.End())
	}
	return b.String()
}

// TestFileRangeRoundTrip: range records survive close/reopen, fold across
// the replay, and vanish when the job's terminal record lands.
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
	// job-2 finishes: its spans ride along with the done record, so range
	// fetches keep working after the reopen.
	if err := s.PutJob(JobRecord{ID: "job-2", Kind: "toy_sum", Tasks: 4, State: JobDone, Result: json.RawMessage(`41`)}); err != nil {
		t.Fatal(err)
	}
	// job-3 fails: its spans are dead weight and must not survive.
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
	snap, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	want := []RangeRecord{{Lo: 0, Results: docs(10, 11, 12)}}
	if !reflect.DeepEqual(snap.Ranges["job-1"], want) {
		t.Fatalf("job-1 ranges = %+v, want %+v", snap.Ranges["job-1"], want)
	}
	if !reflect.DeepEqual(snap.Ranges["job-2"], []RangeRecord{{Lo: 0, Results: docs(20)}}) {
		t.Fatalf("done job's ranges did not survive the restart: %+v", snap.Ranges["job-2"])
	}
	if _, ok := snap.Ranges["job-3"]; ok {
		t.Fatal("failed job's ranges survived the restart")
	}
}

// TestFileRangeCompaction: compaction folds a job's appended spans into its
// live records and drops spans of terminal jobs; the compacted log replays
// to the same state.
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
	snap, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	recs := snap.Ranges["job-1"]
	if len(recs) != 1 || recs[0].Lo != 0 || len(recs[0].Results) != n {
		t.Fatalf("ranges after compaction = %+v", recs)
	}
	for i, d := range recs[0].Results {
		if string(d) != itoa(100+i) {
			t.Fatalf("task %d doc = %s, want %d", i, d, 100+i)
		}
	}
}

// TestFileRangeTornTail: a crash mid-append of a range record leaves a
// partial final line; open succeeds, every span before it is intact, and the
// torn record is simply gone (the next life recomputes those tasks).
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
	snap, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	want := []RangeRecord{{Lo: 0, Results: docs(10, 11, 12)}}
	if !reflect.DeepEqual(snap.Ranges["job-1"], want) {
		t.Fatalf("ranges = %+v, want %+v", snap.Ranges["job-1"], want)
	}
}

// TestDropExcessJobsGCsRanges: evicting a job record (or finding its state
// terminal) garbage-collects its range spans along with handles.
func TestDropExcessJobsGCsRanges(t *testing.T) {
	snap := emptySnapshot()
	snap.Jobs["job-1"] = JobRecord{ID: "job-1", State: JobSubmitted}
	snap.Ranges["job-1"] = []RangeRecord{{Lo: 0, Results: docs(1)}}
	snap.Ranges["job-gone"] = []RangeRecord{{Lo: 0, Results: docs(2)}}
	snap.dropExcessJobs()
	if _, ok := snap.Ranges["job-1"]; !ok {
		t.Fatal("live submitted job's ranges dropped")
	}
	if _, ok := snap.Ranges["job-gone"]; ok {
		t.Fatal("evicted job's ranges survived GC")
	}
}

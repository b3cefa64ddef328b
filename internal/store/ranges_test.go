package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
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

// TestRangeCompactionCap: MaxRangeDocs bounds the per-task documents kept
// per job, trimming from the highest indices so the resumable low prefix
// survives; negative disables the cap.
func TestRangeCompactionCap(t *testing.T) {
	s := openTemp(t)
	s.MaxRangeDocs = 4
	if err := s.PutJob(JobRecord{ID: "job-1", Tasks: 10, State: JobSubmitted}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutJobRange("job-1", 0, docs(10, 11, 12)); err != nil {
		t.Fatal(err)
	}
	// An island entirely above the cap is trimmed away...
	if err := s.PutJobRange("job-1", 8, docs(18, 19)); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	want := []RangeRecord{
		{Lo: 0, Results: docs(10, 11, 12)},
		{Lo: 8, Results: docs(18)},
	}
	if !reflect.DeepEqual(snap.Ranges["job-1"], want) {
		t.Fatalf("ranges = %+v, want %+v", snap.Ranges["job-1"], want)
	}
	// Monotonic watermark-order growth (what the server's watcher emits)
	// saturates at the cap: the low prefix survives, later spans trim away.
	mono := openTemp(t)
	mono.MaxRangeDocs = 4
	if err := mono.PutJob(JobRecord{ID: "job-1", Tasks: 10, State: JobSubmitted}); err != nil {
		t.Fatal(err)
	}
	if err := mono.PutJobRange("job-1", 0, docs(10, 11, 12)); err != nil {
		t.Fatal(err)
	}
	if err := mono.PutJobRange("job-1", 3, docs(13, 14, 15)); err != nil {
		t.Fatal(err)
	}
	if err := mono.PutJobRange("job-1", 6, docs(16, 17)); err != nil {
		t.Fatal(err)
	}
	snap, err = mono.Load()
	if err != nil {
		t.Fatal(err)
	}
	want = []RangeRecord{{Lo: 0, Results: docs(10, 11, 12, 13)}}
	if !reflect.DeepEqual(snap.Ranges["job-1"], want) {
		t.Fatalf("capped monotonic growth = %+v, want %+v", snap.Ranges["job-1"], want)
	}

	unbounded := openTemp(t)
	unbounded.MaxRangeDocs = -1
	if err := unbounded.PutJob(JobRecord{ID: "job-1", Tasks: 10_000, State: JobSubmitted}); err != nil {
		t.Fatal(err)
	}
	big := make([]json.RawMessage, DefaultMaxRangeDocs+8)
	for i := range big {
		big[i] = json.RawMessage(`1`)
	}
	if err := unbounded.PutJobRange("job-1", 0, big); err != nil {
		t.Fatal(err)
	}
	snap, err = unbounded.Load()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(snap.Ranges["job-1"][0].Results); n != len(big) {
		t.Fatalf("uncapped store trimmed to %d docs", n)
	}
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
	s.CompactMinOps = 8
	if err := s.PutJob(JobRecord{ID: "job-1", Kind: "toy_sum", Tasks: 64, State: JobSubmitted}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 48; i++ {
		if err := s.PutJobRange("job-1", i, docs(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.ops > 48 {
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
	if len(recs) != 1 || recs[0].Lo != 0 || len(recs[0].Results) != 48 {
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
	snap.dropExcessJobs(10)
	if _, ok := snap.Ranges["job-1"]; !ok {
		t.Fatal("live submitted job's ranges dropped")
	}
	if _, ok := snap.Ranges["job-gone"]; ok {
		t.Fatal("evicted job's ranges survived GC")
	}
}

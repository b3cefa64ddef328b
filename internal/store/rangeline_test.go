package store

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"gameofcoins/internal/core"
	"gameofcoins/internal/engine"
	"gameofcoins/internal/rng"
)

// TestRangeRecordCount: the range-record count File keeps for its
// compaction trigger equals a recount of the snapshot's ranges after every
// append — through folds, an overlap, a covered span, islands, the per-job
// document cap, an unknown job, a failed job, an over-cap compaction that
// evicts jobs holding ranges, and a replay of the compacted log.
func TestRangeRecordCount(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, recs := range s.snap.Ranges {
			n += len(recs)
		}
		if s.ranges != n {
			t.Fatalf("kept range-record count %d, recount %d", s.ranges, n)
		}
	}
	check(s.PutJob(JobRecord{ID: "job-1", Tasks: 2 * rangeDocCap, State: JobSubmitted}))
	check(s.PutJob(JobRecord{ID: "job-2", Tasks: 10, State: JobSubmitted}))
	check(s.PutJobRange("job-1", 0, docs(10, 11)))
	check(s.PutJobRange("job-1", 2, docs(12, 13, 14)))
	check(s.PutJobRange("job-1", 3, docs(99, 99, 15)))
	check(s.PutJobRange("job-1", 1, docs(99, 99)))
	check(s.PutJobRange("job-1", 8, docs(18)))
	check(s.PutJobRange("job-1", 20, seqDocs(20, rangeDocCap))) // trimmed to the cap
	check(s.PutJobRange("job-1", rangeDocCap+40, docs(1)))      // trimmed away whole
	check(s.PutJobRange("job-2", 0, docs(20)))
	check(s.PutJobRange("job-2", 5, docs(25)))
	check(s.PutJobRange("job-9", 0, docs(1)))
	if s.ranges != 5 {
		t.Fatalf("%d range records before the failure, want 5", s.ranges)
	}
	check(s.PutJob(JobRecord{ID: "job-2", Tasks: 10, State: JobFailed, Error: "boom"}))
	// Done jobs with a range record each, until the job table overshoots
	// the retention cap and compaction evicts the oldest of them.
	for i := 3; ; i++ {
		id := fmt.Sprintf("job-%d", i)
		before := s.ranges
		check(s.PutJob(JobRecord{ID: id, Tasks: 4, State: JobDone, Result: json.RawMessage(`1`)}))
		if s.ranges < before {
			break
		}
		check(s.PutJobRange(id, 0, docs(i, i+1)))
	}
	if len(s.snap.Jobs) != engine.DefaultRetention || s.ops != 0 {
		t.Fatalf("after the over-cap compaction: %d jobs, %d pending ops", len(s.snap.Jobs), s.ops)
	}
	check(s.PutJobRange("job-1", 9, docs(19)))
	want := s.ranges
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = OpenFile(dir); err != nil {
		t.Fatal(err)
	}
	check(nil)
	if s.ranges != want {
		t.Fatalf("replayed log holds %d range records, want %d", s.ranges, want)
	}
}

// FuzzRangeLineMatchesMarshal: for any job ID, lo and document list (docs
// split at NUL bytes, which no JSON document holds), the store's range line
// equals json.Marshal's encoding of the op byte for byte, or both fail.
func FuzzRangeLineMatchesMarshal(f *testing.F) {
	for _, seed := range []struct {
		id   string
		lo   int
		docs string
	}{
		{"job-1", 0, `{"steps":3,"converged":true}` + "\x00" + `{"steps":0,"converged":false}`},
		{"job-2", 7, "1\x002\x003"},
		{"job-3", -4, `{"a": 1}` + "\x00" + ` 2` + "\x00" + "[1,\n2]\t"},
		{"job-4", 1, `"a b"` + "\x00" + `"\t"`},
		{"<job&5>", 2, `"<b>&"` + "\x00" + `" "`},
		{"job-\u2028", 6, "\"a\u2028b\"\x00[\"\u2029\"]"},
		{"job-10", 8, "\"\u2027\u202a\"\x00\"\u00e2\""},
		{"job-\"6\"", 0, `"say \"hi\""` + "\x00" + `{"k\"":"v\\"}`},
		{"job-7\u2028 ", 3, `{` + "\x00" + `tru` + "\x00" + `"unterminated`},
		{"job-8", 5, `1,2`},
		{"", 0, ""},
		{"\xff\x00", 9, "null\x00\x00[]"},
	} {
		f.Add(seed.id, seed.lo, seed.docs)
	}
	f.Fuzz(func(t *testing.T, id string, lo int, raw string) {
		var docs []json.RawMessage
		if raw != "" {
			for _, d := range strings.Split(raw, "\x00") {
				docs = append(docs, json.RawMessage(d))
			}
		}
		want, werr := json.Marshal(op{Op: "range", JobID: id, Lo: lo, Results: docs})
		got, gerr := rangeLine(id, lo, docs)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("rangeLine error %v, json.Marshal error %v", gerr, werr)
		}
		if werr == nil && !bytes.Equal(got, want) {
			t.Fatalf("rangeLine\n got %q\nwant %q", got, want)
		}
	})
}

// BenchmarkPutJobRange appends persist-stream's range shape — the 1,200
// task documents of one 8×2 learn_sweep job, as the engine encodes them —
// to a File store, one log line per op.
func BenchmarkPutJobRange(b *testing.B) {
	spec := engine.LearnSweep{Gen: core.GenSpec{Miners: 8, Coins: 2}, Runs: 200}
	base := rng.New(7)
	docs := make([]json.RawMessage, spec.Tasks())
	for i := range docs {
		out, err := spec.RunTask(context.Background(), i, base.Fork(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if docs[i], err = spec.EncodeTaskResult(out); err != nil {
			b.Fatal(err)
		}
	}
	s, err := OpenFile(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if err := s.PutJob(JobRecord{ID: "job-1", Tasks: len(docs), State: JobSubmitted}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if err := s.PutJobRange("job-1", 0, docs); err != nil {
			b.Fatal(err)
		}
	}
}

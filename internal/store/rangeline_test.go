package store

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"gameofcoins/internal/core"
	"gameofcoins/internal/engine"
	"gameofcoins/internal/rng"
)

// FuzzRangeLineMatchesMarshal: for any job ID, lo and document list (docs
// split at NUL bytes, which no JSON document holds), the range line
// PutJobRange writes — its documents packed by packDocs, then rangeLine —
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
		var got []byte
		run, gerr := packDocs(docs)
		if gerr == nil {
			got, gerr = rangeLine(nil, id, lo, run.Bytes())
		}
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("rangeLine error %v, json.Marshal error %v", gerr, werr)
		}
		if werr == nil && !bytes.Equal(got, want) {
			t.Fatalf("rangeLine\n got %q\nwant %q", got, want)
		}
	})
}

// learnDocs returns persist-stream's range shape: the 1,200 task documents
// of one 8×2 learn_sweep job, as the engine encodes them.
func learnDocs(tb testing.TB) []json.RawMessage {
	spec := engine.LearnSweep{Gen: core.GenSpec{Miners: 8, Coins: 2}, Runs: 200}
	base := rng.New(7)
	docs := make([]json.RawMessage, spec.Tasks())
	for i := range docs {
		out, err := spec.RunTask(context.Background(), i, base.Fork(uint64(i)))
		if err != nil {
			tb.Fatal(err)
		}
		if docs[i], err = spec.EncodeTaskResult(out); err != nil {
			tb.Fatal(err)
		}
	}
	return docs
}

// raceEnabled reports a -race build (race_test.go), whose sync.Pool drops
// items at random: json.Marshal's encoder state then costs an allocation.
var raceEnabled bool

// TestRangeLineAllocs: a range line costs three allocations however many
// documents its packed run holds: json.Marshal's boxed job ID and its
// encoding, and the line.
func TestRangeLineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	run := packed(learnDocs(t))
	if allocs := testing.AllocsPerRun(20, func() { _, _ = rangeLine(nil, "job-1", 0, run.Bytes()) }); allocs > 3 {
		t.Fatalf("the range line of %d documents allocates %v times, want at most 3", run.Len(), allocs)
	}
}

// BenchmarkPutJobRange appends persist-stream's range shape (learnDocs) to
// a File store, one log line per op, through PutJobRange, which checks and
// packs the documents. Each iteration first forgets the job's documents, or
// the span would land nothing and write no line.
func BenchmarkPutJobRange(b *testing.B) {
	docs := learnDocs(b)
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
		s.mu.Lock()
		delete(s.snap.runs, "job-1")
		s.mu.Unlock()
		if err := s.PutJobRange("job-1", 0, docs); err != nil {
			b.Fatal(err)
		}
	}
}

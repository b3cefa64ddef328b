package store

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gameofcoins/internal/core"
	"gameofcoins/internal/engine"
)

// TestReplaySlicesRangeLines: replay records where each range line's
// documents lie in the log and copies none of them: decoding a range line
// of up to 256 documents costs the job ID and one copy of its document
// ends, however many it holds, and the documents read back are the lines'.
func TestReplaySlicesRangeLines(t *testing.T) {
	dir := t.TempDir()
	log := `{"op":"job","job":{"id":"job-1","kind":"toy","seed":1,"tasks":4,"state":"submitted"}}
{"op":"range","job_id":"job-1","results":[10,{"a":[1,2]}]}
{"op":"range","job_id":"job-1","lo":2,"results":[12,"x"]}
`
	if err := os.WriteFile(filepath.Join(dir, logName), []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got := held(t, s, "job-1")
	if want := []json.RawMessage{json.RawMessage(`10`), json.RawMessage(`{"a":[1,2]}`), json.RawMessage(`12`), json.RawMessage(`"x"`)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("docs = %s, want %s", got, want)
	}
	s.mu.RLock()
	r := s.snap.runs["job-1"]
	s.mu.RUnlock()
	if len(r.ext) != 2 || r.ext[0].mem != nil || r.ext[1].mem != nil {
		t.Fatalf("replay kept %+v, want two extents in the log", r.ext)
	}
	line, err := rangeLine(nil, "job-1", 0, packed(seqDocs(0, 200)).Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() { _, _ = scanOp(line) }); allocs > 2 {
		t.Fatalf("decoding a range line of 200 documents allocates %v times, want at most 2", allocs)
	}
}

// TestHandWrittenLineStaysInMemoryUntilCompaction: a range line scanOp
// does not take — one with whitespace between its documents, as a person
// might write it — is decoded by json.Unmarshal, and its documents, packed,
// stay in memory until the next compaction writes them to the log as one
// range line from which they are read like any other.
func TestHandWrittenLineStaysInMemoryUntilCompaction(t *testing.T) {
	dir := t.TempDir()
	log := `{"op":"job","job":{"id":"job-1","kind":"toy","seed":1,"tasks":5,"state":"done","result":1}}
{"op":"range","job_id":"job-1","results":[10,11]}
{"op":"range","job_id":"job-1","lo":2, "results":[ 12 , {"a" : [1, "x,y"]} ]}
{"op":"range","job_id":"job-1","lo":4,"results":[14]}
`
	if err := os.WriteFile(filepath.Join(dir, logName), []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := `10,11,12,{"a" : [1, "x,y"]},14`
	inMemory := func() int {
		s.mu.RLock()
		defer s.mu.RUnlock()
		n := 0
		for _, e := range s.snap.runs["job-1"].ext {
			if e.mem != nil {
				n++
			}
		}
		return n
	}
	check := func(when string) {
		t.Helper()
		body, err := s.ReadDocs(nil, "job-1", 0, 5)
		if err != nil || string(body) != want {
			t.Fatalf("%s: documents %s, %v; want %s", when, body, err, want)
		}
		if body, err := s.ReadDocs(nil, "job-1", 3, 4); err != nil || string(body) != `{"a" : [1, "x,y"]}` {
			t.Fatalf("%s: document 3 = %s, %v", when, body, err)
		}
	}
	check("after replay")
	if n := inMemory(); n != 1 {
		t.Fatalf("after replay %d extents are in memory, want the hand-written line's", n)
	}
	s.mu.Lock()
	err = s.compactLocked()
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	check("after compaction")
	if n := inMemory(); n != 0 {
		t.Fatalf("after compaction %d extents are in memory", n)
	}
}

// TestReplayCorruptLines: a corrupt terminated line fails OpenFile with
// json.Unmarshal's error text, whether it is a range line (malformed, or
// well-formed with a lo or results encoding/json refuses) or a job line.
func TestReplayCorruptLines(t *testing.T) {
	job := `{"op":"job","job":{"id":"job-1","kind":"toy","seed":1,"tasks":3,"state":"submitted"}}` + "\n"
	for _, c := range []struct{ line, err string }{
		{`{"op":"range","job_id":"job-1","lo":1,"results":[1,2}`,
			"store: corrupt log line 2: invalid character '}' after array element"},
		{`{"op":"range","job_id":"job-1","lo":1.5,"results":[1]}`,
			"store: corrupt log line 2: json: cannot unmarshal number 1.5 into Go struct field op.lo of type int"},
		{`{"op":"range","job_id":"job-1","results":{"a":1}}`,
			"store: corrupt log line 2: json: cannot unmarshal object into Go struct field op.results of type []json.RawMessage"},
		{`{"op":"job","job":{"id":"job-2",}}`,
			"store: corrupt log line 2: invalid character '}' looking for beginning of object key string"},
		{`{"op":"job","job":{"id":7}}`,
			"store: corrupt log line 2: json: cannot unmarshal number into Go struct field JobRecord.job.id of type string"},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), []byte(job+c.line+"\n"+job), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenFile(dir)
		if err == nil {
			s.Close()
			t.Fatalf("log with %s opened", c.line)
		}
		if err.Error() != c.err {
			t.Errorf("log with %s: error %q, want %q", c.line, err, c.err)
		}
	}
}

// FuzzScanRangeMatchesUnmarshal: replay decodes every line json.Unmarshal
// accepts to the op json.Unmarshal gives it, through scanOp or not; its
// packed run holds json.Unmarshal's documents, document for document,
// joined by commas, each capped at its end, and when scanOp took the line
// they lie in it where the op says, as does a job record's result. A line
// json.Unmarshal rejects fails.
func FuzzScanRangeMatchesUnmarshal(f *testing.F) {
	line, err := rangeLine(nil, "job-1", 3, packed([]json.RawMessage{json.RawMessage(`{"steps":3,"converged":true}`), json.RawMessage(`7`)}).Bytes())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(line)
	recorded, err := os.ReadFile(filepath.Join("testdata", "recorded.log.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	for _, l := range bytes.Split(recorded, []byte("\n")) {
		f.Add(l)
	}
	for _, seed := range []string{
		`{"OP":"range","Job_ID":"job-2","LO":4,"Results":[1,2]}`,
		`{"op":"range","reſults":[3],"job_id":"job-3"}`,
		`{"op":"range","job_ıd":"job-3","results":[3]}`,
		`{"op":"job","op":"range","job_id":"a","job_id":"b","lo":1,"lo":2,"results":[1],"results":[2,3]}`,
		`{"op":"range","op":"job","results":[1]}`,
		`{"op":"range","job_id":"job-4","results":null}`,
		`{"op":"range","job_id":"job-4","results":[1],"results":null}`,
		`{"op":"range","job_id":"job-4","results":[]}`,
		`{"op":"range","job_id":"job-4","results":[ ]}`,
		`{"op":"range","job_id":"job-5","results":[1]}`,
		`{"op":"range","job_id":"job-5","results":[1]}`,
		`{"op":"range","job_id":"jöb","results":[1]}`,
		`{"op":"range","job_id":null,"results":[1]}`,
		`{"op":"range","lo":-0,"results":[1]}`,
		`{"op":"range","lo":1e2,"results":[1]}`,
		`{"op":"range","lo":99999999999999999999,"results":[1]}`,
		`{"op":"range","lo":null,"results":[1]}`,
		`{"op":"range","id":"x","results":[1]}`,
		` { "op" : "range" , "results" : [ 1 , {"a" : [2, "x]}"]} , "s\"" , null ] } `,
		`{"op":"range","results":[1,{"a":"<b>"}]}`,
		`{"op":"range","results":[1,]}`,
		`{"op":"range","results":[1]`,
		`[{"op":"range"}]`,
		`null`,
		``,
		`{"op":"job","job":{"id":"job-1","key":"k","kind":"toy","version":2,"seed":18446744073709551615,"tasks":3,"spec":{"n":3},"state":"done","result":{"a":[1,"x y"]},"error":"e"}}`,
		`{"OP":"Job","JOB":{"ID":"job-1","ſeed":7,"Result":[1]},"job":{"state":"done"}}`,
		`{"op":"job","job":{"id":"job-1","result":{"a" : 1}}}`,
		`{"op":"job","job":{"id":"job-1","result":"<b>"}}`,
		`{"op":"job","job":{"id":"job-1","result":"\u2028"}}`,
		`{"op":"job","job":{"id":"job-1","result":"` + "\u2028" + `"}}`,
		`{"op":"job","job":{"id":"job-1","result":null,"spec":null}}`,
		`{"op":"job","job":{"id":"job-1","seed":-1}}`,
		`{"op":"job","job":{"id":"job-1","tasks":1.0}}`,
		`{"op":"job","job":{"id":"job-1","tasks":-0,"version":9223372036854775808}}`,
		`{"op":"job","job":{"id":"j\u00f6b"}}`,
		`{"op":"job","job":{"id":null}}`,
		`{"op":"job","job":null}`,
		`{"op":"job","job":{}}`,
		`{"op":"job","job":{"id":"job-1","game":1}}`,
		`{"op":"job","results":[1],"job":{"id":"job-1","result":2}}`,
		`{"op":"handle","id":"h-3","job_id":"job-1"}`,
		`{"op":"release","id":"h-3"}`,
		`{"op":"seq","seq":12}`,
		`{"op":"seq","seq":-12}`,
		`{"op":"game","id":"g-1","game":{}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var want op
		werr := json.Unmarshal(line, &want)
		got, gerr := decodeOp(line)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("replay's decode error %v, json.Unmarshal's %v", gerr, werr)
		}
		if werr != nil {
			return
		}
		var joined []byte
		for i, d := range want.Results {
			if i >= got.docs.Len() || !bytes.Equal(got.docs.Doc(i), d) || cap(got.docs.Doc(i)) != len(d) {
				t.Fatalf("document %d of %d, want %q", i, got.docs.Len(), d)
			}
			if i > 0 {
				joined = append(joined, ',')
			}
			joined = append(joined, d...)
		}
		if got.docs.Len() != len(want.Results) || !bytes.Equal(got.docs.Bytes(), joined) {
			t.Fatalf("packed run %q of %d documents, want %q of %d", got.docs.Bytes(), got.docs.Len(), joined, len(want.Results))
		}
		// A line scanOp took holds its documents, or its record's result,
		// where replay records them.
		if got.Op == "job" && got.Job != nil {
			if res := got.Job.Result; got.at >= 0 && !bytes.Equal(line[got.at:got.at+len(res)], res) {
				t.Fatalf("result recorded at %d of the line: %q, json.Unmarshal's %q", got.at, line[got.at:got.at+len(res)], res)
			}
		} else if got.at >= 0 && !bytes.Equal(line[got.at:got.at+got.docs.Size()], joined) {
			t.Fatalf("documents recorded at %d of the line: %q, want %q", got.at, line[got.at:got.at+got.docs.Size()], joined)
		}
		got.docs, got.Results, got.at, want.Results = engine.Docs{}, nil, 0, nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded %+v, json.Unmarshal %+v", got, want)
		}
	})
}

// BenchmarkOpenFile reopens a log shaped like persist-stream's fixture
// store: 300 learn_sweep jobs of 1,200 task documents (learnDocs), each
// logged as its submitted record, 12 range lines of 100 documents — the
// spans the server's watcher persists while the job runs — and its done
// record with the job's aggregate result; about 11 MB.
func BenchmarkOpenFile(b *testing.B) {
	run := packed(learnDocs(b))
	spec := engine.LearnSweep{Gen: core.GenSpec{Miners: 8, Coins: 2}, Runs: 200}
	canonical, err := engine.CanonicalSpecJSON(spec)
	if err != nil {
		b.Fatal(err)
	}
	res, err := engine.New(1).Run(context.Background(), spec, 7, nil)
	if err != nil {
		b.Fatal(err)
	}
	result, err := json.Marshal(res)
	if err != nil {
		b.Fatal(err)
	}
	var log []byte
	write := func(o op) {
		line, _, err := encodeOp(nil, o)
		if err != nil {
			b.Fatal(err)
		}
		log = append(log, line...)
	}
	for j := range 300 {
		seed := uint64(j + 1)
		rec := JobRecord{
			ID: fmt.Sprintf("job-%d", j+1), Key: engine.CacheKeyJSON("learn_sweep", canonical, seed),
			Kind: "learn_sweep", Version: 1, Seed: seed, Tasks: run.Len(), Spec: canonical, State: JobSubmitted,
		}
		write(op{Op: "job", Job: &rec})
		for lo := 0; lo < run.Len(); lo += 100 {
			write(op{Op: "range", JobID: rec.ID, Lo: lo, docs: run.Slice(lo, lo+100)})
		}
		rec.State, rec.Result = JobDone, result
		write(op{Op: "job", Job: &rec})
	}
	dir := b.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logName), log, 0o644); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(log)))
	b.ReportAllocs()
	for b.Loop() {
		s, err := OpenFile(dir)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

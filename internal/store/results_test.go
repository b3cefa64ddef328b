package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// FuzzReadResultMatchesRecord writes job records through PutJob: each of
// three jobs submitted, done, failed or canceled in the order the input
// picks, a record's result one of the input's documents (NUL-separated),
// some of which json.Marshal rewrites or rejects, with reopens and
// compactions between them. Each line PutJob logs must be the bytes
// json.Marshal writes for the op, and for each job ReadResult must return
// the bytes json.Marshal writes for its latest record's result if that
// record is done, and fail with ErrNoDocs otherwise: live, after a reopen
// and after a compaction.
func FuzzReadResultMatchesRecord(f *testing.F) {
	docs := strings.Join([]string{`{"total_runs":4}`, ` [1, "a b"] `, `"<&>"`, "{\"a\":\" \"}", `nope`, ``, `null`}, "\x00")
	for _, steps := range []string{
		"\x04\x05\x16\x09\x03\x27\x07\x14",
		"\x04\x44\x14\x0c\x03\x08\x57\x64\x74",
		"\x80\x84\xc4\x24\x33\x07\x25\x35\x06",
	} {
		f.Add([]byte(steps), docs)
	}
	f.Fuzz(func(t *testing.T, steps []byte, docs string) {
		if len(steps) > 32 {
			steps = steps[:32]
		}
		results := strings.Split(docs, "\x00")
		dir := t.TempDir()
		s, err := OpenFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { s.Close() }()
		ids := []string{"job-1", "job-2", "job-3"}
		states := []string{JobSubmitted, JobDone, JobFailed, JobCanceled}
		want := map[string]string{} // the result ReadResult returns, by job
		check := func(when string) {
			t.Helper()
			for _, id := range ids {
				res, err := s.ReadResult([]byte("x"), id)
				if w, ok := want[id]; ok && (err != nil || string(res) != "x"+w) || !ok && !errors.Is(err, ErrNoDocs) {
					t.Fatalf("%s: %s's result %q, %v; want %q (held %v)", when, id, res, err, w, ok)
				}
			}
		}
		reopen := func() {
			t.Helper()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if s, err = OpenFile(dir); err != nil {
				t.Fatal(err)
			}
		}
		compact := func() {
			t.Helper()
			s.mu.Lock()
			err := s.compactLocked()
			s.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
		}
		for k, b := range steps {
			if b&3 == 3 {
				if b&4 == 0 {
					reopen()
				} else {
					compact()
				}
				check(fmt.Sprintf("step %d", k))
				continue
			}
			rec := JobRecord{ID: ids[b&3], Key: "k", Kind: "toy", Seed: uint64(k), Tasks: k, State: states[b>>2&3]}
			if rec.State == JobDone || b&0x80 != 0 {
				rec.Result = json.RawMessage(results[int(b>>4&7)%len(results)])
			}
			if b&0x40 != 0 {
				rec.Error = "boom <" + itoa(k) + ">"
			}
			line, merr := json.Marshal(op{Op: "job", Job: &rec})
			if err := s.PutJob(rec); (err == nil) != (merr == nil) {
				t.Fatalf("step %d: PutJob %v, json.Marshal %v", k, err, merr)
			} else if err != nil {
				continue
			}
			log, err := os.ReadFile(s.logPath())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasSuffix(log, append(line, '\n')) {
				t.Fatalf("step %d: the log ends %q, json.Marshal writes %q", k, log[max(0, len(log)-len(line)-1):], line)
			}
			delete(want, rec.ID)
			if rec.State == JobDone && len(rec.Result) > 0 {
				res, _ := json.Marshal(rec.Result)
				want[rec.ID] = string(res)
			}
			check(fmt.Sprintf("step %d", k))
		}
		reopen()
		check("reopened")
		compact()
		check("compacted")
	})
}

// TestReplayLeavesResultsInTheLog: replay records where a done record's
// result lies in its line and copies none of it. Decoding a job line whose
// result is 4 KiB allocates the record, its strings and its spec, well
// under the result's size, and the store's snapshot keeps no result bytes.
// A result is read as its line holds it, hand-written or not; only a line
// the walk leaves to json.Unmarshal has its result kept in memory, until a
// compaction writes it to the log.
func TestReplayLeavesResultsInTheLog(t *testing.T) {
	result := fmt.Appendf(nil, `{"total_runs":1200,"pad":"%s"}`, strings.Repeat("x", 4096))
	rec := JobRecord{ID: "job-1", Key: "k-1", Kind: "learn_sweep", Version: 1, Seed: 7, Tasks: 1200,
		Spec: json.RawMessage(`{"gen":{"Miners":8,"Coins":2},"runs":200}`), State: JobDone, Result: result}
	line, at, err := jobLine(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	line = line[:len(line)-1]
	var got op
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const n = 20
	for range n {
		if got, err = decodeOp(line); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perLine := (after.TotalAlloc - before.TotalAlloc) / n; perLine > 1024 {
		t.Fatalf("decoding a job line with a %d-byte result allocates %d bytes", len(result), perLine)
	}
	if got.at != at || !bytes.Equal(got.Job.Result, result) {
		t.Fatalf("the result decoded at %d, %.40q; written at %d", got.at, got.Job.Result, at)
	}

	dir := t.TempDir()
	log := append(line, '\n')
	log = append(log, `{"op":"job","job":{"id":"job-2","state":"done","result":{"a" : "<b>"}}}`+"\n"...)
	log = append(log, `{"op":"job","job":{"id":"job-3","kind":"t\u006fy","state":"done","result":[ 3 ]}}`+"\n"...)
	if err := os.WriteFile(filepath.Join(dir, logName), log, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	inMemory := func() (n int) {
		s.mu.RLock()
		defer s.mu.RUnlock()
		for _, e := range s.snap.results {
			if e.mem != nil {
				n++
			}
		}
		for _, r := range s.snap.Jobs {
			if r.Result != nil {
				t.Fatalf("the snapshot holds %s's result", r.ID)
			}
		}
		return n
	}
	check := func(when string, mem int) {
		t.Helper()
		for id, want := range map[string]string{"job-1": string(result), "job-2": `{"a" : "<b>"}`, "job-3": `[ 3 ]`} {
			if res, err := s.ReadResult(nil, id); err != nil || string(res) != want {
				t.Fatalf("%s: %s's result %.40q, %v; want %.40q", when, id, res, err, want)
			}
		}
		if n := inMemory(); n != mem {
			t.Fatalf("%s: %d results in memory, want %d", when, n, mem)
		}
	}
	check("after replay", 1)
	s.mu.Lock()
	err = s.compactLocked()
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	check("after compaction", 0)
}

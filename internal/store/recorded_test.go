package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestRecordedLog replays testdata/recorded.log.jsonl, a log recorded before
// the store kept each job's documents as one prefix, written the way
// gocserve writes one: a registered game, then ten jobs, each a submitted
// record and a handle, contiguous watermark spans of varying width from task
// 0, and a done, failed or canceled record or nothing (interrupted). Jobs run
// two at a time, so their spans interleave; two handles are released. job-4
// has 4,400 tasks in five spans, past the 4,096-document cap.
//
// Each live job must come back with the documents of its spans as one
// prefix from task 0, cut at the cap; failed and canceled jobs keep none.
// The documents are read from what compaction writes, and compaction must
// write exactly testdata/recorded.compacted.jsonl, the bytes the store's
// compaction wrote when the log was recorded.
func TestRecordedLog(t *testing.T) {
	logBytes, err := os.ReadFile(filepath.Join("testdata", "recorded.log.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "recorded.compacted.jsonl"))
	if err != nil {
		t.Fatal(err)
	}

	// The expected documents: each job's range lines in log order, which
	// must be contiguous from 0 for this to be a log the server writes.
	want := map[string][]json.RawMessage{}
	states := map[string]string{}
	lines := map[string]int{}
	for _, o := range logOps(t, logBytes) {
		switch o.Op {
		case "job":
			states[o.Job.ID] = o.Job.State
			if o.Job.State == JobFailed || o.Job.State == JobCanceled {
				delete(want, o.Job.ID)
			}
		case "range":
			if o.Lo != len(want[o.JobID]) {
				t.Fatalf("recorded span of %s starts at %d, after %d documents", o.JobID, o.Lo, len(want[o.JobID]))
			}
			want[o.JobID] = append(want[o.JobID], o.Results...)
			lines[o.JobID]++
		}
	}
	if len(want["job-4"]) <= RangeDocCap || lines["job-1"] < 2 || len(states) != 10 {
		t.Fatalf("fixture lost its shape: job-4 has %d documents, job-1 %d range lines, %d jobs",
			len(want["job-4"]), lines["job-1"], len(states))
	}
	for id, docs := range want {
		if len(docs) > RangeDocCap {
			want[id] = docs[:RangeDocCap]
		}
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logName), logBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	snap, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	for id, state := range states {
		if snap.Jobs[id].State != state {
			t.Fatalf("%s replayed as %q, want %q", id, snap.Jobs[id].State, state)
		}
	}
	if len(snap.Jobs) != len(states) || len(snap.Handles) != 8 || snap.NextHandle != 10 {
		t.Fatalf("replayed %d jobs, %d handles, next handle %d; want %d, 8, 10",
			len(snap.Jobs), len(snap.Handles), snap.NextHandle, len(states))
	}

	s.mu.Lock()
	err = s.compactLocked()
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	docs := map[string][]json.RawMessage{}
	for _, o := range logOps(t, got) {
		if o.Op != "range" {
			continue
		}
		if _, dup := docs[o.JobID]; dup || o.Lo != 0 {
			t.Fatalf("compaction wrote a second span or one from task %d for %s", o.Lo, o.JobID)
		}
		docs[o.JobID] = o.Results
	}
	if !reflect.DeepEqual(docs, want) {
		for id := range states {
			if !reflect.DeepEqual(docs[id], want[id]) {
				t.Errorf("%s: %d documents after replay, want %d", id, len(docs[id]), len(want[id]))
			}
		}
		t.Fatal("replayed documents differ from the recorded spans")
	}
	if !bytes.Equal(got, golden) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(golden, []byte("\n"))
		for i := 0; i < min(len(gl), len(wl)); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("compacted line %d:\n got %.300s\nwant %.300s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("compacted log has %d lines, recorded %d", len(gl), len(wl))
	}
}

// logOps decodes every line of a store log.
func logOps(t *testing.T, log []byte) []op {
	t.Helper()
	var ops []op
	for _, line := range bytes.Split(bytes.TrimSuffix(log, []byte("\n")), []byte("\n")) {
		var o op
		if err := json.Unmarshal(line, &o); err != nil {
			t.Fatalf("log line %.80s: %v", line, err)
		}
		ops = append(ops, o)
	}
	return ops
}

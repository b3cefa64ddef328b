package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gameofcoins/internal/core"
)

func testGame(t *testing.T) *core.Game {
	t.Helper()
	return core.MustNewGame(
		[]core.Miner{{Name: "p1", Power: 13}, {Name: "p2", Power: 7}},
		[]core.Coin{{Name: "btc"}, {Name: "bch"}},
		[]float64{17, 9},
	)
}

func populate(t *testing.T, s Store) {
	t.Helper()
	if err := s.PutGame("g-1", testGame(t)); err != nil {
		t.Fatal(err)
	}
	recs := []JobRecord{
		{ID: "job-1", Key: "k1", Kind: "learn_sweep", Seed: 7, Tasks: 4,
			Spec: json.RawMessage(`{"runs":4}`), State: JobDone, Result: json.RawMessage(`{"total_runs":4}`)},
		// Version 2: the versioned-registry field must survive the
		// round-trip (version-less records read back as 0 → v1).
		{ID: "job-2", Key: "k2", Kind: "toy_sum", Version: 2, Seed: 9, Tasks: 3,
			Spec: json.RawMessage(`{"n":3}`), State: JobSubmitted},
		{ID: "job-3", Key: "k3", Kind: "toy_sum", Seed: 1, Tasks: 1,
			Spec: json.RawMessage(`{"n":1}`), State: JobCanceled, Error: "context canceled"},
	}
	for _, rec := range recs {
		if err := s.PutJob(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutHandle("h-1", "job-1"); err != nil {
		t.Fatal(err)
	}
	if err := s.PutHandle("h-2", "job-2"); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteHandle("h-1"); err != nil {
		t.Fatal(err)
	}
}

func checkSnapshot(t *testing.T, snap Snapshot) {
	t.Helper()
	if len(snap.Games) != 1 || snap.Games["g-1"].NumMiners() != 2 {
		t.Fatalf("games = %+v", snap.Games)
	}
	if len(snap.Jobs) != 3 {
		t.Fatalf("jobs = %+v", snap.Jobs)
	}
	if rec := snap.Jobs["job-1"]; rec.State != JobDone || string(rec.Result) != `{"total_runs":4}` {
		t.Fatalf("job-1 = %+v", rec)
	}
	if rec := snap.Jobs["job-2"]; rec.State != JobSubmitted || rec.Seed != 9 || rec.Version != 2 {
		t.Fatalf("job-2 = %+v", rec)
	}
	if rec := snap.Jobs["job-1"]; rec.Version != 0 {
		t.Fatalf("version-less record gained a version: %+v", rec)
	}
	if !reflect.DeepEqual(snap.Handles, map[string]string{"h-2": "job-2"}) {
		t.Fatalf("handles = %+v", snap.Handles)
	}
	// NextHandle remembers h-2 even though h-1 (also ever-minted) is gone.
	if snap.NextHandle != 2 {
		t.Fatalf("next handle = %d, want 2", snap.NextHandle)
	}
}

// TestFileDirectoryLock: a second concurrent opener of the same data
// directory must fail fast, not silently compact the first one's appends
// away; the lock is released on Close.
func TestFileDirectoryLock(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(dir); err == nil {
		t.Fatal("second open of a locked data directory succeeded")
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenFile(dir)
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	s2.Close()
}

// TestFileRoundTrip: everything written before Close is replayed by a fresh
// OpenFile on the same directory.
func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	populate(t, s)
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
	checkSnapshot(t, snap)
	// Load copies: mutating the returned snapshot must not leak back.
	delete(snap.Jobs, "job-1")
	again, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Jobs) != 3 {
		t.Fatal("Load returned aliased maps")
	}
}

// TestFileTornTailTolerated: a crash mid-append leaves a partial final line;
// open must succeed and keep everything before it.
func TestFileTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	populate(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, logName)
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"job","job":{"id":"job-9","st`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := OpenFile(dir)
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	snap, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	checkSnapshot(t, snap)

	// Appending after a torn tail must start a fresh line, not merge into
	// the garbage: OpenFile truncates the torn bytes, so an op written in
	// this life survives the next one instead of bricking the log.
	if err := s2.PutHandle("h-3", "job-2"); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := OpenFile(dir)
	if err != nil {
		t.Fatalf("open after torn-tail truncation + append: %v", err)
	}
	snap3, err := s3.Load()
	if err != nil {
		t.Fatal(err)
	}
	if snap3.Handles["h-3"] != "job-2" {
		t.Fatal("op appended after a torn tail was lost")
	}
	if err := s3.Close(); err != nil {
		t.Fatal(err)
	}

	// Corruption anywhere else is an error, not silent data loss.
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath, append([]byte("garbage\n"), data...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(dir); err == nil {
		t.Fatal("interior corruption was silently accepted")
	}
}

// TestFileCompaction: overwriting the same records many times triggers
// compaction — the log shrinks to the live state and replays identically.
func TestFileCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.CompactMinOps = 16
	populate(t, s)
	rec := JobRecord{ID: "job-2", Key: "k2", Kind: "toy_sum", Version: 2, Seed: 9, Tasks: 3, State: JobSubmitted}
	for i := 0; i < 200; i++ {
		if err := s.PutJob(rec); err != nil {
			t.Fatal(err)
		}
	}
	if s.ops > 4*5+16 {
		t.Fatalf("log never compacted: %d pending ops", s.ops)
	}
	info, err := os.Stat(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() > 8<<10 {
		t.Fatalf("compacted log is %d bytes", info.Size())
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
	checkSnapshot(t, snap)
}

// TestFileNextHandleSurvivesCompaction: compaction drops the released-handle
// ops NextHandle is derived from; the seq op must preserve it so a restart
// never re-mints a released handle ID.
func TestFileNextHandleSurvivesCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.CompactMinOps = 4
	if err := s.PutHandle("h-17", "job-1"); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteHandle("h-17"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ { // push past the compaction floor
		if err := s.PutJob(JobRecord{ID: "job-1", State: JobDone}); err != nil {
			t.Fatal(err)
		}
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
	if len(snap.Handles) != 0 || snap.NextHandle != 17 {
		t.Fatalf("handles=%v next=%d, want empty/17", snap.Handles, snap.NextHandle)
	}
}

// TestFileJobRecordCap: compaction evicts the oldest terminal records past
// MaxJobs but never the submitted ones (restart recovery needs them).
func TestFileJobRecordCap(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.MaxJobs = 4
	s.CompactMinOps = 1
	if err := s.PutJob(JobRecord{ID: "job-1", State: JobSubmitted}); err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= 10; i++ {
		rec := JobRecord{ID: "job-" + itoa(i), State: JobDone, Result: json.RawMessage(`1`)}
		if err := s.PutJob(rec); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Jobs) > 4 {
		t.Fatalf("cap not enforced: %d records", len(snap.Jobs))
	}
	if _, ok := snap.Jobs["job-1"]; !ok {
		t.Fatal("submitted record evicted by the cap")
	}
	if _, ok := snap.Jobs["job-10"]; !ok {
		t.Fatal("newest terminal record evicted before older ones")
	}
}

// TestFileClosedRejectsWrites: post-Close mutations fail (the server treats
// them as best-effort, but they must not silently succeed on a closed file).
func TestFileClosedRejectsWrites(t *testing.T) {
	s, err := OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.PutHandle("h-1", "job-1"); err == nil {
		t.Fatal("write on closed store succeeded")
	}
}

// TestFileIgnoresRetiredPinOps: data directories written while the flat job
// API existed carry "pin" lines. They must still open — every other op
// replays as before — and the next compaction must drop the pins for good.
func TestFileIgnoresRetiredPinOps(t *testing.T) {
	dir := t.TempDir()
	log := `{"op":"job","job":{"id":"job-1","key":"k1","kind":"learn_sweep","seed":7,"tasks":4,"state":"done","result":{"total_runs":4}}}
{"op":"pin","job_id":"job-1"}
{"op":"handle","id":"h-2","job_id":"job-1"}
{"op":"pin","job_id":"job-9"}
`
	if err := os.WriteFile(filepath.Join(dir, logName), []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatalf("log with pin lines rejected: %v", err)
	}
	defer s.Close()
	check := func(when string) {
		t.Helper()
		snap, err := s.Load()
		if err != nil {
			t.Fatal(err)
		}
		if rec := snap.Jobs["job-1"]; len(snap.Jobs) != 1 || string(rec.Result) != `{"total_runs":4}` {
			t.Fatalf("%s: jobs = %+v", when, snap.Jobs)
		}
		if !reflect.DeepEqual(snap.Handles, map[string]string{"h-2": "job-1"}) || snap.NextHandle != 2 {
			t.Fatalf("%s: handles = %+v, next = %d", when, snap.Handles, snap.NextHandle)
		}
	}
	check("after replay")

	s.mu.Lock()
	err = s.compactLocked()
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	check("after compaction")
	data, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`"pin"`)) {
		t.Fatalf("compaction kept pin lines:\n%s", data)
	}
}

func itoa(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}

package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gameofcoins/internal/core"
	"gameofcoins/internal/engine"
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

// checkSnapshot checks what populate wrote, as s serves it: Load's
// records carry no result, which ReadResult reads.
func checkSnapshot(t *testing.T, s *File) {
	t.Helper()
	snap, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Games) != 1 || snap.Games["g-1"].NumMiners() != 2 {
		t.Fatalf("games = %+v", snap.Games)
	}
	if len(snap.Jobs) != 3 {
		t.Fatalf("jobs = %+v", snap.Jobs)
	}
	if rec := snap.Jobs["job-1"]; rec.State != JobDone || rec.Result != nil {
		t.Fatalf("job-1 = %+v", rec)
	}
	if res, err := s.ReadResult([]byte("x"), "job-1"); err != nil || string(res) != `x{"total_runs":4}` {
		t.Fatalf("job-1's result = %s, %v", res, err)
	}
	for _, id := range []string{"job-2", "job-3", "job-4"} {
		if res, err := s.ReadResult(nil, id); !errors.Is(err, ErrNoDocs) {
			t.Fatalf("%s's result = %s, %v; want ErrNoDocs", id, res, err)
		}
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
	checkSnapshot(t, s2)
	snap, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
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
	checkSnapshot(t, s2)

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

// TestFileCompaction: overwriting the same records compactMinOps times
// triggers compaction — the log shrinks to the live state and replays
// identically.
func TestFileCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	populate(t, s)
	rec := JobRecord{ID: "job-2", Key: "k2", Kind: "toy_sum", Version: 2, Seed: 9, Tasks: 3, State: JobSubmitted}
	for i := 0; i < compactMinOps; i++ {
		if err := s.PutJob(rec); err != nil {
			t.Fatal(err)
		}
	}
	if s.ops >= compactMinOps {
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
	checkSnapshot(t, s2)
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
	if err := s.PutHandle("h-17", "job-1"); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteHandle("h-17"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < compactMinOps; i++ { // push past the compaction floor
		if err := s.PutJob(JobRecord{ID: "job-1", State: JobDone}); err != nil {
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
	if len(snap.Handles) != 0 || snap.NextHandle != 17 {
		t.Fatalf("handles=%v next=%d, want empty/17", snap.Handles, snap.NextHandle)
	}
}

// overCap is the smallest job-record count that forces a compaction: a
// quarter of the cap past it.
const overCap = engine.DefaultRetention + engine.DefaultRetention/4 + 1

// TestFileJobRecordCap: once the records pass the cap by a quarter,
// compaction evicts the oldest terminal records past engine.DefaultRetention,
// and their results, but never the submitted ones (restart recovery needs
// them).
func TestFileJobRecordCap(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.PutJob(JobRecord{ID: "job-1", State: JobSubmitted}); err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= overCap; i++ {
		rec := JobRecord{ID: "job-" + itoa(i), State: JobDone, Result: json.RawMessage(`1`)}
		if err := s.PutJob(rec); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Jobs) != engine.DefaultRetention {
		t.Fatalf("cap not enforced: %d records, want %d", len(snap.Jobs), engine.DefaultRetention)
	}
	if _, ok := snap.Jobs["job-1"]; !ok {
		t.Fatal("submitted record evicted by the cap")
	}
	if _, ok := snap.Jobs["job-2"]; ok {
		t.Fatal("oldest terminal record survived the cap")
	}
	if _, ok := snap.Jobs["job-"+itoa(overCap)]; !ok {
		t.Fatal("newest terminal record evicted before older ones")
	}
	// An evicted record's result goes with it.
	if res, err := s.ReadResult(nil, "job-2"); !errors.Is(err, ErrNoDocs) {
		t.Fatalf("evicted job-2's result = %s, %v; want ErrNoDocs", res, err)
	}
	if res, err := s.ReadResult(nil, "job-"+itoa(overCap)); err != nil || string(res) != "1" {
		t.Fatalf("newest record's result = %s, %v", res, err)
	}
}

// TestFailedCompactionEvictsNothing: the record cap evicts from memory only
// with the compaction that drops the records from the log. While a
// directory in the way of the compacted file fails every compaction, memory
// and a reopen hold every record; once it is gone, the next append
// compacts, and both hold the cap.
func TestFailedCompactionEvictsNothing(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	blocker := filepath.Join(dir, logName+".tmp")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= overCap; i++ {
		err := s.PutJob(JobRecord{ID: "job-" + itoa(i), State: JobDone, Result: json.RawMessage(`1`)})
		if (err != nil) != (i == overCap) {
			t.Fatalf("record %d of %d: %v", i, overCap, err)
		}
	}
	held := func() (memory, reopened int) {
		t.Helper()
		snap, err := s.Load()
		if err != nil {
			t.Fatal(err)
		}
		log, err := os.ReadFile(filepath.Join(dir, logName))
		if err != nil {
			t.Fatal(err)
		}
		copyDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(copyDir, logName), log, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := OpenFile(copyDir)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		again, err := c.Load()
		if err != nil {
			t.Fatal(err)
		}
		return len(snap.Jobs), len(again.Jobs)
	}
	if memory, reopened := held(); memory != overCap || reopened != overCap {
		t.Fatalf("after a failed compaction memory holds %d records and a reopen %d, want %d each", memory, reopened, overCap)
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if err := s.PutHandle("h-1", "job-"+itoa(overCap)); err != nil {
		t.Fatal(err)
	}
	if memory, reopened := held(); memory != engine.DefaultRetention || reopened != engine.DefaultRetention {
		t.Fatalf("after the compaction memory holds %d records and a reopen %d, want %d each", memory, reopened, engine.DefaultRetention)
	}
}

// TestDirectorySync: the store fsyncs its directory whenever its log's
// directory entry changes, so a power cut cannot undo that: once when
// OpenFile creates the log, never when it opens an existing one, and once
// per compaction, after the new log is renamed into place. A failed sync is
// the compaction's error, and the store goes on appending to the new log.
func TestDirectorySync(t *testing.T) {
	dir := t.TempDir()
	calls := 0
	var fail error
	syncDir = func(d string) error {
		calls++
		if d != dir {
			t.Errorf("synced %s, want %s", d, dir)
		}
		if _, err := os.Stat(filepath.Join(dir, logName)); err != nil {
			t.Errorf("directory synced without a log: %v", err)
		}
		if _, err := os.Stat(filepath.Join(dir, logName+".tmp")); !os.IsNotExist(err) {
			t.Errorf("directory synced before the rename: %v", err)
		}
		return fail
	}
	t.Cleanup(func() { syncDir = fsyncDir })
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("creating the log synced the directory %d times, want 1", calls)
	}
	if err := s.PutJob(JobRecord{ID: "job-1", State: JobSubmitted}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	calls = 0
	if s, err = OpenFile(dir); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if calls != 0 {
		t.Fatalf("opening an existing log synced the directory %d times, want 0", calls)
	}
	compact := func() error {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.compactLocked()
	}
	if err := compact(); err != nil || calls != 1 {
		t.Fatalf("compaction: %v, %d directory syncs; want nil, 1", err, calls)
	}
	fail = errors.New("injected sync failure")
	if err := compact(); !errors.Is(err, fail) || calls != 2 {
		t.Fatalf("compaction with a failing directory sync: %v, %d syncs; want the sync's error, 2", err, calls)
	}
	if err := s.PutJob(JobRecord{ID: "job-2", State: JobSubmitted}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	fail = nil
	r, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	snap, err := r.Load()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := snap.Jobs["job-2"]; !ok || len(snap.Jobs) != 2 {
		t.Fatalf("after the failed sync, a reopen holds %d records (job-2: %v), want job-1 and job-2", len(snap.Jobs), ok)
	}
}

// TestFileCapDoesNotCompactEveryAppend: compaction cannot evict submitted
// records, so a store holding more of them than the cap must not rewrite
// its whole log on every later append. A rewrite renames a fresh file over
// the log, which os.SameFile detects.
func TestFileCapDoesNotCompactEveryAppend(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 1; i <= overCap; i++ {
		if err := s.PutJob(JobRecord{ID: "job-" + itoa(i), State: JobSubmitted}); err != nil {
			t.Fatal(err)
		}
	}
	logPath := filepath.Join(dir, logName)
	rewrites := 0
	for i := 1; i <= 100; i++ {
		before, err := os.Stat(logPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PutHandle("h-"+itoa(i), "job-1"); err != nil {
			t.Fatal(err)
		}
		after, err := os.Stat(logPath)
		if err != nil {
			t.Fatal(err)
		}
		if !os.SameFile(before, after) {
			rewrites++
		}
	}
	if rewrites > 1 {
		t.Fatalf("100 appends rewrote the log %d times", rewrites)
	}
	snap, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Jobs) != overCap || len(snap.Handles) != 100 {
		t.Fatalf("%d job records and %d handles, want %d and 100", len(snap.Jobs), len(snap.Handles), overCap)
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
		if res, err := s.ReadResult(nil, "job-1"); len(snap.Jobs) != 1 || string(res) != `{"total_runs":4}` {
			t.Fatalf("%s: jobs = %+v, job-1's result %s, %v", when, snap.Jobs, res, err)
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

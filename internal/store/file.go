package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"gameofcoins/internal/core"
	"gameofcoins/internal/engine"
)

// rangeDocCap caps how many per-task result documents a store keeps per
// job. The retained low-index prefix is what restart prefill and download
// resume consume; jobs with more tasks than the cap lose per-task
// servability past it after a restart, but never the aggregate result.
const rangeDocCap = 4096

// compactMinOps is the floor below which the log is never compacted, so
// small servers don't churn the file on every write.
const compactMinOps = 1024

// logName is the operation log inside the store directory; lockName is the
// advisory lock guarding the directory against a second process.
const (
	logName  = "log.jsonl"
	lockName = "lock"
)

// File is the file-backed Store: an append-only JSONL operation log,
// replayed on open and compacted in place (atomic rename) when the log has
// accumulated several times more operations than live records. Appends are
// flushed per operation but not fsynced — a power cut may lose the final
// lines, which rehydration tolerates (a lost terminal record resubmits the
// job; determinism recomputes the identical result). Compaction keeps at
// most engine.DefaultRetention job records, the jobs the engine manager
// would track after a restart: the oldest terminal records go first, and
// submitted records always stay — they are the restart-recovery signal.
// All methods are safe for concurrent use.
type File struct {
	mu     sync.Mutex
	dir    string
	f      *os.File // guarded by mu
	lock   *os.File // guarded by mu
	snap   Snapshot // guarded by mu
	ops    int      // guarded by mu; operations appended since open/compaction
	kept   int      // guarded by mu; job records the last compaction kept
	closed bool     // guarded by mu
}

// OpenFile opens (creating if needed) the file store rooted at dir and
// replays its log. The directory is guarded by an advisory lock: a second
// concurrent opener — another gocserve on the same -data, or a restart
// racing a not-yet-exited old process — fails fast here instead of the two
// processes silently compacting each other's appends away.
func OpenFile(dir string) (*File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", dir, err)
	}
	lock, err := os.OpenFile(filepath.Join(dir, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open lock: %w", err)
	}
	if err := lockExclusive(lock); err != nil {
		lock.Close()
		return nil, fmt.Errorf("store: %s is already in use by another process: %w", dir, err)
	}
	s := &File{dir: dir, lock: lock, snap: emptySnapshot()}
	good, err := s.replay()
	if err != nil {
		lock.Close()
		return nil, err
	}
	// Cut a torn tail off before appending: writing onto a partial line
	// would merge the next op into it — silently losing that op and turning
	// the garbage into fatal interior corruption at the next open.
	if info, err := os.Stat(s.logPath()); err == nil && info.Size() > good {
		if err := os.Truncate(s.logPath(), good); err != nil {
			lock.Close()
			return nil, fmt.Errorf("store: truncate torn tail: %w", err)
		}
	}
	f, err := os.OpenFile(s.logPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		lock.Close()
		return nil, fmt.Errorf("store: open log: %w", err)
	}
	s.f = f
	return s, nil
}

func (s *File) logPath() string { return filepath.Join(s.dir, logName) }

// op is one log line. Exactly one payload group is set, selected by Op:
// "game" (ID+Game), "job" (Job), "range" (JobID+Lo+Results — one span of a
// running job's per-task results), "handle" (ID+JobID), "release" (ID),
// "seq" (Seq — preserves the handle mint counter across compactions, which
// drop the released handle ops it derives from). Logs written before the
// flat job API was retired may also hold "pin" (JobID) lines; replay
// accepts and ignores them, and the next compaction drops them.
type op struct {
	Op      string            `json:"op"`
	ID      string            `json:"id,omitempty"`
	Game    json.RawMessage   `json:"game,omitempty"`
	Job     *JobRecord        `json:"job,omitempty"`
	JobID   string            `json:"job_id,omitempty"`
	Lo      int               `json:"lo,omitempty"`
	Results []json.RawMessage `json:"results,omitempty"`
	Seq     uint64            `json:"seq,omitempty"`
}

// replay rebuilds the snapshot from the log and returns the byte offset of
// the end of the last intact line. An unterminated final line — the only
// shape a crash mid-append can leave, since the newline is each op's last
// byte — is tolerated (OpenFile truncates it away); corruption in any
// *terminated* line is an error, because silently skipping interior history
// could resurrect released handles or lose results.
func (s *File) replay() (int64, error) {
	data, err := os.ReadFile(s.logPath())
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: read log: %w", err)
	}
	var good int64
	lineno := 0
	for start := 0; start < len(data); {
		nl := bytes.IndexByte(data[start:], '\n')
		if nl < 0 {
			break // torn tail from a crash mid-append
		}
		line := data[start : start+nl]
		lineno++
		var o op
		if err := json.Unmarshal(line, &o); err != nil {
			return 0, fmt.Errorf("store: corrupt log line %d: %w", lineno, err)
		}
		if err := s.applyLocked(o); err != nil {
			return 0, fmt.Errorf("store: corrupt log line %d: %w", lineno, err)
		}
		start += nl + 1
		good = int64(start)
	}
	return good, nil
}

// applyLocked folds one op into the live snapshot. Callers hold s.mu —
// except replay, which runs inside OpenFile before the store is shared.
func (s *File) applyLocked(o op) error {
	switch o.Op {
	case "game":
		var g core.Game
		if err := json.Unmarshal(o.Game, &g); err != nil {
			return fmt.Errorf("decode game %s: %w", o.ID, err)
		}
		s.snap.Games[o.ID] = &g
	case "job":
		if o.Job == nil || o.Job.ID == "" {
			return fmt.Errorf("job op without a record")
		}
		s.snap.Jobs[o.Job.ID] = *o.Job
		if o.Job.State == JobFailed || o.Job.State == JobCanceled {
			// No result to serve: the per-task spans are dead weight.
			delete(s.snap.Ranges, o.Job.ID)
		}
	case "range":
		s.snap.addRange(o.JobID, o.Lo, o.Results)
	case "handle":
		s.snap.Handles[o.ID] = o.JobID
		if n := handleSeq(o.ID); n > s.snap.NextHandle {
			s.snap.NextHandle = n
		}
	case "release":
		delete(s.snap.Handles, o.ID)
	case "pin":
		// Retired: nothing reads pins any more (see op).
	case "seq":
		if o.Seq > s.snap.NextHandle {
			s.snap.NextHandle = o.Seq
		}
	default:
		return fmt.Errorf("unknown op %q", o.Op)
	}
	return nil
}

// append applies o to the live snapshot and writes it to the log, then
// compacts if the log has outgrown the live state.
func (s *File) append(o op) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return os.ErrClosed
	}
	if err := s.applyLocked(o); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	line, err := json.Marshal(o)
	if err != nil {
		return fmt.Errorf("store: encode op: %w", err)
	}
	if n, err := s.f.Write(append(line, '\n')); err != nil {
		// A short write (ENOSPC, I/O error) left partial bytes mid-log; cut
		// the file back to the last full line so later appends don't merge
		// into garbage that bricks the next open. The in-memory snapshot is
		// ahead of the log until the next successful compaction rewrites it.
		if n > 0 {
			if info, serr := s.f.Stat(); serr == nil {
				_ = os.Truncate(s.logPath(), info.Size()-int64(n))
			}
		}
		return fmt.Errorf("store: append: %w", err)
	}
	s.ops++
	return s.maybeCompactLocked()
}

// maybeCompactLocked rewrites the log as a snapshot once the appended
// operations outnumber the live records severalfold (with a floor, so small
// stores never churn). Callers must hold s.mu.
func (s *File) maybeCompactLocked() error {
	// Overshooting the job-record cap also forces a compaction (which is
	// what evicts records). The quarter-cap hysteresis counts from what the
	// last compaction kept, which exceeds the cap when submitted records
	// alone do: compaction cannot evict those, so counting from the cap
	// would rewrite the whole log on every append.
	const slack = engine.DefaultRetention / 4
	overCap := len(s.snap.Jobs) > max(engine.DefaultRetention, s.kept)+slack
	live := len(s.snap.Games) + len(s.snap.Jobs) + len(s.snap.Handles)
	for _, recs := range s.snap.Ranges {
		live += len(recs)
	}
	if !overCap && (s.ops < compactMinOps || s.ops < 4*live) {
		return nil
	}
	return s.compactLocked()
}

// compactLocked writes the live snapshot to a fresh log and atomically
// renames it over the old one. It also enforces the job-record cap: oldest
// terminal records past engine.DefaultRetention are dropped (submitted
// records always survive — they are what restart recovery reruns).
func (s *File) compactLocked() error {
	s.snap.dropExcessJobs()
	tmpPath := s.logPath() + ".tmp"
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	w := func(o op) bool {
		line, err := json.Marshal(o)
		if err == nil {
			_, err = tmp.Write(append(line, '\n'))
		}
		if err != nil {
			tmp.Close()
			//goclint:allow errdrop -- best-effort tmp cleanup; the write error is what callers see
			os.Remove(tmpPath)
		}
		return err == nil
	}
	for _, id := range sortedKeys(s.snap.Games) {
		raw, err := json.Marshal(s.snap.Games[id])
		if err != nil {
			tmp.Close()
			//goclint:allow errdrop -- best-effort tmp cleanup; the marshal error below is the failure
			os.Remove(tmpPath)
			return fmt.Errorf("store: compact game %s: %w", id, err)
		}
		if !w(op{Op: "game", ID: id, Game: raw}) {
			return fmt.Errorf("store: compact: write failed")
		}
	}
	for _, id := range sortedKeys(s.snap.Jobs) {
		rec := s.snap.Jobs[id]
		if !w(op{Op: "job", Job: &rec}) {
			return fmt.Errorf("store: compact: write failed")
		}
	}
	// Range spans land after the job records so replay's addRange sees the
	// owning submitted record. The live map is already folded (addRange
	// merges adjacent spans on apply), so each job emits its spans as-is.
	for _, id := range sortedKeys(s.snap.Ranges) {
		for _, rr := range s.snap.Ranges[id] {
			if !w(op{Op: "range", JobID: id, Lo: rr.Lo, Results: rr.Results}) {
				return fmt.Errorf("store: compact: write failed")
			}
		}
	}
	for _, h := range sortedKeys(s.snap.Handles) {
		if !w(op{Op: "handle", ID: h, JobID: s.snap.Handles[h]}) {
			return fmt.Errorf("store: compact: write failed")
		}
	}
	if s.snap.NextHandle > 0 {
		if !w(op{Op: "seq", Seq: s.snap.NextHandle}) {
			return fmt.Errorf("store: compact: write failed")
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		//goclint:allow errdrop -- best-effort tmp cleanup; the sync error below is the failure
		os.Remove(tmpPath)
		return fmt.Errorf("store: compact sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		//goclint:allow errdrop -- best-effort tmp cleanup; the close error below is the failure
		os.Remove(tmpPath)
		return fmt.Errorf("store: compact close: %w", err)
	}
	if err := os.Rename(tmpPath, s.logPath()); err != nil {
		//goclint:allow errdrop -- best-effort tmp cleanup; the rename error below is the failure
		os.Remove(tmpPath)
		return fmt.Errorf("store: compact rename: %w", err)
	}
	old := s.f
	f, err := os.OpenFile(s.logPath(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// The rename just unlinked the inode old points at: appending there
		// would "succeed" into an orphan file and vanish on exit. Fail the
		// store outright — the on-disk log is the consistent compacted
		// snapshot, and every later mutation errors instead of silently
		// disappearing.
		old.Close()
		s.closed = true
		return fmt.Errorf("store: reopen log after compaction: %w", err)
	}
	old.Close()
	s.f = f
	s.ops = 0
	s.kept = len(s.snap.Jobs)
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Load implements Store.
func (s *File) Load() (Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Snapshot{}, os.ErrClosed
	}
	return s.snap.clone(), nil
}

// PutGame implements Store.
func (s *File) PutGame(id string, g *core.Game) error {
	raw, err := json.Marshal(g)
	if err != nil {
		return fmt.Errorf("store: encode game %s: %w", id, err)
	}
	return s.append(op{Op: "game", ID: id, Game: raw})
}

// PutJob implements Store.
func (s *File) PutJob(rec JobRecord) error {
	if rec.ID == "" {
		return fmt.Errorf("store: job record without an ID")
	}
	return s.append(op{Op: "job", Job: &rec})
}

// PutJobRange implements Store.
func (s *File) PutJobRange(jobID string, lo int, results []json.RawMessage) error {
	if jobID == "" {
		return fmt.Errorf("store: range without a job ID")
	}
	if len(results) == 0 {
		return nil // nothing to record; don't burn a log line
	}
	return s.append(op{Op: "range", JobID: jobID, Lo: lo, Results: results})
}

// PutHandle implements Store.
func (s *File) PutHandle(handle, jobID string) error {
	return s.append(op{Op: "handle", ID: handle, JobID: jobID})
}

// DeleteHandle implements Store.
func (s *File) DeleteHandle(handle string) error {
	return s.append(op{Op: "release", ID: handle})
}

// Close flushes and closes the log and releases the directory lock.
// Further mutations fail with ErrClosed.
func (s *File) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	defer s.lock.Close() // releases the advisory lock
	if err := s.f.Sync(); err != nil {
		s.f.Close()
		return fmt.Errorf("store: sync: %w", err)
	}
	return s.f.Close()
}

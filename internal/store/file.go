package store

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"

	"gameofcoins/internal/core"
	"gameofcoins/internal/engine"
	"gameofcoins/internal/jsonscan"
)

// RangeDocCap caps how many per-task result documents a store keeps per
// job: the prefix of tasks [0, RangeDocCap), what restart prefill and
// download resume consume. Jobs with more tasks lose per-task servability
// past it after a restart, but never the aggregate result. The server stops
// persisting a job's documents once its prefix reaches the cap.
const RangeDocCap = 4096

// compactMinOps is the floor below which the log is never compacted, so
// small servers don't churn the file on every write.
const compactMinOps = 1024

// lineKeep is the largest line storage appends keep for the next: a
// learn_sweep job's range line, about 36 KB, is rewritten for every job.
const lineKeep = 256 << 10

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
// job; determinism recomputes the identical result). An op reaches the
// snapshot only once its line is written in full. The directory is
// fsynced whenever the log's entry in it changes, so a power cut never
// brings back a log that a compaction replaced. Compaction keeps at
// most engine.DefaultRetention job records, the jobs the engine manager
// would track after a restart: the oldest terminal records go first, and
// submitted records always stay — they are the restart-recovery signal.
// Task documents and done results live only in the log, read under the
// read lock, which appends and compactions exclude. All methods are safe
// for concurrent use.
type File struct {
	mu     sync.RWMutex
	dir    string
	f      *os.File // guarded by mu; opened for appends and reads
	lock   *os.File // guarded by mu
	snap   Snapshot // guarded by mu
	size   int64    // guarded by mu; the log's length
	ops    int      // guarded by mu; operations appended since open/compaction
	kept   int      // guarded by mu; job records the last compaction kept
	line   []byte   // guarded by mu; a line's storage, which appends reuse
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
	info, statErr := os.Stat(s.logPath())
	if statErr == nil && info.Size() > good {
		if err := os.Truncate(s.logPath(), good); err != nil {
			lock.Close()
			return nil, fmt.Errorf("store: truncate torn tail: %w", err)
		}
	}
	f, err := os.OpenFile(s.logPath(), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		lock.Close()
		return nil, fmt.Errorf("store: open log: %w", err)
	}
	if os.IsNotExist(statErr) {
		// A new log: its directory entry must outlive a power cut, or the
		// appends that Close syncs into it could vanish with it.
		if err := syncDir(dir); err != nil {
			f.Close()
			lock.Close()
			return nil, fmt.Errorf("store: sync %s: %w", dir, err)
		}
	}
	s.f, s.size = f, good
	return s, nil
}

// syncDir fsyncs a store directory (fsyncDir; a variable so tests can watch
// it). The store calls it when its log's directory entry changes: after
// OpenFile creates the log, and after a compaction renames the new log over
// the old one.
var syncDir = fsyncDir

func (s *File) logPath() string { return filepath.Join(s.dir, logName) }

// op is one log line. Exactly one payload group is set, selected by Op:
// "game" (ID+Game), "job" (Job), "range" (JobID+Lo+Results — one span of a
// running job's per-task results), "handle" (ID+JobID), "release" (ID),
// "seq" (Seq — preserves the handle mint counter across compactions, which
// drop the released handle ops it derives from). Logs written before the
// flat job API was retired may also hold "pin" (JobID) lines; replay
// accepts and ignores them, and the next compaction drops them.
//
// A range op holds its documents packed in docs; Results only carries them
// out of json.Unmarshal (see decodeOp), and range lines are written by
// rangeLine. at is where the op's payload starts in its line — a range op's
// body, a job record's result — or -1 when json.Unmarshal decoded it; game
// is Game decoded, if it is.
type op struct {
	Op      string            `json:"op"`
	ID      string            `json:"id,omitempty"`
	Game    json.RawMessage   `json:"game,omitempty"`
	Job     *JobRecord        `json:"job,omitempty"`
	JobID   string            `json:"job_id,omitempty"`
	Lo      int               `json:"lo,omitempty"`
	Results []json.RawMessage `json:"results,omitempty"`
	Seq     uint64            `json:"seq,omitempty"`
	docs    engine.Docs
	at      int
	game    *core.Game
}

// replay rebuilds the snapshot from the log and returns the byte offset of
// the end of the last intact line. An unterminated final line — the only
// shape a crash mid-append can leave, since the newline is each op's last
// byte — is tolerated (OpenFile truncates it away); corruption in any
// *terminated* line is an error, because silently skipping interior history
// could resurrect released handles or lose results. Lines are read into one
// buffer, which grows only to the longest line.
func (s *File) replay() (int64, error) {
	f, err := os.Open(s.logPath())
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: read log: %w", err)
	}
	defer f.Close()
	lines := bufio.NewScanner(f)
	lines.Buffer(make([]byte, 64<<10), engine.MaxDocsBytes)
	lines.Split(fullLines)
	var good int64
	for lineno := 1; lines.Scan(); lineno++ {
		o, err := decodeOp(lines.Bytes())
		if err == nil && (o.Op != "range" || s.landLocked(&o)) {
			err = s.applyLocked(&o, good)
		}
		if err != nil {
			return 0, fmt.Errorf("store: corrupt log line %d: %w", lineno, err)
		}
		good += int64(len(lines.Bytes())) + 1
	}
	if err := lines.Err(); err != nil {
		return 0, fmt.Errorf("store: read log: %w", err)
	}
	return good, nil
}

// fullLines splits a log into its newline-terminated lines, newline
// dropped; an unterminated last line is not one.
func fullLines(data []byte, _ bool) (int, []byte, error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i], nil
	}
	return 0, nil, nil
}

// decodeOp decodes one log line through scanOp, or json.Unmarshal where
// scanOp does not take it: either way the op json.Unmarshal finds, a range
// op's documents packed. scanOp's documents and result are views of line.
func decodeOp(line []byte) (op, error) {
	if o, ok := scanOp(line); ok {
		return o, nil
	}
	o := op{at: -1}
	if err := json.Unmarshal(line, &o); err != nil {
		return op{}, err
	}
	for _, d := range o.Results {
		o.docs = o.docs.AppendDoc(d)
	}
	return o, nil
}

// scanOp decodes a range or job line as json.Unmarshal would, in one pass
// over its bytes that also checks their syntax. It packs the documents of a
// results array as a view of the bytes between its brackets and a copy of
// their end offsets: two allocations with the job ID for up to 256
// documents, one more per doubling of the offsets past that. It reports
// false unless line is one JSON value whose keys all match "op", "job_id",
// "lo", "results" or "job" as encoding/json matches them, whose op is
// "range" or "job", whose job_id is plain, whose lo is an integer, whose
// last results array joins its documents by single commas, as rangeLine
// writes them, and whose job record scanJob takes.
func scanOp(line []byte) (op, bool) {
	s := jsonscan.Scanner{Doc: line}
	s.SkipSpace()
	var o op
	var fold [16]byte
	ends := make([]uint32, 0, 256) // the last results array's document ends; on the stack up to 256
	var body []byte                // the last results array's documents, joined
	resAt := -1                    // where the job record's result starts
	for i := 0; ; i++ {
		key, ok := s.Member(i)
		if !ok {
			break
		}
		start := s.Pos
		switch string(jsonscan.FoldKey(fold[:0], key)) {
		case "OP":
			s.SkipValue()
			switch string(line[start:s.Pos]) {
			case `"range"`:
				o.Op = "range"
			case `"job"`:
				o.Op = "job"
			default:
				return op{}, false
			}
		case "JOB_ID":
			o.JobID, ok = plain(&s)
		case "LO":
			o.Lo, ok = integer(&s)
		case "JOB":
			if o.Job == nil {
				o.Job = new(JobRecord) // a repeated key decodes into the same record, as json.Unmarshal's does
			}
			ok = scanJob(&s, o.Job, &resAt)
		case "RESULTS":
			if s.Peek() != '[' {
				return op{}, false
			}
			ends, body, o.at = ends[:0], nil, start+1
			next := start + 1 // where the next document starts if single commas join them
			for n := 0; s.Next(n); n++ {
				if s.Pos != next {
					return op{}, false
				}
				s.SkipValue()
				ends = append(ends, uint32(s.Pos-start-1))
				next = s.Pos + 1
			}
			if len(ends) > 0 {
				if s.Pos != next {
					return op{}, false
				}
				body = line[start+1 : s.Pos-1]
			}
		default:
			return op{}, false
		}
		if !ok {
			return op{}, false
		}
	}
	if !s.Done() || o.Op == "" {
		return op{}, false
	}
	if len(ends) > 0 {
		o.docs = engine.JoinedDocs(body, slices.Clone(ends))
	}
	if o.Op == "job" {
		o.at = resAt
	}
	return o, true
}

// scanJob walks the job record at s.Pos into rec as json.Unmarshal would,
// if its strings are plain and its numbers integers, and reports whether it
// could. The result is left a view of s.Doc, and *resAt set to its start.
func scanJob(s *jsonscan.Scanner, rec *JobRecord, resAt *int) bool {
	var fold [16]byte
	for i := 0; ; i++ {
		key, ok := s.Member(i)
		if !ok {
			return !s.Failed()
		}
		start := s.Pos
		switch string(jsonscan.FoldKey(fold[:0], key)) {
		case "ID":
			rec.ID, ok = plain(s)
		case "KEY":
			rec.Key, ok = plain(s)
		case "KIND":
			rec.Kind, ok = plain(s)
		case "STATE":
			rec.State, ok = plain(s)
		case "ERROR":
			rec.Error, ok = plain(s)
		case "VERSION":
			rec.Version, ok = integer(s)
		case "TASKS":
			rec.Tasks, ok = integer(s)
		case "SEED":
			s.SkipValue()
			var err error
			rec.Seed, err = strconv.ParseUint(string(s.Doc[start:s.Pos]), 10, 64)
			ok = err == nil
		case "SPEC":
			s.SkipValue()
			rec.Spec = bytes.Clone(s.Doc[start:s.Pos])
		case "RESULT":
			s.SkipValue()
			rec.Result, *resAt = s.Doc[start:s.Pos:s.Pos], start
		default:
			return false
		}
		if !ok {
			return false
		}
	}
}

// plain moves s past the value at its position and returns it if it is a
// well-formed string whose bytes are its own decoding.
func plain(s *jsonscan.Scanner) (string, bool) {
	start := s.Pos
	if s.SkipString() || s.Failed() {
		return "", false
	}
	return string(s.Doc[start+1 : s.Pos-1]), true
}

// integer moves s past the value at its position and returns it if it is
// an integer that fits an int.
func integer(s *jsonscan.Scanner) (int, bool) {
	start := s.Pos
	s.SkipValue()
	n, err := strconv.Atoi(string(s.Doc[start:s.Pos]))
	return n, err == nil
}

// landLocked cuts a range op down to the documents that land, which is
// what its line records, keeping o.at on the first of them, and reports
// whether any do. Only a span's part past the job's prefix lands
// (first-writer-wins, as the engine publishes), up to RangeDocCap documents
// and a body of engine.MaxDocsBytes; a span that starts past the prefix
// would leave a gap, and only a live "submitted" or "done" job keeps
// documents. Callers hold s.mu — except replay, which runs inside OpenFile
// before the store is shared.
func (s *File) landLocked(o *op) bool {
	rec, live := s.snap.Jobs[o.JobID]
	r, n := s.snap.runs[o.JobID], o.docs.Len()
	if !live || rec.State != JobSubmitted && rec.State != JobDone || o.Lo < 0 || o.Lo > r.n || o.Lo+n <= r.n || r.n >= RangeDocCap {
		return false
	}
	added := o.docs.Slice(r.n-o.Lo, min(o.Lo+n, RangeDocCap)-o.Lo)
	if r.size+1+added.Size() > engine.MaxDocsBytes {
		return false
	}
	if k := r.n - o.Lo; k > 0 && o.at >= 0 {
		o.at += o.docs.Slice(0, k).Size() + 1
	}
	o.Lo, o.docs = r.n, added
	return true
}

// applyLocked folds one op, whose line lies in the log from offset lineAt,
// into the live snapshot; a range op is one landLocked has cut. Only a
// replayed op can fail: the Put methods build none that do. Callers hold
// s.mu — except replay.
func (s *File) applyLocked(o *op, lineAt int64) error {
	switch o.Op {
	case "game":
		if o.game == nil {
			o.game = new(core.Game)
			if err := json.Unmarshal(o.Game, o.game); err != nil {
				return fmt.Errorf("decode game %s: %w", o.ID, err)
			}
		}
		s.snap.Games[o.ID] = o.game
	case "job":
		if o.Job == nil || o.Job.ID == "" {
			return fmt.Errorf("job op without a record")
		}
		rec := *o.Job
		rec.Result = nil
		s.snap.Jobs[rec.ID] = rec
		delete(s.snap.results, rec.ID)
		switch {
		case rec.State == JobDone && len(o.Job.Result) > 0:
			e := extent{off: lineAt + int64(o.at), n: 1, size: len(o.Job.Result)}
			if o.at < 0 {
				e.off, e.mem = 0, o.Job.Result // json.Unmarshal's copy
			}
			s.snap.results[rec.ID] = e
		case rec.State == JobFailed || rec.State == JobCanceled:
			// No result to serve: the per-task documents are dead weight.
			delete(s.snap.runs, rec.ID)
		}
	case "range":
		e := extent{off: lineAt + int64(o.at), n: o.docs.Len(), size: o.docs.Size()}
		if o.at < 0 {
			e.off, e.mem = 0, bytes.Clone(o.docs.Bytes())
		}
		r := s.snap.runs[o.JobID]
		if r.n > 0 {
			r.size++ // the comma between extents
		}
		r.ext, r.n, r.size = append(r.ext, e), r.n+e.n, r.size+e.size
		s.snap.runs[o.JobID] = r
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

// append writes o to the log if it changes anything, folds it into the
// live snapshot once its line is written in full, then compacts if the log
// has outgrown the live state.
func (s *File) append(o op) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return os.ErrClosed
	}
	if o.Op == "range" && !s.landLocked(&o) {
		return nil
	}
	line, at, err := encodeOp(s.line[:0], o)
	if err != nil {
		return fmt.Errorf("store: encode op: %w", err)
	}
	if cap(line) <= lineKeep {
		s.line = line
	}
	if n, err := s.f.Write(line); err != nil {
		// A short write (ENOSPC, I/O error) left partial bytes mid-log; cut
		// the file back to the last full line so later appends don't merge
		// into garbage that bricks the next open.
		if n > 0 && os.Truncate(s.logPath(), s.size) != nil {
			s.size += int64(n)
		}
		return fmt.Errorf("store: append: %w", err)
	}
	o.at = at
	if err := s.applyLocked(&o, s.size); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.size += int64(len(line))
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
	live := len(s.snap.Games) + len(s.snap.Jobs) + len(s.snap.Handles) + len(s.snap.runs)
	if !overCap && (s.ops < compactMinOps || s.ops < 4*live) {
		return nil
	}
	return s.compactLocked()
}

// compactLocked writes the live snapshot to a fresh log and atomically
// renames it over the old one. It also enforces the job-record cap: oldest
// terminal records past engine.DefaultRetention are dropped (submitted
// records always survive — they are what restart recovery reruns). Each
// done record's result, and each job's documents as one range line, are
// copied from the old log into the new one as they lie, unparsed. The
// eviction and the bytes' new places reach memory only with the rename, so
// a compaction that fails leaves memory holding what the old log still
// does.
func (s *File) compactLocked() error {
	live := s.snap.clone()
	live.dropExcessJobs()
	tmpPath := s.logPath() + ".tmp"
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	bw := bufio.NewWriterSize(tmp, 64<<10)
	var size int64 // the new log's length
	var werr error // the first failure: the writes after it are skipped
	// w writes one line; it takes encodeOp's results whole.
	w := func(line []byte, _ int, err error) {
		if werr = cmp.Or(werr, err); werr == nil {
			_, werr = bw.Write(line)
		}
		size += int64(len(line))
	}
	for _, id := range slices.Sorted(maps.Keys(live.Games)) {
		raw, err := json.Marshal(live.Games[id])
		w(nil, 0, err)
		w(encodeOp(nil, op{Op: "game", ID: id, Game: raw}))
	}
	var body, line []byte
	for _, id := range slices.Sorted(maps.Keys(live.Jobs)) {
		rec, e := live.Jobs[id], live.results[id]
		body, err = e.read(body[:0], s.f) // no bytes without a result
		w(nil, 0, err)
		rec.Result = body
		var at int
		line, at, err = jobLine(line[:0], rec)
		if e.size > 0 {
			live.results[id] = extent{off: size + int64(at), n: 1, size: e.size}
		}
		w(line, at, err)
	}
	// Each job's documents land as one range line after the job records,
	// so replay's landing sees the owning record.
	for _, id := range slices.Sorted(maps.Keys(live.runs)) {
		r := live.runs[id]
		body, err = r.appendDocs(body[:0], s.f, 0, r.n)
		w(nil, 0, err)
		line, err = rangeLine(line[:0], id, 0, body)
		live.runs[id] = run{ext: []extent{{off: size + int64(len(line)-len("]}")-len(body)), n: r.n, size: r.size}}, n: r.n, size: r.size}
		w(append(line, '\n'), 0, err)
	}
	for _, h := range slices.Sorted(maps.Keys(live.Handles)) {
		w(encodeOp(nil, op{Op: "handle", ID: h, JobID: live.Handles[h]}))
	}
	if live.NextHandle > 0 {
		w(encodeOp(nil, op{Op: "seq", Seq: live.NextHandle}))
	}
	if werr = cmp.Or(werr, bw.Flush(), tmp.Sync()); werr != nil {
		tmp.Close()
		//goclint:allow errdrop -- best-effort tmp cleanup; werr is what callers see
		os.Remove(tmpPath)
		return fmt.Errorf("store: compact: %w", werr)
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
	// Until the directory is synced, a power cut can undo the rename and
	// bring the old log back, losing every op appended after it. A failed
	// sync is this compaction's error, but the rename stands, so the store
	// moves to the new log all the same.
	synced := syncDir(s.dir)
	old := s.f
	f, err := os.OpenFile(s.logPath(), os.O_RDWR|os.O_APPEND, 0o644)
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
	s.f, s.size = f, size
	s.snap = live
	s.ops = 0
	s.kept = len(s.snap.Jobs)
	if synced != nil {
		return fmt.Errorf("store: compact: sync %s: %w", s.dir, synced)
	}
	return nil
}

// appendDocs appends the documents of tasks [lo, hi) of the run to dst,
// joined by commas, reading them from the log f. An extent the span covers
// is copied as it lies; one it cuts is walked up to the cut, its bytes
// having been checked when they were written or replayed.
func (r run) appendDocs(dst []byte, f io.ReaderAt, lo, hi int) ([]byte, error) {
	i, a := 0, 0 // the extent at hand and its first task
	for ; a+r.ext[i].n <= lo; i++ {
		a += r.ext[i].n
	}
	for first := true; a < hi; i, first = i+1, false {
		e := r.ext[i]
		if !first {
			dst = append(dst, ',')
		}
		at := len(dst)
		var err error
		if dst, err = e.read(dst, f); err != nil {
			return nil, err
		}
		if from, to := max(lo-a, 0), min(hi-a, e.n); from > 0 || to < e.n {
			sc, start := jsonscan.Scanner{Doc: dst[at:]}, 0
			for k := 0; k < to; k++ {
				if k == from {
					start = sc.Pos
				}
				sc.SkipValue()
				sc.Pos++ // the comma
			}
			if sc.Failed() {
				return nil, fmt.Errorf("store: documents at offset %d are not the %d the log recorded", e.off, e.n)
			}
			dst = append(dst[:at], dst[at+start:at+sc.Pos-1]...)
		}
		a += e.n
	}
	return dst, nil
}

// read appends the extent's bytes to dst, reading them from the log f
// unless they are in memory.
func (e extent) read(dst []byte, f io.ReaderAt) ([]byte, error) {
	at := len(dst)
	dst = slices.Grow(dst, e.size)[:at+e.size]
	if e.mem != nil {
		copy(dst[at:], e.mem)
	} else if _, err := f.ReadAt(dst[at:], e.off); err != nil {
		return nil, fmt.Errorf("store: read log at %d: %w", e.off, err)
	}
	return dst, nil
}

// encodeOp appends o to dst as one log line, its newline included, and
// returns where its payload starts (op.at). Range ops go through rangeLine
// and job ops through jobLine; any other is json.Marshal's encoding.
func encodeOp(dst []byte, o op) ([]byte, int, error) {
	switch o.Op {
	case "range":
		line, err := rangeLine(dst, o.JobID, o.Lo, o.docs.Bytes())
		return append(line, '\n'), len(line) - len("]}") - o.docs.Size(), err
	case "job":
		return jobLine(dst, *o.Job)
	}
	line, err := json.Marshal(o)
	return append(append(dst, line...), '\n'), -1, err
}

// jobLine appends the job op of rec to dst as one log line and returns
// where its result starts (-1 without one). The result is copied unparsed,
// so the line is json.Marshal's when rec.Result is in json.Marshal's bytes.
func jobLine(dst []byte, rec JobRecord) ([]byte, int, error) {
	res := rec.Result
	if len(res) > 0 {
		rec.Result = json.RawMessage("0") // a stand-in for res
	}
	line, err := json.Marshal(op{Op: "job", Job: &rec})
	if err != nil || len(res) == 0 {
		return append(append(dst, line...), '\n'), -1, err
	}
	// Only the error, a string whose quotes are escaped, follows the result.
	at := bytes.LastIndex(line, []byte(`,"result":0`)) + len(`,"result":`)
	return append(append(append(append(dst, line[:at]...), res...), line[at+1:]...), '\n'), len(dst) + at, nil
}

// rangeLine renders the range op (jobID, lo) whose documents, joined by
// commas, are body, as it is, one copy, without the rescan, recompaction
// and HTML escaping json.Marshal spends on every json.RawMessage, and
// without checking a document: the store holds documents the engine
// encoded, documents a range line held, or documents PutJobRange checked,
// each one JSON value without a raw newline. For documents in json.Marshal's
// form — all but hand-written log lines' — the line is exactly the bytes
// json.Marshal writes for the op. The line is appended to dst, ends with
// the body and "]}" (an empty body writes no results), and has a spare
// byte of capacity for its newline.
func rangeLine(dst []byte, jobID string, lo int, body []byte) ([]byte, error) {
	id, err := json.Marshal(jobID)
	if err != nil {
		return nil, err
	}
	line := slices.Grow(dst, len(`{"op":"range","job_id":,"lo":-9223372036854775808,"results":[]}`+"\n")+len(id)+len(body))
	line = append(line, `{"op":"range"`...)
	if jobID != "" {
		line = append(append(line, `,"job_id":`...), id...)
	}
	if lo != 0 {
		line = strconv.AppendInt(append(line, `,"lo":`...), int64(lo), 10)
	}
	if len(body) > 0 {
		line = append(append(append(line, `,"results":[`...), body...), ']')
	}
	return append(line, '}'), nil
}

// packDocs packs a span's documents in the bytes json.Marshal writes for
// them, the form a range line carries (see rangeLine): a document
// json.Marshal would rewrite goes in as its encoding, and one it rejects
// fails the span.
func packDocs(results []json.RawMessage) (engine.Docs, error) {
	size := 0
	for _, d := range results {
		size += len(d) + 1
	}
	docs := engine.Docs{}.Grow(len(results), size)
	for i, d := range results {
		if !verbatimDoc(d) {
			var err error
			if d, err = json.Marshal(d); err != nil {
				return engine.Docs{}, fmt.Errorf("document %d: %w", i, err)
			}
		}
		if docs.Size()+1+len(d) > engine.MaxDocsBytes {
			return engine.Docs{}, fmt.Errorf("documents past %d bytes", engine.MaxDocsBytes)
		}
		docs = docs.AppendDoc(d)
	}
	return docs, nil
}

// verbatimDoc reports whether json.Marshal writes the document d unchanged:
// d is one well-formed JSON value holding no whitespace byte (compaction
// drops those outside strings) and no '<', '>', '&', U+2028 or U+2029 (HTML
// escaping rewrites those).
func verbatimDoc(d json.RawMessage) bool {
	for i, c := range d {
		switch c {
		case ' ', '\t', '\n', '\r', '<', '>', '&':
			return false
		case 0xE2:
			if i+2 < len(d) && d[i+1] == 0x80 && d[i+2]&^1 == 0xA8 {
				return false
			}
		}
	}
	return jsonscan.Valid(d)
}

// Load implements Store.
func (s *File) Load() (Snapshot, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return Snapshot{}, os.ErrClosed
	}
	out := s.snap.clone()
	out.runs, out.results = nil, nil
	return out, nil
}

// ReadDocs implements Store.
func (s *File) ReadDocs(dst []byte, jobID string, lo, hi int) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, os.ErrClosed
	}
	r := s.snap.runs[jobID]
	if lo < 0 || hi > r.n || hi <= lo {
		return nil, fmt.Errorf("%w: %s holds tasks [0,%d), not [%d,%d)", ErrNoDocs, jobID, r.n, lo, hi)
	}
	return r.appendDocs(dst, s.f, lo, hi)
}

// HeldDocs implements Store.
func (s *File) HeldDocs(jobID string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.snap.runs[jobID].n
}

// ReadResult implements Store.
func (s *File) ReadResult(dst []byte, jobID string) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, os.ErrClosed
	}
	e, ok := s.snap.results[jobID]
	if !ok {
		return nil, fmt.Errorf("%w: %s has no done record with a result", ErrNoDocs, jobID)
	}
	return e.read(dst, s.f)
}

// PutGame implements Store.
func (s *File) PutGame(id string, g *core.Game) error {
	raw, err := json.Marshal(g)
	if err != nil {
		return fmt.Errorf("store: encode game %s: %w", id, err)
	}
	return s.append(op{Op: "game", ID: id, Game: raw, game: g})
}

// PutJob implements Store.
func (s *File) PutJob(rec JobRecord) error {
	if rec.ID == "" {
		return fmt.Errorf("store: job record without an ID")
	}
	if len(rec.Result) > 0 && !verbatimDoc(rec.Result) {
		res, err := json.Marshal(rec.Result)
		if err != nil {
			return fmt.Errorf("store: encode op: %w", err)
		}
		rec.Result = res
	}
	return s.append(op{Op: "job", Job: &rec})
}

// PutJobDocs implements Store.
func (s *File) PutJobDocs(jobID string, docs engine.Docs) error {
	if jobID == "" {
		return fmt.Errorf("store: range without a job ID")
	}
	return s.append(op{Op: "range", JobID: jobID, docs: docs})
}

// PutJobRange implements Store.
func (s *File) PutJobRange(jobID string, lo int, results []json.RawMessage) error {
	if jobID == "" {
		return fmt.Errorf("store: range without a job ID")
	}
	docs, err := packDocs(results)
	if err != nil {
		return fmt.Errorf("store: range of %s: %w", jobID, err)
	}
	return s.append(op{Op: "range", JobID: jobID, Lo: lo, docs: docs})
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

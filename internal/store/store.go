// Package store persists gocserve's durable state: the game registry, the
// job table with its deterministic results, each job's per-task result
// documents as one prefix (tasks [0, n)), and the v2 handle/refcount
// bookkeeping. Everything the server keeps is a deterministic function of
// (canonical spec JSON, seed), so a persisted job record is a reusable
// artifact — after a restart a finished job serves its cached result
// byte-identically, and a job interrupted mid-run can simply be resubmitted
// under its original spec and seed, its persisted documents prefilled so
// only the tasks past them recompute.
//
// The Store interface is write-through: the server applies every mutation
// to its in-memory tables first and mirrors it into the store, then reads
// the whole state back once at startup (Load). File is the implementation:
// an append-only JSONL operation log in a directory, replayed on open and
// periodically compacted. The log is the only copy of the task documents
// and of each done job's result: memory keeps where they lie in it, and
// ReadDocs and ReadResult read them by offset. Stdlib only. A server
// without a store keeps no second copy of its state at all.
package store

import (
	"encoding/json"
	"errors"
	"maps"
	"sort"

	"gameofcoins/internal/core"
	"gameofcoins/internal/engine"
)

// Job record states. Submitted marks a job that was running (or about to
// run) when the record was last written — after a crash or shutdown it is
// the signal to resubmit. The other three are terminal.
const (
	JobSubmitted = "submitted"
	JobDone      = "done"
	JobFailed    = "failed"
	JobCanceled  = "canceled"
)

// JobRecord is the durable form of one job: everything needed to re-serve
// its result (ID, kind, cached-result document) or to recompute it from
// scratch (canonical spec document + seed — determinism makes the rerun
// byte-identical).
type JobRecord struct {
	// ID is the manager job ID ("job-N"); rehydration preserves it so
	// pre-restart handles and result URLs stay valid.
	ID string `json:"id"`
	// Key is the engine cache key for (Spec, Seed) at Version.
	Key string `json:"key"`
	// Kind is the registered bare spec kind.
	Kind string `json:"kind"`
	// Version is the registered spec version the job resolved to. Records
	// written before the catalog redesign carry no version (0), which
	// rehydration maps to version 1 — the pre-versioning wire format — so
	// old data directories revive without migration.
	Version int `json:"version,omitempty"`
	// Seed roots the job's deterministic randomness.
	Seed uint64 `json:"seed"`
	// Tasks is the job's task fan-out (progress totals after rehydration).
	Tasks int `json:"tasks"`
	// Spec is the canonical, game-resolved spec document.
	Spec json.RawMessage `json:"spec,omitempty"`
	// State is one of the Job* constants above.
	State string `json:"state"`
	// Result is the marshalled result (State == JobDone only). PutJob logs
	// it; Load leaves it out, and ReadResult reads it from the log.
	Result json.RawMessage `json:"result,omitempty"`
	// Error is the terminal error (failed/canceled).
	Error string `json:"error,omitempty"`
}

// Snapshot is the full durable state, as Load returns it.
type Snapshot struct {
	// Games maps content-addressed game IDs to registered games.
	Games map[string]*core.Game
	// Jobs maps job IDs to their latest records, without their results.
	Jobs map[string]JobRecord
	// Handles maps live v2 handle IDs to job IDs.
	Handles map[string]string
	// NextHandle is the highest handle sequence number ever minted — not
	// just the highest live one, so a restart never re-mints a released
	// handle ID (a stale client could otherwise control a stranger's job).
	NextHandle uint64

	// runs is where each job's documents lie, and results where each done
	// record's result lies; only the store's own snapshot keeps them.
	runs    map[string]run
	results map[string]extent
}

// run is where a job's documents, tasks [0, n), lie: its extents, in task
// order. size is their length joined by commas.
type run struct {
	ext     []extent
	n, size int
}

// extent is n consecutive documents joined by commas, size bytes, from
// offset off of the log; or, for documents replay read from a line it did
// not scan (through json.Unmarshal, as a hand-written line's), in mem until
// the next compaction writes them to the log. A done record's result is an
// extent of one document.
type extent struct {
	off     int64
	n, size int
	mem     []byte
}

// ErrNoDocs reports documents the store does not hold: a ReadDocs span past
// the job's prefix (the job has fewer documents, or none: failed, canceled
// or evicted), or the result of a job without a done record.
var ErrNoDocs = errors.New("store: documents not held")

// Store persists the server's durable state. Implementations must be safe
// for concurrent use; the server calls the Put/Delete methods while holding
// its own mutex and never reacquires it from store callbacks, so a store
// may lock freely but must not call back into the server.
type Store interface {
	// Load returns the current state, its job records without their result
	// bytes. The server calls it once at startup; the returned maps are the
	// caller's to keep.
	Load() (Snapshot, error)
	// PutGame upserts a registered game.
	PutGame(id string, g *core.Game) error
	// PutJob upserts a job record keyed by rec.ID, logging rec.Result in the
	// bytes json.Marshal writes for it, which ReadResult returns for a done
	// record. Writing a failed or canceled state clears the job's persisted
	// documents — there is no result they could serve. Done records keep
	// theirs (at most 4,096 per job), so range fetches and resumed result
	// streams survive a restart.
	PutJob(rec JobRecord) error
	// PutJobDocs records a job's per-task results: the encoded documents of
	// tasks [0, docs.Len()), each one JSON value in the bytes json.Marshal
	// writes for it (the engine's encodings are). They extend the job's
	// document prefix: only jobs in the submitted or done state keep
	// documents, documents the prefix already holds keep their first bytes,
	// and the prefix stops at RangeDocCap documents. Only the documents past
	// the prefix's old end are logged, and the store keeps nothing of docs
	// once the call returns.
	PutJobDocs(jobID string, docs engine.Docs) error
	// PutJobRange is PutJobDocs for the documents of tasks
	// [lo, lo+len(results)), given one by one. It checks each document: one
	// json.Marshal would rewrite is kept as json.Marshal's encoding, and one
	// it rejects fails the call, which then records nothing.
	PutJobRange(jobID string, lo int, results []json.RawMessage) error
	// ReadDocs appends the documents of tasks [lo, hi) of the job's prefix
	// to dst, joined by commas — the bytes between the brackets of a ?range=
	// body's results array — and returns the extended slice, the caller's
	// own. It fails with ErrNoDocs unless 0 <= lo < hi <= HeldDocs(jobID).
	ReadDocs(dst []byte, jobID string, lo, hi int) ([]byte, error)
	// HeldDocs returns the length of the job's document prefix: ReadDocs
	// serves the documents of tasks [0, HeldDocs(jobID)), which a restart
	// prefills into a submitted (interrupted) job, so only the missing
	// suffix recomputes, and serves to ?range fetches of a done one.
	HeldDocs(jobID string) int
	// ReadResult appends the result of the job's record to dst as the log
	// holds it and returns the extended slice, the caller's own. It fails
	// with ErrNoDocs unless that record is done and has a result.
	ReadResult(dst []byte, jobID string) ([]byte, error)
	// PutHandle records a live handle claiming a job.
	PutHandle(handle, jobID string) error
	// DeleteHandle removes a released (or evicted) handle.
	DeleteHandle(handle string) error
	// Close releases the store. Further mutations fail.
	Close() error
}

// handleSeq is engine.ParseSeq for "h-N" handle IDs; foreign shapes report
// 0 (they never advance the mint counter).
func handleSeq(handle string) uint64 {
	n, _ := engine.ParseSeq(handle, "h-")
	return n
}

// dropExcessJobs evicts the oldest terminal job records past
// engine.DefaultRetention — the engine manager's retention policy — and
// garbage-collects handles whose job record is gone. Submitted records
// always survive: they are the restart-recovery signal. (The server writes a job record before
// any handle referencing it, so a missing record means the job itself was
// evicted, not that the ops raced.) The documents and results of evicted
// jobs go with them.
func (s *Snapshot) dropExcessJobs() {
	if len(s.Jobs) > engine.DefaultRetention {
		terminal := make([]string, 0, len(s.Jobs))
		for id, rec := range s.Jobs {
			if rec.State != JobSubmitted {
				terminal = append(terminal, id)
			}
		}
		sort.Slice(terminal, func(i, k int) bool { return jobSeq(terminal[i]) < jobSeq(terminal[k]) })
		for _, id := range terminal {
			if len(s.Jobs) <= engine.DefaultRetention {
				break
			}
			delete(s.Jobs, id)
		}
	}
	gone := func(id string) bool { _, ok := s.Jobs[id]; return !ok }
	maps.DeleteFunc(s.Handles, func(_, id string) bool { return gone(id) })
	maps.DeleteFunc(s.runs, func(id string, _ run) bool { return gone(id) })
	maps.DeleteFunc(s.results, func(id string, _ extent) bool { return gone(id) })
}

// jobSeq orders "job-N" IDs by age; foreign shapes sort first (oldest).
func jobSeq(id string) uint64 {
	n, _ := engine.ParseSeq(id, "job-")
	return n
}

func emptySnapshot() Snapshot {
	return Snapshot{
		Games:   map[string]*core.Game{},
		Jobs:    map[string]JobRecord{},
		Handles: map[string]string{},
		runs:    map[string]run{},
		results: map[string]extent{},
	}
}

// clone copies the snapshot so compaction can trim the copy, and Load
// callers keep (and mutate) the maps, without aliasing the store's live
// state. Games are shared pointers — immutable by construction — and runs
// share their extents, which nothing rewrites.
func (s Snapshot) clone() Snapshot {
	out := emptySnapshot()
	maps.Copy(out.Games, s.Games)
	maps.Copy(out.Jobs, s.Jobs)
	maps.Copy(out.runs, s.runs)
	maps.Copy(out.results, s.results)
	maps.Copy(out.Handles, s.Handles)
	out.NextHandle = s.NextHandle
	return out
}

// Package store persists gocserve's durable state: the game registry, the
// job table with its deterministic results, and the v2 handle/refcount
// bookkeeping. Everything the server keeps is a deterministic function of
// (canonical spec JSON, seed), so a persisted job record is a reusable
// artifact — after a restart a finished job serves its cached result
// byte-identically, and a job interrupted mid-run can simply be resubmitted
// under its original spec and seed.
//
// The Store interface is write-through: the server applies every mutation
// to its in-memory tables first and mirrors it into the store, then reads
// the whole state back once at startup (Load). File is the implementation:
// an append-only JSONL operation log in a directory, replayed on open and
// periodically compacted. Stdlib only. A server without a store keeps no
// second copy of its state at all.
package store

import (
	"encoding/json"
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
	// Result is the marshalled result (State == JobDone only).
	Result json.RawMessage `json:"result,omitempty"`
	// Error is the terminal error (failed/canceled).
	Error string `json:"error,omitempty"`
}

// RangeRecord is one persisted span of a running job's result ledger: the
// TaskCoder-encoded documents of tasks [Lo, Lo+len(Results)). The server
// appends one per watermark advance; the store folds adjacent spans on
// apply (first-writer-wins, exactly like the engine's publication), so a
// job's folded records always cover the contiguous prefix [0, watermark).
type RangeRecord struct {
	Lo      int               `json:"lo"`
	Results []json.RawMessage `json:"results"`
}

// End returns the exclusive upper bound of the record's span.
func (r RangeRecord) End() int { return r.Lo + len(r.Results) }

// Snapshot is the full durable state, as Load returns it.
type Snapshot struct {
	// Games maps content-addressed game IDs to registered games.
	Games map[string]*core.Game
	// Jobs maps job IDs to their latest records.
	Jobs map[string]JobRecord
	// Ranges maps job IDs to their persisted per-task result spans. For a
	// *submitted* (interrupted) job they are the completed prefix a restart
	// prefills so only the missing suffix recomputes; for a *done* job they
	// keep ?range fetches and resumed result streams servable across a
	// restart (at most 4,096 documents per job). Failed and canceled
	// records clear their ranges — there is no result to serve.
	Ranges map[string][]RangeRecord
	// Handles maps live v2 handle IDs to job IDs.
	Handles map[string]string
	// NextHandle is the highest handle sequence number ever minted — not
	// just the highest live one, so a restart never re-mints a released
	// handle ID (a stale client could otherwise control a stranger's job).
	NextHandle uint64
}

// addRange folds one range record into the snapshot, then applies the
// per-job rangeDocCap (see trimRanges). Spans are appended in watermark
// order, so the common case extends the previous record in place; an
// overlap keeps the bytes already recorded (first-writer-wins) and only
// the genuinely new suffix lands. Records for jobs that are not live
// "submitted" or "done" ones are dropped — there is no result the spans
// could serve (or the job was evicted), so they are dead weight.
func (s *Snapshot) addRange(jobID string, lo int, results []json.RawMessage) {
	if rec, ok := s.Jobs[jobID]; !ok || (rec.State != JobSubmitted && rec.State != JobDone) {
		return
	}
	if lo < 0 || len(results) == 0 {
		return
	}
	defer s.trimRanges(jobID)
	recs := s.Ranges[jobID]
	if n := len(recs); n > 0 {
		last := &recs[n-1]
		if end := last.End(); lo <= end {
			if lo+len(results) <= end {
				return // fully covered: first writer already won
			}
			last.Results = append(last.Results, results[end-lo:]...)
			s.Ranges[jobID] = recs
			return
		}
	}
	if s.Ranges == nil {
		s.Ranges = map[string][]RangeRecord{}
	}
	s.Ranges[jobID] = append(recs, RangeRecord{Lo: lo, Results: results})
}

// trimRanges enforces the per-job cap: at most rangeDocCap per-task
// documents survive, trimmed from the highest task indices — the low
// contiguous prefix is what restart prefill and download resume consume,
// so it is the part worth keeping.
func (s *Snapshot) trimRanges(jobID string) {
	recs := s.Ranges[jobID]
	total := 0
	for _, r := range recs {
		total += len(r.Results)
	}
	for total > rangeDocCap && len(recs) > 0 {
		last := &recs[len(recs)-1]
		if drop := total - rangeDocCap; drop >= len(last.Results) {
			total -= len(last.Results)
			recs = recs[:len(recs)-1]
		} else {
			last.Results = last.Results[:len(last.Results)-drop]
			total -= drop
		}
	}
	if len(recs) == 0 {
		delete(s.Ranges, jobID)
	} else {
		s.Ranges[jobID] = recs
	}
}

// Store persists the server's durable state. Implementations must be safe
// for concurrent use; the server calls the Put/Delete methods while holding
// its own mutex and never reacquires it from store callbacks, so a store
// may lock freely but must not call back into the server.
type Store interface {
	// Load returns the current state. The server calls it once at startup;
	// the returned maps are the caller's to keep.
	Load() (Snapshot, error)
	// PutGame upserts a registered game.
	PutGame(id string, g *core.Game) error
	// PutJob upserts a job record keyed by rec.ID. Writing a failed or
	// canceled state clears the job's persisted ranges — there is no result
	// they could serve. Done records keep theirs (at most 4,096 documents
	// per job), so range fetches and resumed result streams survive a
	// restart.
	PutJob(rec JobRecord) error
	// PutJobRange appends one span of a job's per-task results: the encoded
	// documents of tasks [lo, lo+len(results)). Only jobs in the submitted
	// or done state accumulate ranges; overlapping spans resolve
	// first-writer-wins, and documents past the 4,096th are trimmed from the
	// highest indices.
	PutJobRange(jobID string, lo int, results []json.RawMessage) error
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
// evicted, not that the ops raced.) It returns how many range records it
// dropped with their jobs.
func (s *Snapshot) dropExcessJobs() (droppedRanges int) {
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
	for h, id := range s.Handles {
		if _, ok := s.Jobs[id]; !ok {
			delete(s.Handles, h)
		}
	}
	for id, recs := range s.Ranges {
		if rec, ok := s.Jobs[id]; !ok || (rec.State != JobSubmitted && rec.State != JobDone) {
			droppedRanges += len(recs)
			delete(s.Ranges, id)
		}
	}
	return droppedRanges
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
		Ranges:  map[string][]RangeRecord{},
		Handles: map[string]string{},
	}
}

// clone copies the snapshot so Load callers can keep (and mutate) the maps
// without aliasing the store's live state. Games are shared pointers —
// immutable by construction.
func (s Snapshot) clone() Snapshot {
	out := emptySnapshot()
	for id, g := range s.Games {
		out.Games[id] = g
	}
	for id, rec := range s.Jobs {
		out.Jobs[id] = rec
	}
	for id, recs := range s.Ranges {
		// Fresh record slice per job; the document bytes are shared
		// read-only, like Result in the job records.
		cp := make([]RangeRecord, len(recs))
		copy(cp, recs)
		out.Ranges[id] = cp
	}
	for h, id := range s.Handles {
		out.Handles[h] = id
	}
	out.NextHandle = s.NextHandle
	return out
}

package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
)

// Remote execution: the engine-side half of the distributed worker fleet
// (internal/dist). A job submitted with a RemoteInfo — its versioned wire
// kind, canonical spec document, and seed — is *distributable*: besides the
// local worker pool, a coordinator may lease chunks off the back of its
// pending deque to remote gocworker processes, which decode the same spec
// through the same registry, fork the same per-task rng streams, and report
// per-task results back over the wire.
//
// Distribution cannot change results. Every task result is a pure function
// of (canonical spec JSON, seed, task index): a remote worker forks
// rng.New(seed).Fork(i) exactly like a local worker does, and per-task
// results round-trip through the spec's TaskCoder byte-exactly (Go's JSON
// float encoding is shortest-round-trip). The lease machinery only decides
// *where* a task runs — publication is first-writer-wins by task index under
// the job's result ledger, so even a task computed twice (an expired lease
// requeued locally racing a late remote report) lands exactly once, with the
// identical value either way.
//
// Failure semantics:
//
//   - Expired or abandoned leases are requeued (RequeueRemote): the tasks
//     rejoin the job's pending deque and local workers (or another remote)
//     recompute them. A SIGKILL'd worker costs its in-flight range, nothing
//     more.
//   - A remote task *error* fails the job (FailRemote), exactly like a local
//     task error would — task errors are deterministic, so a local retry
//     would fail identically.
//   - A canceled or failing job drops its leases: leased counts are zeroed
//     on halt, and late reports publish nothing.

// RemoteInfo is a job's wire identity — what a remote worker needs to
// recompute any of its tasks. The serving layer (which resolved the envelope
// and holds the canonical encoding) attaches it at submission via
// SubmitOptions.Remote; jobs without it never leave the local pool.
type RemoteInfo struct {
	// WireKind is the versioned wire name ("learn_sweep", "learn_sweep@v2")
	// the worker resolves through its own spec registry.
	WireKind string `json:"kind"`
	// Spec is the canonical spec document (CanonicalSpecJSON).
	Spec json.RawMessage `json:"spec"`
	// Seed roots the job's deterministic randomness; task i draws from
	// rng.New(Seed).Fork(i) on every machine.
	Seed uint64 `json:"seed"`
}

// TaskCoder is implemented by specs whose per-task results can cross the
// wire: Encode marshals the value RunTask returned, Decode revives it into
// the exact value Aggregate expects (the decoded value must be
// indistinguishable from a locally computed one — same types, same bits).
// Specs without a TaskCoder still run fine; they just never distribute.
type TaskCoder interface {
	// EncodeTaskResult returns a fresh slice that the implementation never
	// keeps or writes again: the job's result ledger may hold it until the
	// task's document joins the ledger's packed run. Every document the
	// ledger records is this encoding — of a local result, or of a remote
	// report decoded — or one persisted from it; it must be one JSON value
	// with no raw newline, the form json.Marshal writes, as store range
	// lines carry it as it is.
	EncodeTaskResult(res any) (json.RawMessage, error)
	DecodeTaskResult(raw json.RawMessage) (any, error)
}

// decodeTaskAs revives one wire task result as the concrete type T — the
// helper behind the built-in specs' TaskCoder implementations. The decoded
// value is returned as T (not *T) so type assertions in Aggregate see the
// same concrete type a local RunTask returned.
func decodeTaskAs[T any](raw json.RawMessage) (any, error) {
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, err
	}
	return v, nil
}

// RemoteLease is a chunk of one job's pending tasks granted to a remote
// worker: the run token identifying the job inside the engine, the leased
// task indices (in lease order — the flat list the dist wire carries), and
// the job's wire identity.
type RemoteLease struct {
	Run   uint64
	Tasks []int
	Wire  RemoteInfo
}

// ErrRunGone reports a lease operation against a run the engine no longer
// tracks — the job finished, failed, or was canceled while the lease was
// out. Callers drop the lease; there is nothing left to requeue into.
var ErrRunGone = errors.New("engine: run is gone")

// LeaseRemote pops a chunk off the back of the most-backlogged
// distributable job's deque and marks it leased: half the remaining deque
// (rounded up, so local workers always keep feed), capped at maxTasks when
// it is positive. Local workers take from the front, so the chunk is the
// job's highest pending indices, the tasks a streamed prefix needs last:
// a slow or lost lease delays what a client streams least. Chunks shrink
// as jobs drain.
//
// ok is false when no distributable job has pending work.
func (e *Engine) LeaseRemote(maxTasks int) (lease RemoteLease, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var best *runJob
	for _, j := range e.active {
		if j.wire == nil || len(j.pending) == 0 {
			continue
		}
		if best == nil || len(j.pending) > len(best.pending) {
			best = j
		}
	}
	if best == nil {
		return RemoteLease{}, false
	}
	n := (len(best.pending) + 1) / 2
	if maxTasks > 0 && n > maxTasks {
		n = maxTasks
	}
	cut := len(best.pending) - n
	// Copy the tail: a requeue appends into the deque's backing array.
	tasks := slices.Clone(best.pending[cut:])
	best.pending = best.pending[:cut]
	best.leased += n
	return RemoteLease{Run: best.runID, Tasks: tasks, Wire: *best.wire}, true
}

// ReportRemote publishes remotely computed results for a leased run. results
// maps task index → the TaskCoder-encoded result. Decoding is all-or-
// nothing: if any result fails to decode (registry drift the fingerprint
// check should have caught), nothing is published, the leased counts are
// untouched, and the caller should requeue the lease — a local recompute is
// always available and always right.
//
// Publication is first-writer-wins per task index under the job's result
// ledger: results for tasks already published (by a local worker that raced
// a requeued copy, or by a duplicate report) are skipped. The returned count
// is the number of results actually published; the difference from
// len(results) is duplicates, which are harmless by determinism. The ledger
// records the coder's own encoding of each decoded result, not the bytes
// the worker sent: the same value may arrive spelled differently (spaces,
// a trailing newline), and a task's bytes must not depend on where it ran.
func (e *Engine) ReportRemote(run uint64, results map[int]json.RawMessage) (accepted int, err error) {
	e.mu.Lock()
	r := e.runs[run]
	e.mu.Unlock()
	if r == nil {
		return 0, ErrRunGone
	}
	j := r.job
	// Decode outside the locks — decoding is per-result work — and before
	// publishing anything, so a half-decodable report cannot publish a
	// partial range and then force the remainder through the requeue path
	// twice.
	idxs := make([]int, 0, len(results))
	for i := range results {
		if i < 0 || i >= j.total {
			return 0, fmt.Errorf("engine: report for task %d of a %d-task job", i, j.total)
		}
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	decoded := make([]any, len(idxs))
	docs := make([]json.RawMessage, len(idxs))
	for k, i := range idxs {
		out, derr := r.coder.DecodeTaskResult(results[i])
		if derr == nil {
			docs[k], derr = r.coder.EncodeTaskResult(out)
		}
		if derr != nil {
			return 0, fmt.Errorf("engine: decode remote result for %s task %d: %w", r.spec.Kind(), i, derr)
		}
		decoded[k] = out
	}
	j.mu.Lock()
	for k, i := range idxs {
		if j.publishLocked(e, r, i, decoded[k], docs[k], false) {
			accepted++
		}
	}
	j.mu.Unlock()
	e.mu.Lock()
	if r.leased -= len(idxs); r.leased < 0 {
		r.leased = 0 // a halt zeroed it while this report was in flight
	}
	e.completed += uint64(accepted)
	finished := e.finishIfIdleLocked(r)
	e.mu.Unlock()
	if finished {
		r.retire()
	}
	return accepted, nil
}

// RequeueRemote returns leased tasks to their job's pending deque — the
// recovery path for expired leases, abandoned (gracefully shut down)
// workers, and undecodable reports. The tasks rejoin the back of the deque,
// where they came from, and the worker pool is topped back up, so a requeue
// after the local pool drained still finishes the job. Requeueing into a
// finished or halted run only fixes its leased count.
func (e *Engine) RequeueRemote(run uint64, tasks []int) {
	e.mu.Lock()
	r := e.runs[run]
	if r == nil || len(tasks) == 0 {
		e.mu.Unlock()
		return
	}
	if r.leased -= len(tasks); r.leased < 0 {
		r.leased = 0
	}
	// A halted run must not have its deque refilled: workers would pull
	// doomed tasks while the halt hook runs.
	if r.ctx.Err() == nil {
		r.pending = append(r.pending, tasks...)
		e.topUpLocked(len(r.pending))
	}
	finished := e.finishIfIdleLocked(r)
	e.mu.Unlock()
	if finished {
		r.retire()
	}
}

// FailRemote fails a leased run with a remote task error, exactly like a
// local task error would: the job halts, pending work is dropped, and the
// job fails with the error. Task errors are deterministic functions of the
// same (spec, seed, index) triple the local pool would run, so requeueing
// instead would only recompute the identical failure.
func (e *Engine) FailRemote(run uint64, msg string) {
	e.mu.Lock()
	r := e.runs[run]
	e.mu.Unlock()
	if r == nil {
		return
	}
	j := r.job
	j.mu.Lock()
	j.failLocked(r, fmt.Errorf("engine: %s remote task: %s", r.spec.Kind(), msg))
	j.mu.Unlock()
}

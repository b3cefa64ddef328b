// Package dist extends the engine's work-stealing dispatcher across the
// network: a lease-based coordinator (embedded in gocserve) hands contiguous
// task ranges of distributable jobs to remote gocworker processes, which
// execute them with the same engine and stream results back.
//
// The protocol is three POSTs over the server's existing JSON wire:
//
//	join   — worker presents its catalog fingerprint; a drifted worker
//	         (different kinds or versions registered) is refused with 409
//	         instead of silently computing wrong-version tasks.
//	lease  — worker asks for work; the coordinator pops a range off the
//	         back (the highest pending indices) of the most-backlogged
//	         distributable job's deque (engine.LeaseRemote) and stamps it
//	         with a deadline.
//	report — worker streams completed results back. Partial reports double
//	         as heartbeats (each one extends the lease deadline); the final
//	         report closes the lease. A worker shutting down gracefully
//	         reports abandon instead, returning its unfinished range.
//
// Leases carry deadlines. A worker that dies — SIGKILL, network partition,
// kernel panic — simply stops reporting; when the deadline passes, the
// coordinator's sweep requeues the unreported remainder of the range into
// the job's deque, where local workers or other remotes recompute it.
// Determinism makes every recovery path byte-exact: task i is always
// rng.New(seed).Fork(i) applied to the same canonical spec, so it does not
// matter who computes it, how many times, or in what order — first writer
// wins and all writers agree.
//
// The coordinator holds no durable state. On coordinator restart the PR 3
// store resubmits interrupted jobs with full pending queues — every
// previously leased task is simply pending again — and stale reports from
// surviving workers get 410 Gone, telling the worker to drop the lease.
package dist

import (
	"encoding/json"
	"errors"
	"time"
)

// Config tunes the coordinator. The zero value selects the defaults.
type Config struct {
	// LeaseTTL is how long a worker may go without reporting (results or an
	// empty heartbeat) before its lease expires and is requeued.
	LeaseTTL time.Duration
	// MaxLeaseTasks caps the task count of one lease.
	MaxLeaseTasks int
	// PollInterval is the idle-poll cadence advertised to workers when no
	// work is available.
	PollInterval time.Duration
}

// Defaults for Config's zero fields.
const (
	DefaultLeaseTTL      = 10 * time.Second
	DefaultMaxLeaseTasks = 256
	DefaultPollInterval  = 250 * time.Millisecond
)

func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = DefaultLeaseTTL
	}
	if c.MaxLeaseTasks <= 0 {
		c.MaxLeaseTasks = DefaultMaxLeaseTasks
	}
	if c.PollInterval <= 0 {
		c.PollInterval = DefaultPollInterval
	}
	return c
}

// Protocol errors. The HTTP layer maps them to status codes (409, 404, 410)
// and the HTTP transport maps those codes back to these values, so worker
// logic can switch on errors.Is regardless of transport.
var (
	// ErrFingerprint: the worker's spec catalog differs from the
	// coordinator's. Fatal for the worker — rebuild it, don't retry.
	ErrFingerprint = errors.New("dist: catalog fingerprint mismatch")
	// ErrUnknownWorker: the coordinator does not know this worker ID (it
	// restarted, or the worker was expired for silence). Re-join.
	ErrUnknownWorker = errors.New("dist: unknown worker")
	// ErrUnknownLease: the lease is gone (expired, job finished or
	// canceled, coordinator restarted). Drop it and ask for new work.
	ErrUnknownLease = errors.New("dist: unknown lease")
)

// JoinRequest registers a worker with the coordinator.
type JoinRequest struct {
	// Name is a human label for the fleet view ("host-3"); optional.
	Name string `json:"name,omitempty"`
	// Cores is the worker's local engine parallelism; informational.
	Cores int `json:"cores,omitempty"`
	// Fingerprint is the worker's engine.CatalogFingerprint().
	Fingerprint string `json:"fingerprint"`
}

// JoinResponse assigns the worker its identity and cadence.
type JoinResponse struct {
	WorkerID string `json:"worker_id"`
	// LeaseTTLMillis tells the worker how often it must report to keep a
	// lease alive; workers heartbeat at a fraction of it.
	LeaseTTLMillis int64 `json:"lease_ttl_ms"`
	// PollMillis is the suggested idle-poll interval when no work exists.
	PollMillis int64 `json:"poll_ms"`
}

// LeaseRequest asks for a range of work.
type LeaseRequest struct {
	WorkerID string `json:"worker_id"`
}

// Lease is a granted task range: everything a worker needs to compute the
// tasks (the job's wire identity) plus the lease bookkeeping.
type Lease struct {
	ID string `json:"id"`
	// Kind is the versioned wire kind; the worker resolves it through its
	// own registry (which the join fingerprint proved identical).
	Kind string `json:"kind"`
	// Spec is the canonical spec document.
	Spec json.RawMessage `json:"spec"`
	// Seed roots the job's rng tree; task i uses rng.New(Seed).Fork(i).
	Seed uint64 `json:"seed"`
	// Tasks are the leased task indices.
	Tasks []int `json:"tasks"`
	// TTLMillis is the report deadline for this lease.
	TTLMillis int64 `json:"ttl_ms"`
}

// TaskResult is one completed task on the wire.
type TaskResult struct {
	Index  int             `json:"index"`
	Result json.RawMessage `json:"result"`
}

// ReportRequest streams lease progress back to the coordinator. A report
// with only Results is a partial (and a heartbeat — it extends the
// deadline); an empty partial is a pure heartbeat. Done closes the lease
// normally, Abandon returns unfinished tasks for requeueing (graceful
// worker shutdown), Error fails the job (remote task errors are
// deterministic; retrying locally would fail identically).
type ReportRequest struct {
	WorkerID string       `json:"worker_id"`
	LeaseID  string       `json:"lease_id"`
	Results  []TaskResult `json:"results,omitempty"`
	Done     bool         `json:"done,omitempty"`
	Abandon  bool         `json:"abandon,omitempty"`
	Error    string       `json:"error,omitempty"`
}

// ReportResponse acknowledges a report.
type ReportResponse struct {
	// Accepted counts results published to the job; Duplicates counts
	// results for tasks that had already landed (requeue races — harmless
	// by determinism).
	Accepted   int `json:"accepted"`
	Duplicates int `json:"duplicates,omitempty"`
	// Closed reports that the lease is finished from the coordinator's side
	// (final report, abandon, or error).
	Closed bool `json:"closed,omitempty"`
}

// Transport is how a worker reaches its coordinator: HTTP (NewHTTP), or a
// Coordinator called in-process in tests.
type Transport interface {
	Join(req JoinRequest) (JoinResponse, error)
	Lease(req LeaseRequest) (*Lease, error)
	Report(rep ReportRequest) (ReportResponse, error)
}

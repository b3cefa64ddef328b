// Package engine is the concurrent experiment engine: a deterministic
// worker-pool job runner for the library's heavy workloads — learning sweeps
// across schedulers and seeds, reward-design runs, market-simulator replays,
// and equilibrium enumeration over random games.
//
// Determinism is the design center. A job is a Spec that enumerates a fixed
// list of independent tasks; the engine forks one rng stream per task index
// from the job seed (rng.Rand.Fork, a pure function of parent state and
// index), runs tasks on however many workers are available, stores results
// by task index, and aggregates them in index order. Worker count and
// scheduling order therefore cannot influence the result: a sweep run on one
// worker is bit-identical to the same sweep on eight.
//
// The engine layers:
//
//	Spec     — a typed, deterministic job (LearnSweep, DesignSweep, …)
//	Job      — one job's record: state, progress, result ledger, outcome
//	Engine   — runs each Job over a shared size-aware work-stealing
//	           dispatcher, publishing every task completion into it
//	Manager  — tracks Jobs by ID for asynchronous submission (gocserve)
//
// Scheduling is size-aware and fair: specs that implement Sizer have their
// tasks ordered longest-processing-time-first (so a fat straggler starts
// early instead of last), and concurrent Runs share the worker pool evenly —
// each take goes to the active job with the fewest tasks in flight, so a
// huge job submitted first cannot starve a small one submitted later. None
// of this can perturb results: scheduling chooses *when* a task runs, never
// what it computes.
package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"gameofcoins/internal/rng"
)

// Spec is a deterministic, parallelizable job. Implementations must make
// RunTask a pure function of (task index, the forked generator, the spec's
// own immutable fields): no shared mutable state across tasks. Aggregate is
// always called with results in task-index order.
type Spec interface {
	// Kind names the job type in statuses, caches, and error messages.
	Kind() string
	// Tasks returns the number of independent tasks the job fans out to.
	Tasks() int
	// RunTask executes task i with its private deterministic generator.
	// Implementations should poll ctx in long loops so cancellation can
	// interrupt a job mid-task, not just between tasks.
	RunTask(ctx context.Context, i int, r *rng.Rand) (any, error)
	// Aggregate combines the per-task results (index order) into the job
	// result.
	Aggregate(results []any) (any, error)
}

// Validator is implemented by specs that can reject bad parameters before
// any task runs. Engine.Run and Manager.Submit call it when present.
type Validator interface{ Validate() error }

// MaxTasksPerJob caps the task fan-out of a single job. It bounds the
// engine's up-front per-task bookkeeping so a hostile or fat-fingered spec
// cannot allocate unbounded memory before the first task runs.
const MaxTasksPerJob = 1 << 20

// Progress reports how far a running job has advanced. Done counts finished
// tasks and is monotone per job (the dispatcher serializes publication).
// Running and Queued expose the scheduler's view as of the last completed
// task: tasks executing on workers and tasks still waiting in the job's
// deque. They are omitted when zero, so terminal statuses stay compact.
type Progress struct {
	Done    int `json:"done"`
	Total   int `json:"total"`
	Running int `json:"running,omitempty"`
	Queued  int `json:"queued,omitempty"`
	// Watermark is the contiguous completed prefix of the job's result
	// ledger: every task below it has its encoded result recorded. Zero for
	// jobs without a ledger: Engine.Run jobs, specs that are not TaskCoders,
	// and restored jobs with no persisted results.
	Watermark int `json:"watermark,omitempty"`
}

// Engine runs Specs over a shared work-stealing dispatcher (sched.go): up to
// `workers` worker goroutines — spawned on demand, retired when the engine
// drains — pull tasks from per-job deques, fair-sharing the pool across
// every concurrent Run. The zero value is not usable; construct with New.
// An Engine is safe for concurrent use, and the worker cap is global: a
// server running many jobs at once never executes more than `workers` tasks
// simultaneously.
type Engine struct {
	workers int

	mu        sync.Mutex
	active    []*runJob // guarded by mu; jobs with pending or in-flight tasks, submit order
	rr        int       // guarded by mu; rotating fair-share cursor over active
	live      int       // guarded by mu; worker goroutines currently running
	steals    uint64    // guarded by mu; cumulative cross-job takes
	completed uint64    // guarded by mu; cumulative finished tasks

	// Remote task source (remote.go): distributable jobs keyed by run token,
	// plus lifetime lease counters. The observed-cost model (sched.go) feeds
	// both weighted fair share and lease sizing.
	runs           map[uint64]*runJob  // guarded by mu
	nextRun        uint64              // guarded by mu
	obs            map[string]*obsCost // guarded by mu
	leasesGranted  uint64              // guarded by mu
	remoteDone     uint64              // guarded by mu
	remoteRequeued uint64              // guarded by mu

	// share is the admission-control quota (SetClientShare): the cap on any
	// one client's share of total in-flight cost, 0 when uncapped.
	share float64 // guarded by mu
}

// New returns an engine with the given worker count; workers <= 0 selects
// GOMAXPROCS. The engine spawns no goroutines until a job arrives and holds
// none while idle.
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{workers: workers}
}

// Run executes spec synchronously and returns its aggregated result.
// seed roots the deterministic stream tree: task i draws from
// rng.New(seed).Fork(i), so the result is independent of worker count and
// scheduling order. onProgress, if non-nil, is invoked after each completed
// task; invocations are serialized per job and stop the moment the job
// starts failing or is canceled, and every invocation happens before Run
// returns. A canceled Run returns the first real task error if one caused
// the failure, otherwise the cancellation wrapped as "engine: <kind>: …"
// (errors.Is(err, context.Canceled) still holds).
func (e *Engine) Run(ctx context.Context, spec Spec, seed uint64, onProgress func(Progress)) (any, error) {
	r, err := e.newRun(ctx, spec, seed, SubmitOptions{}, false)
	if err != nil {
		return nil, err
	}
	r.onProgress = onProgress
	j := r.job
	e.start(r)
	<-j.finished
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateCanceled:
		return nil, fmt.Errorf("engine: %s: %w", spec.Kind(), ctx.Err())
	case StateFailed:
		return nil, j.err
	}
	return j.result, nil
}

// errHalted is the cancellation cause a run gives its own context when a task
// fails, so retire can tell that from a cancellation that came from outside.
var errHalted = errors.New("engine: run halted by a task error")

// newRun is the one constructor behind Engine.Run and Manager submissions.
// It validates spec and bounds its task count, then builds the Job and the
// run that computes it; start hands the run to the dispatcher. ledger gives
// a TaskCoder spec's job a result ledger, which is also what lets the job
// take a prefill and leave the machine (opts.Prefill, opts.Remote): Manager
// jobs keep one, Engine.Run jobs do not, so their results are never encoded.
func (e *Engine) newRun(ctx context.Context, spec Spec, seed uint64, opts SubmitOptions, ledger bool) (*runJob, error) {
	if v, ok := spec.(Validator); ok {
		if err := v.Validate(); err != nil {
			return nil, fmt.Errorf("engine: invalid %s spec: %w", spec.Kind(), err)
		}
	}
	n := spec.Tasks()
	if n < 0 {
		return nil, fmt.Errorf("engine: %s spec reports %d tasks", spec.Kind(), n)
	}
	if n > MaxTasksPerJob {
		// The per-task bookkeeping is allocated up front; an absurd task
		// count (e.g. from an unauthenticated gocserve request) must fail
		// the submission, not OOM the process.
		return nil, fmt.Errorf("engine: %s spec reports %d tasks, cap is %d", spec.Kind(), n, MaxTasksPerJob)
	}
	// Until the first task completes, the whole job is queue: the scheduler
	// snapshot starts at (running 0, queued n).
	j := &Job{kind: spec.Kind(), total: n, state: StateRunning, queued: n, finished: make(chan struct{})}
	r := &runJob{
		job:  j,
		spec: spec,
		// Fork is a pure function of (parent state, index) and never mutates
		// the parent, so workers fork lazily from the shared base: concurrent
		// reads of immutable state, no per-task pre-allocation.
		base:    rng.New(seed),
		pending: orderTasks(spec, n),
		costKey: spec.Kind(),
		client:  opts.Client,
		weight:  opts.Weight,
	}
	if n > 0 {
		r.results = make([]any, n)
	}
	r.ctx, r.cancel = context.WithCancelCause(ctx)
	r.sizer, _ = spec.(Sizer)
	j.run = r
	if opts.Remote != nil {
		r.costKey = opts.Remote.WireKind
	}
	coder, ok := spec.(TaskCoder)
	if !ok || !ledger || n == 0 {
		return r, nil
	}
	r.coder = coder
	j.docs = make([]json.RawMessage, n)
	r.wire = opts.Remote
	if len(opts.Prefill) == 0 {
		return r, nil
	}
	// Restart prefill: already-computed results are published before the
	// run starts and their indices leave the deque, so only the missing
	// tasks run. An entry that fails to decode is recomputed instead, which
	// is always correct (determinism makes the recomputed value identical).
	// Decoding is the spec's code, so it runs outside the job mutex.
	for i := range n {
		raw, ok := opts.Prefill[i]
		if !ok {
			continue
		}
		if out, err := coder.DecodeTaskResult(raw); err == nil {
			j.mu.Lock()
			j.publishLocked(e, r, i, out, raw, false)
			j.mu.Unlock()
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	r.pending = slices.DeleteFunc(r.pending, func(i int) bool { return j.docs[i] != nil })
	j.queued = len(r.pending)
	return r, nil
}

// start hands a new run to the dispatcher. A run with nothing to do — zero
// tasks, every task prefilled, or a context canceled already — retires at
// once on the caller's goroutine.
func (e *Engine) start(r *runJob) {
	if r.ctx.Err() == nil && len(r.pending) > 0 {
		e.enqueue(r)
		return
	}
	r.retire()
}

// retire finishes the job of a run that has left the dispatcher: its caller
// got true from finishIfIdleLocked, or start had nothing to enqueue. It runs
// on whichever goroutine that was — a worker, a remote report, the halt
// hook, the submitter — and aggregates there, so no goroutine waits on a
// job. The task error that doomed a job wins over the cancellation it
// triggered; a cancellation from outside (the caller's context, Job.Cancel,
// Manager.Close) otherwise ends the job canceled.
func (r *runJob) retire() {
	if r.stop != nil {
		r.stop()
	}
	external := r.ctx.Err() != nil && context.Cause(r.ctx) != errHalted
	r.cancel(errHalted) // release the run's context from its parent
	j := r.job
	j.mu.Lock()
	err := j.err
	j.mu.Unlock()
	var res any
	state := StateFailed
	switch {
	case err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded):
		// A real task error wins; one that is itself a cancellation fails
		// the job only if nothing outside canceled it.
	case external:
		state, err = StateCanceled, context.Canceled
	case err == nil:
		if res, err = aggregate(r.spec, r.results); err == nil {
			state = StateDone
		}
	}
	j.finish(state, res, err)
}

// runTask and aggregate convert spec panics into job errors: a bad spec
// must fail its own job, never crash the process hosting the engine (a
// panic on a worker goroutine is otherwise unrecoverable).
func runTask(ctx context.Context, spec Spec, i int, r *rng.Rand) (out any, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("task panicked: %v", p)
		}
	}()
	return spec.RunTask(ctx, i, r)
}

func aggregate(spec Spec, results []any) (out any, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("engine: %s aggregate panicked: %v", spec.Kind(), p)
		}
	}()
	return spec.Aggregate(results)
}

// Func adapts closures to Spec, for one-off jobs (the experiment suite uses
// it to fan E1–E13 across workers). If Agg is nil the per-task results are
// returned as a []any in task order. If Cost is nil every task costs the
// same, which keeps submission order (FIFO); set it to let the scheduler
// order tasks longest-first.
type Func struct {
	Name string
	N    int
	Task func(ctx context.Context, i int, r *rng.Rand) (any, error)
	Agg  func(results []any) (any, error)
	Cost func(i int) float64
}

// Kind implements Spec.
func (f Func) Kind() string {
	if f.Name == "" {
		return "func"
	}
	return f.Name
}

// Tasks implements Spec.
func (f Func) Tasks() int { return f.N }

// RunTask implements Spec.
func (f Func) RunTask(ctx context.Context, i int, r *rng.Rand) (any, error) {
	return f.Task(ctx, i, r)
}

// Aggregate implements Spec.
func (f Func) Aggregate(results []any) (any, error) {
	if f.Agg == nil {
		return results, nil
	}
	return f.Agg(results)
}

// TaskCost implements Sizer. With no Cost hook every task weighs the same
// and the stable LPT sort degrades to index order.
func (f Func) TaskCost(i int) float64 {
	if f.Cost == nil {
		return 1
	}
	return f.Cost(i)
}

package engine

import (
	"context"
	"encoding/json"
	"fmt"

	"gameofcoins/internal/rng"
)

// runJob is what a job needs only while it runs: the spec and its rng base,
// the per-task results, and its scheduling state on the engine's shared
// dispatcher — a deque of pending task indices, in index order, that
// workers pull from, plus the counts that decide when the run retires. It
// points at its Job, and every task completion is published straight into
// it (Job.publishLocked). The dispatcher drops a runJob when the run
// retires, so a finished job keeps only its record.
type runJob struct {
	job  *Job
	spec Spec
	// ctx is canceled when the run halts: from outside (the caller's
	// context, Job.Cancel, Manager.Close) or by its own first task error,
	// with cause errHalted. stop unregisters the halt hook enqueue attaches
	// to it.
	ctx    context.Context
	cancel context.CancelCauseFunc
	stop   func() bool
	base   *rng.Rand
	// results holds each published task's value by index, written under the
	// job mutex; nil for a zero-task job.
	results    []any
	onProgress func(Progress) // Engine.Run's callback, invoked on publication

	// Admission-control attributes, set once at submission and immutable
	// after: client names the submitting tenant ("" = anonymous) for quota
	// accounting, weight scales the job's urgency in fair-share comparisons
	// (<= 0 means the default 1.0). Both bias which pending task a worker
	// takes next — they can never reach results.
	client string
	weight float64

	// Wire identity and codec — set once before enqueue, immutable after.
	// coder is non-nil whenever the job keeps a result ledger (a Manager
	// job whose spec implements TaskCoder); wire is additionally non-nil for
	// distributable jobs (RemoteInfo supplied), and only those are published
	// to the remote task source.
	wire  *RemoteInfo
	coder TaskCoder
	runID uint64 // key into e.runs while the job is live

	// Guarded by the engine mutex.
	pending  []int // task indices in index order; popped from the front
	inFlight int   // tasks taken by workers and not yet returned
	leased   int   // tasks out on remote leases, not yet reported or requeued
	removed  bool  // off the active list; retired exactly once
}

// SchedStats is a point-in-time snapshot of the engine's shared dispatcher,
// exposed through gocserve's /healthz so queue pressure and cross-job
// migration are observable without submitting anything.
type SchedStats struct {
	// Workers is the configured worker cap (the fair-share denominator).
	Workers int `json:"workers"`
	// ActiveJobs counts jobs with pending or in-flight tasks.
	ActiveJobs int `json:"active_jobs"`
	// QueuedTasks counts tasks waiting in per-job deques.
	QueuedTasks int `json:"queued_tasks"`
	// RunningTasks counts tasks currently executing on workers.
	RunningTasks int `json:"running_tasks"`
	// Steals counts cross-job takes: a worker whose previous job had no
	// pending work (or more than its fair share) pulling from another live
	// job's deque. High steal rates mean heterogeneous jobs are being
	// rebalanced, which is the scheduler doing its work, not a problem.
	Steals uint64 `json:"steals"`
	// CompletedTasks counts tasks finished and published to their job since
	// the engine was built; errored tasks and completions discarded after a
	// job halts are excluded, so the counter always equals the sum of
	// progress every job ever reported.
	CompletedTasks uint64 `json:"completed_tasks"`
	// Clients maps named submitting clients to their live dispatcher load.
	// Anonymous jobs (no client identity) are not listed, so the map is
	// omitted entirely on a server running without admission control.
	Clients map[string]ClientLoad `json:"clients,omitempty"`
}

// ClientLoad is one named client's live dispatcher footprint plus the
// in-flight share cap the quota policy holds it to (0 = uncapped).
type ClientLoad struct {
	// Jobs counts the client's active jobs.
	Jobs int `json:"jobs"`
	// InFlight counts the client's tasks running locally or out on leases —
	// the quantity the quota compares against ShareCap.
	InFlight int `json:"in_flight"`
	// ShareCap is the client's configured share of all in-flight tasks.
	ShareCap float64 `json:"share_cap,omitempty"`
}

// Stats snapshots the dispatcher.
func (e *Engine) Stats() SchedStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := SchedStats{
		Workers:        e.workers,
		ActiveJobs:     len(e.active),
		Steals:         e.steals,
		CompletedTasks: e.completed,
	}
	for _, j := range e.active {
		st.QueuedTasks += len(j.pending)
		st.RunningTasks += j.inFlight
		if j.client == "" {
			continue
		}
		if st.Clients == nil {
			st.Clients = make(map[string]ClientLoad)
		}
		cl := st.Clients[j.client]
		cl.Jobs++
		cl.InFlight += j.inFlight + j.leased
		cl.ShareCap = e.share
		st.Clients[j.client] = cl
	}
	return st
}

// SetClientShare configures the per-client in-flight quota enforced in
// take: share caps every client's share of the engine's in-flight tasks,
// running locally or out on leases. It is a fraction in (0, 1); zero or
// anything outside that range means uncapped. Enforcement is
// work-conserving — a client is only passed over while at least one other
// client has runnable work — so the quota shapes contention and can never
// idle workers or strand a job.
func (e *Engine) SetClientShare(share float64) {
	if share <= 0 || share >= 1 {
		share = 0
	}
	e.mu.Lock()
	e.share = share
	e.mu.Unlock()
}

// overQuotaLocked computes the set of clients currently holding more than
// their configured share of all in-flight tasks — the clients take's first
// pass skips. It returns nil whenever enforcement cannot matter: no quota
// configured, nothing in flight, or fewer than two distinct clients active
// (a lone client over its share with nobody contending would only idle
// workers). If every client with runnable state is over — possible with
// small shares — the quota is likewise waived, keeping take work-conserving.
// Callers must hold e.mu.
func (e *Engine) overQuotaLocked() map[string]bool {
	if e.share == 0 {
		return nil
	}
	held := make(map[string]int)
	total := 0
	for _, j := range e.active {
		n := j.inFlight + j.leased
		held[j.client] += n
		total += n
	}
	if len(held) < 2 || total == 0 {
		return nil
	}
	var over map[string]bool
	for client, n := range held {
		if float64(n) > e.share*float64(total) {
			if over == nil {
				over = make(map[string]bool)
			}
			over[client] = true
		}
	}
	if len(over) == len(held) {
		return nil
	}
	return over
}

// enqueue publishes a run to the dispatcher and tops up the worker pool.
// Workers are spawned on demand and exit when the engine drains, so an idle
// Engine holds no goroutines — construction stays free and nothing leaks.
// The run's cancellation is a context.AfterFunc hook, not a goroutine, so a
// queued job holds none either.
func (e *Engine) enqueue(j *runJob) {
	e.mu.Lock()
	e.nextRun++
	j.runID = e.nextRun
	if j.wire != nil {
		if e.runs == nil {
			e.runs = make(map[uint64]*runJob)
		}
		e.runs[j.runID] = j
	}
	e.active = append(e.active, j)
	// Registered under e.mu: a hook fired by a context canceled meanwhile
	// runs on its own goroutine and waits for this section, so it always
	// finds the run enqueued.
	j.stop = context.AfterFunc(j.ctx, func() { e.halt(j) })
	e.topUpLocked(len(j.pending))
	e.mu.Unlock()
}

// topUpLocked spawns workers until the pool is full or the given pending
// count is covered. Callers must hold e.mu. Both enqueue and the remote
// requeue path use it: a requeue can arrive after the pool fully retired,
// and the returned tasks must not strand.
func (e *Engine) topUpLocked(pending int) {
	for ; e.live < e.workers && pending > 0; pending-- {
		e.live++
		go e.worker()
	}
}

// worker is one persistent scheduling loop: take a task under the fair-share
// policy, execute it, repeat; exit when no job anywhere has pending work.
// The worker owns one generator and re-seeds it for every task (see
// Spec.RunTask), so no task allocates its own.
func (e *Engine) worker() {
	var last *runJob
	gen := new(rng.Rand)
	for {
		j, task, ok := e.take(&last)
		if !ok {
			return
		}
		e.execute(j, task, gen)
	}
}

// take picks the next (job, task) by the engine's one dispatch rule: among
// jobs with pending work, the one with the fewest tasks in flight, divided
// by its priority weight, wins (lessLoaded), so concurrent jobs split the
// worker pool evenly instead of the first-submitted job monopolizing it.
// Ties go round-robin from a rotating cursor, so equal jobs alternate —
// also on one worker, where every take is a tie. Within the chosen job,
// tasks pop from the front of the deque, lowest index first. A take from a
// different still-live job than the worker's previous one counts as a
// steal.
//
// Client quotas gate the scan: the first pass skips jobs whose client is
// over its in-flight share (overQuotaLocked), and only if that pass
// finds nothing runnable does a second pass consider everyone — so a quota
// reshapes contention but never idles a worker that has work available
// (work conservation), and an over-quota client's own jobs still drain.
//
// take also owns worker retirement: when nothing is pending anywhere it
// decrements the live count and reports false in the same critical section
// enqueue spawns under, so a job submitted while workers wind down always
// sees an accurate pool and tops it back up.
func (e *Engine) take(lastp **runJob) (*runJob, int, bool) {
	last := *lastp
	e.mu.Lock()
	defer e.mu.Unlock()
	over := e.overQuotaLocked()
	var best *runJob
	bestIdx := -1
	if n := len(e.active); n > 0 {
		start := e.rr % n
		for pass := 0; pass < 2 && best == nil; pass++ {
			if pass == 1 && len(over) == 0 {
				break // first pass already considered every job
			}
			for k := 0; k < n; k++ {
				idx := (start + k) % n
				j := e.active[idx]
				if len(j.pending) == 0 {
					continue
				}
				if pass == 0 && over[j.client] {
					continue
				}
				if best == nil || lessLoaded(j, best) {
					best, bestIdx = j, idx
				}
			}
		}
	}
	if best == nil {
		e.live--
		return nil, 0, false
	}
	if last != nil && best != last && !last.removed {
		e.steals++
	}
	e.rr = bestIdx + 1
	task := best.pending[0]
	best.pending = best.pending[1:]
	best.inFlight++
	*lastp = best
	return best, task, true
}

// lessLoaded reports whether a carries strictly less load than b: its
// in-flight task count divided by its priority weight. A weight-2 job looks
// half as loaded as a weight-1 job at the same count, so it wins takes until
// it holds roughly twice the share; with every weight at the default 1.0 it
// compares plain counts. Counts are not weighted by task length: whatever
// the tasks cost, a job holding k of the pool's workers holds about k
// workers' worth of time. Callers must hold e.mu.
func lessLoaded(a, b *runJob) bool {
	wa, wb := a.weight, b.weight
	if wa <= 0 {
		wa = 1
	}
	if wb <= 0 {
		wb = 1
	}
	return float64(a.inFlight)/wa < float64(b.inFlight)/wb
}

// execute runs one task on gen, re-seeded to the task's stream
// r.base.Fork(task), and publishes its completion. Publication order is
// load-bearing: the task is published before this worker's in-flight
// decrement, so a run can only retire — and its job finish — after every
// completed task has been published.
func (e *Engine) execute(r *runJob, task int, gen *rng.Rand) {
	r.base.ForkInto(gen, uint64(task))
	out, err := runTask(r.ctx, r.spec, task, gen)

	// Encode for the ledger outside the locks — encoding is per-task work.
	// An encode failure fails the task, exactly as it does on a remote
	// worker, so a job's outcome never depends on where its tasks ran.
	var raw json.RawMessage
	if err == nil && r.coder != nil {
		if raw, err = r.coder.EncodeTaskResult(out); err != nil {
			err = fmt.Errorf("encode: %w", err)
		}
	}

	j := r.job
	published := false
	j.mu.Lock()
	if err != nil {
		j.failLocked(r, fmt.Errorf("engine: %s task %d: %w", r.spec.Kind(), task, err))
	} else {
		published = j.publishLocked(e, r, task, out, raw, true)
	}
	j.mu.Unlock()

	e.mu.Lock()
	if err != nil {
		// The job is failing: drop its queue here, synchronously, so no
		// worker starts another of its doomed tasks before the halt hook runs.
		r.pending = nil
	}
	r.inFlight--
	if published {
		e.completed++
	}
	finished := e.finishIfIdleLocked(r)
	e.mu.Unlock()
	if finished {
		r.retire()
	}
}

// halt is the run's cancellation hook (enqueue registers it with
// context.AfterFunc): whatever canceled the run, it drops the pending queue
// and any outstanding leases, and retires the run if no task is in flight
// (in-flight tasks observe the canceled context and drain through execute
// as usual). Zeroing the leased count means cancellation never waits on a
// remote lease's deadline — late reports for a halted run publish nothing.
func (e *Engine) halt(r *runJob) {
	e.mu.Lock()
	r.pending = nil
	r.leased = 0
	finished := e.finishIfIdleLocked(r)
	e.mu.Unlock()
	if finished {
		r.retire()
	}
}

// finishIfIdleLocked takes a drained run off the active list and the run
// table. It reports true exactly once per run — the caller that got true
// retires it. Callers must hold e.mu.
func (e *Engine) finishIfIdleLocked(j *runJob) bool {
	if j.removed || len(j.pending) > 0 || j.inFlight > 0 || j.leased > 0 {
		return false
	}
	j.removed = true
	delete(e.runs, j.runID)
	for i, a := range e.active {
		if a == j {
			e.active = append(e.active[:i], e.active[i+1:]...)
			break
		}
	}
	return true
}

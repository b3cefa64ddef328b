package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"gameofcoins/internal/rng"
)

// Sizer is implemented by specs that can estimate per-task cost up front.
// When a spec implements it, the engine orders the job's tasks
// longest-processing-time-first (LPT), so one fat straggler is started early
// instead of being discovered last with every other worker already idle.
// Costs are relative — only their ordering matters — and they must be pure
// functions of the task index and the spec's immutable fields. Task ordering
// cannot influence results (results land by task index, rng streams fork per
// index), so a wrong estimate costs tail latency, never correctness.
type Sizer interface {
	// TaskCost estimates the relative cost of task i. Ties keep submission
	// (index) order, so a uniform estimate degrades to FIFO.
	TaskCost(i int) float64
}

// runJob is what a job needs only while it runs: the spec and its rng base,
// the per-task results, and its scheduling state on the engine's shared
// dispatcher — a deque of LPT-ordered pending task indices workers pull
// from, plus the counts that decide when the run retires. It points at its
// Job, and every task completion is published straight into it
// (Job.publishLocked). The dispatcher drops a runJob when the run retires,
// so a finished job keeps only its record.
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
	sizer      Sizer          // spec's Sizer, if any; nil means uniform cost
	costKey    string         // observed-cost bucket: wire kind when known, else Kind()

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
	pending  []int // task indices, most expensive first; popped from the front
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
	// LeasedTasks counts tasks currently out on remote leases — popped from
	// their deques but neither running locally nor completed.
	LeasedTasks int `json:"leased_tasks,omitempty"`
	// LeasesGranted / RemoteCompleted / RemoteRequeued count the remote task
	// source's lifetime activity: ranges handed to workers, task results
	// published from remote reports, and leased tasks returned to their
	// deques after expiry or abandonment.
	LeasesGranted   uint64 `json:"leases_granted,omitempty"`
	RemoteCompleted uint64 `json:"remote_completed,omitempty"`
	RemoteRequeued  uint64 `json:"remote_requeued,omitempty"`
	// Observed maps cost keys (wire kind when known) to the EWMA task
	// latency model feeding fair-share weighting and lease sizing.
	Observed map[string]ObservedCost `json:"observed,omitempty"`
	// Clients maps named submitting clients to their live dispatcher load.
	// Anonymous jobs (no client identity) are not listed, so the map is
	// omitted entirely on a server running without admission control.
	Clients map[string]ClientLoad `json:"clients,omitempty"`
}

// ClientLoad is one named client's live dispatcher footprint plus the
// in-flight cost share cap the quota policy holds it to (0 = uncapped).
type ClientLoad struct {
	// Jobs counts the client's active jobs.
	Jobs int `json:"jobs"`
	// InFlight counts the client's tasks running locally or out on leases.
	InFlight int `json:"in_flight"`
	// InFlightCost is the EWMA-weighted wall-clock estimate of that
	// in-flight work — the quantity the quota compares against ShareCap.
	InFlightCost float64 `json:"in_flight_cost"`
	// ShareCap is the client's configured share of total in-flight cost.
	ShareCap float64 `json:"share_cap,omitempty"`
}

// ObservedCost is the per-kind EWMA latency model built from completed local
// tasks. It serves two schedulers: cross-job fair share weighs in-flight
// counts by MsPerTask (so a job of 100ms tasks and a job of 1ms tasks split
// wall-clock, not slots), and remote lease sizing converts a wall-clock
// target into a task count via MsPerCost × TaskCost. Kinds publishing a flat
// TaskCost — which LPT ordering can do nothing with — get their dispatch
// weight entirely from here.
type ObservedCost struct {
	// MsPerTask is the EWMA of wall-clock milliseconds per completed task.
	MsPerTask float64 `json:"ms_per_task"`
	// MsPerCost is the EWMA of milliseconds per TaskCost unit (equal to
	// MsPerTask for kinds without a Sizer, whose cost is uniformly 1).
	MsPerCost float64 `json:"ms_per_cost"`
	// Samples counts completions folded into the averages.
	Samples uint64 `json:"samples"`
}

// obsCost is the mutable form of ObservedCost, guarded by the engine mutex.
type obsCost struct {
	msPerTask float64
	msPerCost float64
	n         uint64
}

// obsAlpha is the EWMA smoothing factor: each new sample moves the average a
// quarter of the way, so the model tracks drift (a spec version whose tasks
// got slower) within a few completions without thrashing on one outlier.
const obsAlpha = 0.25

// maxObsKinds bounds the observed-cost map; a pathological client minting
// unique kinds cannot grow engine memory without bound.
const maxObsKinds = 512

// observeLocked folds one completed task into the cost model. Callers must
// hold e.mu. Only cleanly published local completions are observed: errored
// and post-halt tasks ran with canceled contexts and would poison the
// averages with truncated durations.
func (e *Engine) observeLocked(j *runJob, task int, d time.Duration) {
	o := e.obs[j.costKey]
	if o == nil {
		if len(e.obs) >= maxObsKinds {
			return
		}
		if e.obs == nil {
			e.obs = make(map[string]*obsCost)
		}
		o = &obsCost{}
		e.obs[j.costKey] = o
	}
	ms := float64(d) / float64(time.Millisecond)
	cost := 1.0
	if j.sizer != nil {
		if c := j.sizer.TaskCost(task); c > 0 {
			cost = c
		}
	}
	if o.n == 0 {
		o.msPerTask = ms
		o.msPerCost = ms / cost
	} else {
		o.msPerTask += obsAlpha * (ms - o.msPerTask)
		o.msPerCost += obsAlpha * (ms/cost - o.msPerCost)
	}
	o.n++
}

// Stats snapshots the dispatcher.
func (e *Engine) Stats() SchedStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := SchedStats{
		Workers:         e.workers,
		ActiveJobs:      len(e.active),
		Steals:          e.steals,
		CompletedTasks:  e.completed,
		LeasesGranted:   e.leasesGranted,
		RemoteCompleted: e.remoteDone,
		RemoteRequeued:  e.remoteRequeued,
	}
	for _, j := range e.active {
		st.QueuedTasks += len(j.pending)
		st.RunningTasks += j.inFlight
		st.LeasedTasks += j.leased
	}
	if len(e.obs) > 0 {
		st.Observed = make(map[string]ObservedCost, len(e.obs))
		for k, o := range e.obs {
			st.Observed[k] = ObservedCost{MsPerTask: o.msPerTask, MsPerCost: o.msPerCost, Samples: o.n}
		}
	}
	for _, j := range e.active {
		if j.client == "" {
			continue
		}
		if st.Clients == nil {
			st.Clients = make(map[string]ClientLoad)
		}
		cl := st.Clients[j.client]
		cl.Jobs++
		cl.InFlight += j.inFlight + j.leased
		cl.InFlightCost += e.inFlightCostLocked(j)
		cl.ShareCap = e.share
		st.Clients[j.client] = cl
	}
	return st
}

// SetClientShare configures the per-client in-flight cost quota enforced in
// take: share caps every client's share of the engine's total in-flight
// cost. It is a fraction in (0, 1); zero or anything outside that range
// means uncapped. Enforcement is work-conserving — a client is only passed
// over while at least one other client has runnable work — so the quota
// shapes contention and can never idle workers or strand a job.
func (e *Engine) SetClientShare(share float64) {
	if share <= 0 || share >= 1 {
		share = 0
	}
	e.mu.Lock()
	e.share = share
	e.mu.Unlock()
}

// inFlightCostLocked estimates the wall-clock cost of a job's running and
// leased tasks: count × observed EWMA ms/task, or the bare count while the
// kind is unobserved (the same cold-start fallback lessLoadedLocked uses).
// Callers must hold e.mu.
func (e *Engine) inFlightCostLocked(j *runJob) float64 {
	n := float64(j.inFlight + j.leased)
	if o := e.obs[j.costKey]; o != nil && o.n > 0 && o.msPerTask > 0 {
		return n * o.msPerTask
	}
	return n
}

// overQuotaLocked computes the set of clients currently holding more than
// their configured share of total in-flight cost — the clients take's first
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
	cost := make(map[string]float64)
	total := 0.0
	for _, j := range e.active {
		c := e.inFlightCostLocked(j)
		cost[j.client] += c
		total += c
	}
	if len(cost) < 2 || total <= 0 {
		return nil
	}
	var over map[string]bool
	for client, c := range cost {
		if c > e.share*total {
			if over == nil {
				over = make(map[string]bool)
			}
			over[client] = true
		}
	}
	if len(over) == len(cost) {
		return nil
	}
	return over
}

// orderTasks builds a job's initial deque: LPT order when the spec can size
// its tasks, submission (index) order otherwise. The sort is stable, so
// cost ties — including the all-equal costs of a uniform sweep — preserve
// index order exactly.
func orderTasks(spec Spec, n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sz, ok := spec.(Sizer)
	if !ok {
		return idx
	}
	costs := make([]float64, n)
	uniform := true
	for i := range costs {
		costs[i] = sz.TaskCost(i)
		if costs[i] != costs[0] {
			uniform = false
		}
	}
	if uniform {
		// All-equal costs — the common case (Func without a Cost hook, the
		// flat-within-a-sweep built-ins) — can only sort back to index
		// order; skip the O(n log n) shuffle a million-task job would pay.
		return idx
	}
	sort.SliceStable(idx, func(a, b int) bool { return costs[idx[a]] > costs[idx[b]] })
	return idx
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
func (e *Engine) worker() {
	var last *runJob
	for {
		j, task, ok := e.take(&last)
		if !ok {
			return
		}
		e.execute(j, task)
	}
}

// take picks the next (job, task) under the engine's fair-share policy:
// among jobs with pending work, the least-loaded one wins, so concurrent
// jobs split the worker pool evenly instead of the first-submitted job
// monopolizing it. Load is the in-flight count — weighted by the observed
// per-task latency once *both* jobs being compared have cost samples, so a
// job of 100ms tasks and a job of 1ms tasks split wall-clock rather than
// worker slots; with either side unobserved the comparison stays the plain
// count, preserving cold-start behavior. Either way the load is divided by
// the job's priority weight, so a high-priority job tolerates
// proportionally more in-flight work before losing a comparison.
// Ties prefer the worker's previous
// job (cheap affinity), then round-robin from a rotating cursor so equal
// jobs alternate. A take from a different still-live job counts as a steal.
// Within the chosen job, tasks pop from the front of the LPT deque.
//
// Client quotas gate the scan: the first pass skips jobs whose client is
// over its in-flight cost share (overQuotaLocked), and only if that pass
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
				switch {
				case best == nil,
					e.lessLoadedLocked(j, best),
					!e.lessLoadedLocked(best, j) && j == last && best != last:
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

// lessLoadedLocked reports whether a carries strictly less load than b.
// When both jobs' kinds have observed latency, load is predicted in-flight
// wall-clock (inFlight × EWMA ms/task); otherwise the plain in-flight count.
// Load is divided by the job's priority weight — a weight-2 job looks half
// as loaded as a weight-1 job at the same in-flight count, so it wins takes
// until it holds roughly twice the share; with every weight at the default
// 1.0 the comparison is exactly the historical unweighted one. Callers must
// hold e.mu.
func (e *Engine) lessLoadedLocked(a, b *runJob) bool {
	wa, wb := a.weight, b.weight
	if wa <= 0 {
		wa = 1
	}
	if wb <= 0 {
		wb = 1
	}
	oa, ob := e.obs[a.costKey], e.obs[b.costKey]
	if oa != nil && ob != nil && oa.n > 0 && ob.n > 0 && oa.msPerTask > 0 && ob.msPerTask > 0 {
		return float64(a.inFlight)*oa.msPerTask/wa < float64(b.inFlight)*ob.msPerTask/wb
	}
	return float64(a.inFlight)/wa < float64(b.inFlight)/wb
}

// execute runs one task and publishes its completion. Publication order is
// load-bearing: the task is published before this worker's in-flight
// decrement, so a run can only retire — and its job finish — after every
// completed task has been published.
func (e *Engine) execute(r *runJob, task int) {
	//goclint:allow nodeterm -- observed-cost EWMA: timing feeds dispatch, never results
	start := time.Now()
	out, err := runTask(r.ctx, r.spec, task, r.base.Fork(uint64(task)))
	elapsed := time.Since(start) //goclint:allow nodeterm -- same EWMA measurement

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
		e.observeLocked(r, task, elapsed)
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

package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// State is a job lifecycle state.
type State string

// Job lifecycle states. A job moves Pending → Running → one of the terminal
// states {Done, Failed, Canceled}.
const (
	StatePending  State = "pending"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether s is a terminal state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Status is a point-in-time snapshot of a job. Cached is set by the serving
// layer when a submission was answered from the result cache by an earlier
// job; the Manager itself never sets it.
type Status struct {
	ID       string   `json:"id"`
	Kind     string   `json:"kind"`
	State    State    `json:"state"`
	Progress Progress `json:"progress"`
	Error    string   `json:"error,omitempty"`
	Cached   bool     `json:"cached,omitempty"`
}

// Job is an asynchronous engine run managed by a Manager.
type Job struct {
	id    string
	kind  string
	total int

	done atomic.Int64
	// running and queued mirror the dispatcher's view as of the last
	// completed task (see Progress); statusLocked zeroes them once the job
	// is terminal.
	running atomic.Int64
	queued  atomic.Int64
	cancel  context.CancelFunc

	mu     sync.Mutex
	state  State // guarded by mu
	result any   // guarded by mu
	err    error // guarded by mu
	// watchers holds the live Watch channels; finish delivers the terminal
	// status to each and closes it, then nils the map.
	watchers map[chan Status]struct{} // guarded by mu

	// ledger records every published task result in wire form (ledger.go).
	// Set once at submission for TaskCoder specs, nil otherwise; retained
	// after completion so range GETs keep working on terminal jobs.
	ledger *resultLedger

	finished chan struct{}
}

// ID returns the job's manager-unique identifier.
func (j *Job) ID() string { return j.id }

// Status returns a snapshot of the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

func (j *Job) statusLocked() Status {
	st := Status{
		ID:       j.id,
		Kind:     j.kind,
		State:    j.state,
		Progress: Progress{Done: int(j.done.Load()), Total: j.total},
	}
	if !j.state.Terminal() {
		st.Progress.Running = int(j.running.Load())
		st.Progress.Queued = int(j.queued.Load())
	}
	if j.ledger != nil {
		st.Progress.Watermark = int(j.ledger.watermark.Load())
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// Watch returns a channel of status snapshots: the current status
// immediately, then updates as tasks complete, then the terminal status,
// after which the channel is closed. Delivery is coalescing — a slow
// receiver sees the latest snapshot, not every intermediate one — but the
// terminal status is always delivered. If ctx is canceled first, the
// subscription is dropped and the channel closed without a terminal status.
func (j *Job) Watch(ctx context.Context) <-chan Status {
	ch := make(chan Status, 1)
	j.mu.Lock()
	st := j.statusLocked()
	if st.State.Terminal() {
		j.mu.Unlock()
		ch <- st
		close(ch)
		return ch
	}
	if j.watchers == nil {
		j.watchers = map[chan Status]struct{}{}
	}
	j.watchers[ch] = struct{}{}
	offer(ch, st)
	j.mu.Unlock()
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				j.unwatch(ch)
			case <-j.finished:
			}
		}()
	}
	return ch
}

// offer delivers st on a buffer-1 watcher channel, displacing a pending
// older snapshot rather than blocking. It never blocks, so callers may hold
// j.mu (which also serializes offers, making the drain-and-resend loop
// converge immediately).
func offer(ch chan Status, st Status) {
	for {
		select {
		case ch <- st:
			return
		default:
		}
		select {
		case <-ch:
		default:
		}
	}
}

// notifyWatchers publishes the current status to every watcher.
func (j *Job) notifyWatchers() {
	j.mu.Lock()
	st := j.statusLocked()
	for ch := range j.watchers {
		offer(ch, st)
	}
	j.mu.Unlock()
}

// unwatch drops one watcher. Whoever removes a channel from the map closes
// it, so a channel is closed exactly once (finish removes them all).
func (j *Job) unwatch(ch chan Status) {
	j.mu.Lock()
	if _, ok := j.watchers[ch]; ok {
		delete(j.watchers, ch)
		close(ch)
	}
	j.mu.Unlock()
}

// Cancel requests cancellation. It is a no-op on terminal jobs.
func (j *Job) Cancel() { j.cancel() }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.finished }

// Wait blocks until the job finishes or ctx is canceled, then returns the
// job's terminal error (nil for StateDone).
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.finished:
	case <-ctx.Done():
		return ctx.Err()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Result returns the aggregated result once the job is done. ok is false
// while the job is still running or if it failed.
func (j *Job) Result() (res any, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.state == StateDone
}

func (j *Job) finish(res any, err error, canceled bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case canceled:
		j.state = StateCanceled
		j.err = context.Canceled
	case err != nil:
		j.state = StateFailed
		j.err = err
	default:
		j.state = StateDone
		j.result = res
		// A job finished from a prefilled deque never ran its prefilled
		// tasks through progress callbacks; pin the terminal count so Done
		// always reads total for done jobs.
		j.done.Store(int64(j.total))
	}
	// Deliver the terminal status to every watcher and retire them. The
	// coalescing offer may displace a pending progress snapshot — terminal
	// delivery is the guarantee, not completeness of the progress stream.
	st := j.statusLocked()
	for ch := range j.watchers {
		offer(ch, st)
		close(ch)
	}
	j.watchers = nil
	close(j.finished)
}

// ErrUnknownJob is returned by Manager.Get for an unknown job ID.
var ErrUnknownJob = errors.New("engine: unknown job")

// DefaultRetention is the default cap on tracked jobs. When exceeded, the
// oldest *terminal* jobs (and their retained results) are evicted; running
// jobs are never evicted.
const DefaultRetention = 4096

// Manager runs jobs asynchronously on a shared Engine and tracks them by ID.
// It is safe for concurrent use; gocserve keeps one per process.
type Manager struct {
	eng *Engine

	// Retention caps how many jobs the manager keeps before evicting the
	// oldest terminal ones (0 means DefaultRetention). Set it before
	// submitting jobs; a long-running server would otherwise retain every
	// result forever.
	Retention int

	mu     sync.Mutex
	jobs   map[string]*Job // guarded by mu
	order  []string        // guarded by mu; job IDs in creation order, for eviction
	nextID uint64          // guarded by mu
	ctx    context.Context
	stop   context.CancelFunc
}

// NewManager returns a manager running jobs on eng. Close cancels all jobs.
func NewManager(eng *Engine) *Manager {
	ctx, stop := context.WithCancel(context.Background())
	return &Manager{eng: eng, jobs: map[string]*Job{}, ctx: ctx, stop: stop}
}

// Submit starts spec asynchronously under the manager's lifetime (not the
// caller's request context) and returns the tracking job.
func (m *Manager) Submit(spec Spec, seed uint64) (*Job, error) {
	return m.submit("", spec, seed, SubmitOptions{})
}

// SubmitOptions is the optional surface of a full-control submission.
type SubmitOptions struct {
	// Remote, when non-nil and the spec implements TaskCoder, makes the job
	// distributable — the coordinator may lease ranges of its tasks to
	// remote workers. Distribution changes where tasks run, never results.
	Remote *RemoteInfo
	// Prefill seeds already-computed task results by index in TaskCoder
	// wire form — the restart path. Valid entries are published before any
	// task runs, so only the missing suffix recomputes; invalid entries are
	// recomputed. Ignored unless the spec implements TaskCoder.
	Prefill map[int]json.RawMessage
	// Client names the submitting tenant for per-client quota accounting
	// and scheduler stats; empty means anonymous. Weight scales the job's
	// urgency in fair-share comparisons — the priority-class weight on
	// served jobs (<= 0 means the default 1.0). Both bias scheduling order
	// only: results are a pure function of (spec, seed) regardless.
	Client string
	Weight float64
}

// SubmitJobOpts is the full-control submission: a caller-chosen ID plus the
// optional surface of SubmitOptions. An empty id mints one; a non-empty id
// reruns under that identity — the persistence layer's restart path, so
// pre-restart handles and cache entries keep pointing at the right job — and
// fails if the ID is already tracked. The serving layer uses it for every
// envelope submission and every rehydration resubmit.
func (m *Manager) SubmitJobOpts(id string, spec Spec, seed uint64, opts SubmitOptions) (*Job, error) {
	return m.submit(id, spec, seed, opts)
}

func (m *Manager) submit(id string, spec Spec, seed uint64, opts SubmitOptions) (*Job, error) {
	if v, ok := spec.(Validator); ok {
		if err := v.Validate(); err != nil {
			return nil, fmt.Errorf("engine: invalid %s spec: %w", spec.Kind(), err)
		}
	}
	// Bound the fan-out before publishing the job, exactly like Engine.Run:
	// without this check a negative or absurd Tasks() would be visible in
	// job statuses until the run fails.
	n := spec.Tasks()
	if n < 0 {
		return nil, fmt.Errorf("engine: %s spec reports %d tasks", spec.Kind(), n)
	}
	if n > MaxTasksPerJob {
		return nil, fmt.Errorf("engine: %s spec reports %d tasks, cap is %d", spec.Kind(), n, MaxTasksPerJob)
	}
	jctx, cancel := context.WithCancel(m.ctx)
	j, err := m.newJob(id, spec.Kind(), n, cancel)
	if err != nil {
		cancel()
		return nil, err
	}
	if _, ok := spec.(TaskCoder); ok && n > 0 {
		j.ledger = newResultLedger(n)
	}
	// Until the first task completes, the whole job is queue: the scheduler
	// snapshot starts at (running 0, queued n).
	j.queued.Store(int64(n))
	j.mu.Lock()
	j.state = StateRunning
	j.mu.Unlock()
	go func() {
		defer cancel()
		ro := runOpts{
			remote:  opts.Remote,
			prefill: opts.Prefill,
			client:  opts.Client,
			weight:  opts.Weight,
			onProgress: func(p Progress) {
				// CAS-max: the dispatcher serializes callbacks with strictly
				// increasing Done, but the guard keeps a hypothetical stale
				// publisher from making progress go backwards.
				for {
					old := j.done.Load()
					if int64(p.Done) <= old {
						return // stale update: nothing new to publish
					}
					if j.done.CompareAndSwap(old, int64(p.Done)) {
						break
					}
				}
				j.running.Store(int64(p.Running))
				j.queued.Store(int64(p.Queued))
				j.notifyWatchers()
			},
		}
		if j.ledger != nil {
			ro.onTask = j.recordTask
		}
		res, err := m.eng.run(jctx, spec, seed, ro)
		j.finish(res, err, jctx.Err() != nil && errors.Is(err, context.Canceled))
	}()
	return j, nil
}

// Engine returns the engine the manager runs jobs on — the serving layer
// reads its scheduler stats (Engine.Stats) into /healthz.
func (m *Manager) Engine() *Engine { return m.eng }

func (m *Manager) newJob(id, kind string, total int, cancel context.CancelFunc) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if id == "" {
		m.nextID++
		id = fmt.Sprintf("job-%d", m.nextID)
	} else if _, dup := m.jobs[id]; dup {
		return nil, fmt.Errorf("engine: job %s already exists", id)
	} else {
		m.bumpNextIDLocked(id)
	}
	j := &Job{
		id:       id,
		kind:     kind,
		total:    total,
		state:    StatePending,
		cancel:   cancel,
		finished: make(chan struct{}),
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.evictLocked()
	return j, nil
}

// ParseSeq parses the numeric sequence out of a prefixed ID — the manager's
// "job-N", the server's "h-N". It is the single source of truth for aging
// such IDs: callers treat a non-parsing (foreign) ID as sequence 0, older
// than every minted ID, so store eviction and server rehydration order
// records identically.
func ParseSeq(id, prefix string) (uint64, bool) {
	rest, ok := strings.CutPrefix(id, prefix)
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(rest, 10, 64)
	return n, err == nil
}

// bumpNextIDLocked advances the ID counter past a caller-supplied job ID in
// the manager's own "job-N" namespace, so minted IDs never collide with
// rehydrated ones. Callers must hold m.mu.
func (m *Manager) bumpNextIDLocked(id string) {
	if n, ok := ParseSeq(id, "job-"); ok && n > m.nextID {
		m.nextID = n
	}
}

// Restore inserts a job already in a terminal state — the persistence
// layer's rehydration path for jobs that finished in a previous process
// life. A done job carries its decoded result (and full progress); failed
// and canceled jobs carry only the recorded error. The job ID must be
// unique; IDs in the manager's own "job-N" form advance the mint counter so
// later submissions cannot collide.
func (m *Manager) Restore(id, kind string, total int, result any, state State, errMsg string) (*Job, error) {
	if id == "" {
		return nil, errors.New("engine: Restore needs a job ID")
	}
	if !state.Terminal() {
		return nil, fmt.Errorf("engine: Restore with non-terminal state %q", state)
	}
	j := &Job{
		id:       id,
		kind:     kind,
		total:    total,
		state:    state,
		cancel:   func() {},
		finished: make(chan struct{}),
	}
	close(j.finished)
	switch {
	case state == StateDone:
		j.result = result
		j.done.Store(int64(total))
	case errMsg != "":
		j.err = errors.New(errMsg)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.jobs[id]; dup {
		return nil, fmt.Errorf("engine: job %s already exists", id)
	}
	m.bumpNextIDLocked(id)
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.evictLocked()
	return j, nil
}

// evictLocked drops the oldest terminal jobs until the retention cap holds.
// Callers must hold m.mu.
func (m *Manager) evictLocked() {
	limit := m.Retention
	if limit <= 0 {
		limit = DefaultRetention
	}
	if len(m.jobs) <= limit {
		return
	}
	kept := m.order[:0]
	for _, id := range m.order {
		j, ok := m.jobs[id]
		if !ok {
			continue
		}
		if len(m.jobs) > limit && j.Status().State.Terminal() {
			delete(m.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// Get returns the job with the given ID.
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return j, nil
}

// Close cancels every running job and stops accepting progress.
func (m *Manager) Close() { m.stop() }

package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// State is a job lifecycle state.
type State string

// Job lifecycle states. An engine job is Running from submission until it
// reaches one of the terminal states {Done, Failed, Canceled}.
const (
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

// Job is one engine job's record: identity, progress counters, result
// ledger, and outcome. While the job runs it also points at its run — the
// dispatcher state (spec, rng base, per-task results, deque) every task
// completion is published from — and drops it on finishing, so a terminal
// Job keeps only the record. A Manager tracks Jobs by ID; Engine.Run builds
// an untracked one.
type Job struct {
	id       string
	kind     string
	total    int
	finished chan struct{}

	mu    sync.Mutex
	state State // guarded by mu
	// result and err are the outcome. While the job runs, err holds the
	// first task error (publishLocked stops once the run halts); only a
	// terminal status reports it.
	result any   // guarded by mu
	err    error // guarded by mu
	// done counts published tasks; running and queued are the dispatcher's
	// view as of the last publication (see Progress), and statusLocked
	// omits them once the job is terminal.
	done    int // guarded by mu
	running int // guarded by mu
	queued  int // guarded by mu
	// docs is the result ledger (ledger.go): every published task result in
	// its TaskCoder wire form, by index; nil for jobs without one. watermark
	// is its contiguous completed prefix.
	docs      []json.RawMessage // guarded by mu
	watermark int               // guarded by mu
	// watchers holds the live Watch channels, each with the stop func of its
	// context hook (nil for a context that never ends); finish delivers the
	// terminal status to each and closes it, then nils the map.
	watchers map[chan Status]func() bool // guarded by mu
	// run is the job's dispatcher state while it runs; nil once terminal.
	run *runJob // guarded by mu
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
		Progress: Progress{Done: j.done, Total: j.total, Watermark: j.watermark},
	}
	if !j.state.Terminal() {
		st.Progress.Running = j.running
		st.Progress.Queued = j.queued
	} else if j.err != nil {
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
	defer j.mu.Unlock()
	offer(ch, j.statusLocked())
	if j.state.Terminal() {
		close(ch)
		return ch
	}
	// A hook, not a goroutine: context.AfterFunc runs unwatch only if ctx
	// ends first, and finish unregisters it when the job ends.
	var stop func() bool
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, func() { j.unwatch(ch) })
	}
	if j.watchers == nil {
		j.watchers = map[chan Status]func() bool{}
	}
	j.watchers[ch] = stop
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
func (j *Job) Cancel() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.run != nil {
		j.run.cancel(nil)
	}
}

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

// publishLocked lands one computed task result in its job. It is the one
// publication path: local execution, remote reports, and restart prefill
// all call it. Nothing lands once the run has halted (a task failed or the
// run was canceled), so watchers never see a doomed job advance, and
// nothing lands for an index the ledger already holds: the ledger is the
// first-writer-wins index, so a task computed twice (a requeued lease racing
// its late report) lands once, with the same bytes either way. Otherwise the
// result, counters, and ledger advance and the new status goes to every
// watcher and to Engine.Run's onProgress. local marks a publisher still
// counted in flight (a local worker), whose finished task Running excludes.
// Callers hold j.mu; the scheduler snapshot takes e.mu under it (job mutex,
// then engine mutex).
func (j *Job) publishLocked(e *Engine, r *runJob, task int, out any, raw json.RawMessage, local bool) bool {
	if r.ctx.Err() != nil || (j.docs != nil && j.docs[task] != nil) {
		return false
	}
	r.results[task] = out
	j.done++
	if j.docs != nil {
		j.recordLocked(task, raw)
	}
	e.mu.Lock()
	j.queued, j.running = len(r.pending), r.inFlight
	e.mu.Unlock()
	if local {
		j.running--
	}
	st := j.statusLocked()
	for ch := range j.watchers {
		offer(ch, st)
	}
	if r.onProgress != nil {
		// Under j.mu by design: the lock is what serializes Run's callbacks
		// (see Run), and Run never exposes this Job for a callback to reach.
		r.onProgress(st.Progress)
	}
	return true
}

// failLocked records a task error — the first one wins — and halts the run:
// canceling its context stops publication at once and fires the run's halt
// hook, which drops its queue and leases. Callers hold j.mu.
func (j *Job) failLocked(r *runJob, err error) {
	if j.err == nil && !j.state.Terminal() {
		j.err = err
	}
	r.cancel(errHalted)
}

// finish records the job's outcome, drops its run, and delivers the
// terminal status to every watcher.
func (j *Job) finish(state State, res any, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state, j.result, j.err = state, res, err
	j.run = nil
	// The coalescing offer may displace a pending progress snapshot —
	// terminal delivery is the guarantee, not completeness of the progress
	// stream.
	st := j.statusLocked()
	for ch, stop := range j.watchers {
		if stop != nil {
			stop()
		}
		offer(ch, st)
		close(ch)
	}
	j.watchers = nil
	close(j.finished)
}

// ErrUnknownJob is returned by Manager.Get for an unknown job ID.
var ErrUnknownJob = errors.New("engine: unknown job")

// DefaultRetention caps the jobs a Manager tracks, so a long-running server
// does not retain every result forever. When exceeded, the oldest *terminal*
// jobs (and their retained results) are evicted; running jobs are never
// evicted. The file store keeps the same number of job records.
const DefaultRetention = 4096

// Manager runs jobs asynchronously on a shared Engine and tracks them by ID.
// It is safe for concurrent use; gocserve keeps one per process.
type Manager struct {
	eng *Engine

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
	return m.SubmitJobOpts("", spec, seed, SubmitOptions{})
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
	r, err := m.eng.newRun(m.ctx, spec, seed, opts, true)
	if err != nil {
		return nil, err
	}
	if err := m.track(id, r.job); err != nil {
		r.cancel(nil) // release the unstarted run's context
		return nil, err
	}
	m.eng.start(r)
	return r.job, nil
}

// Engine returns the engine the manager runs jobs on — the serving layer
// reads its scheduler stats (Engine.Stats) into /healthz.
func (m *Manager) Engine() *Engine { return m.eng }

// track registers j under id, minting a "job-N" ID when id is empty. A
// caller-supplied id must be new; one in the manager's own namespace
// advances the mint counter. Past the retention cap the oldest terminal
// jobs are evicted.
func (m *Manager) track(id string, j *Job) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if id == "" {
		m.nextID++
		id = fmt.Sprintf("job-%d", m.nextID)
	} else if _, dup := m.jobs[id]; dup {
		return fmt.Errorf("engine: job %s already exists", id)
	} else {
		m.bumpNextIDLocked(id)
	}
	j.id = id
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.evictLocked()
	return nil
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
	j := &Job{kind: kind, total: total, state: state, finished: make(chan struct{})}
	close(j.finished)
	switch {
	case state == StateDone:
		j.result = result
		j.done = total
	case errMsg != "":
		j.err = errors.New(errMsg)
	}
	if err := m.track(id, j); err != nil {
		return nil, err
	}
	return j, nil
}

// evictLocked drops the oldest terminal jobs until the DefaultRetention cap
// holds. Callers must hold m.mu.
func (m *Manager) evictLocked() {
	if len(m.jobs) <= DefaultRetention {
		return
	}
	kept := m.order[:0]
	for _, id := range m.order {
		j, ok := m.jobs[id]
		if !ok {
			continue
		}
		if len(m.jobs) > DefaultRetention && j.Status().State.Terminal() {
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

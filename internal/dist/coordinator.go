package dist

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"encoding/json"

	"gameofcoins/internal/engine"
)

// Coordinator is the server-side half of the fleet: it tracks joined
// workers, grants leases out of the engine's remote task source, forwards
// reported results into the engine, and requeues leases whose deadlines
// pass. One coordinator serves one engine; gocserve embeds one and exposes
// it at /dist/*.
type Coordinator struct {
	eng *engine.Engine
	cfg Config
	fp  string

	mu         sync.Mutex
	workers    map[string]*workerState // guarded by mu
	leases     map[string]*leaseState  // guarded by mu
	nextWorker uint64                  // guarded by mu
	nextLease  uint64                  // guarded by mu

	// Lifetime counters.
	granted       uint64 // guarded by mu
	completed     uint64 // guarded by mu
	requeued      uint64 // guarded by mu
	expired       uint64 // guarded by mu
	rejectedJoins uint64 // guarded by mu
	duplicates    uint64 // guarded by mu

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

type workerState struct {
	id        string
	name      string
	cores     int
	lastSeen  time.Time
	leases    int    // active lease count
	completed uint64 // lifetime accepted results
}

type leaseState struct {
	id       string
	workerID string
	run      uint64
	tasks    []int        // leased indices in lease order, as the wire carries them
	reported map[int]bool // leased indices → already forwarded to the engine
	deadline time.Time
	closed   bool
}

// remaining returns the leased indices not yet reported, in lease order.
func (l *leaseState) remaining() []int {
	var out []int
	for _, t := range l.tasks {
		if !l.reported[t] {
			out = append(out, t)
		}
	}
	return out
}

// New builds a coordinator over eng and starts its expiry sweep. Close it
// when done; a coordinator left running holds one goroutine.
func New(eng *engine.Engine, cfg Config) *Coordinator {
	c := &Coordinator{
		eng:     eng,
		cfg:     cfg.withDefaults(),
		fp:      engine.CatalogFingerprint(),
		workers: make(map[string]*workerState),
		leases:  make(map[string]*leaseState),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go c.sweep()
	return c
}

// Join registers a worker. A fingerprint mismatch is refused with
// ErrFingerprint: a worker whose registry drifted from the coordinator's
// would decode specs differently and silently compute wrong-version tasks —
// exactly the corruption the fingerprint exists to prevent.
func (c *Coordinator) Join(req JoinRequest) (JoinResponse, error) {
	if req.Fingerprint != c.fp {
		c.mu.Lock()
		c.rejectedJoins++
		c.mu.Unlock()
		return JoinResponse{}, fmt.Errorf("%w: worker %q, coordinator %q", ErrFingerprint, req.Fingerprint, c.fp)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextWorker++
	w := &workerState{
		id:       fmt.Sprintf("w-%d", c.nextWorker),
		name:     req.Name,
		cores:    req.Cores,
		lastSeen: time.Now(),
	}
	c.workers[w.id] = w
	return JoinResponse{
		WorkerID:       w.id,
		LeaseTTLMillis: c.cfg.LeaseTTL.Milliseconds(),
		PollMillis:     c.cfg.PollInterval.Milliseconds(),
	}, nil
}

// Lease grants the calling worker a task range, or nil when no
// distributable job has pending work (the worker polls again later).
func (c *Coordinator) Lease(req LeaseRequest) (*Lease, error) {
	c.mu.Lock()
	w := c.workers[req.WorkerID]
	if w == nil {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownWorker, req.WorkerID)
	}
	w.lastSeen = time.Now()
	c.mu.Unlock()

	// The engine pop happens outside c.mu: LeaseRemote takes the engine
	// lock, and holding both invites ordering bugs for zero benefit.
	rl, ok := c.eng.LeaseRemote(c.cfg.MaxLeaseTasks, leaseTargetMs)
	if !ok {
		return nil, nil
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextLease++
	c.granted++
	ls := &leaseState{
		id:       fmt.Sprintf("l-%d", c.nextLease),
		workerID: req.WorkerID,
		run:      rl.Run,
		tasks:    rl.Tasks,
		reported: make(map[int]bool, len(rl.Tasks)),
		deadline: time.Now().Add(c.cfg.LeaseTTL),
	}
	c.leases[ls.id] = ls
	w.leases++
	return &Lease{
		ID:        ls.id,
		Kind:      rl.Wire.WireKind,
		Spec:      rl.Wire.Spec,
		Seed:      rl.Wire.Seed,
		Tasks:     rl.Tasks,
		TTLMillis: c.cfg.LeaseTTL.Milliseconds(),
	}, nil
}

// Report ingests a worker's progress on a lease. Every report — even an
// empty partial — extends the deadline, so streaming results doubles as the
// heartbeat. Reports against an unknown (expired, superseded, pre-restart)
// lease get ErrUnknownLease: the worker drops the lease and asks for fresh
// work; any results it was carrying are recomputed elsewhere, identically.
func (c *Coordinator) Report(rep ReportRequest) (ReportResponse, error) {
	c.mu.Lock()
	if w := c.workers[rep.WorkerID]; w != nil {
		w.lastSeen = time.Now()
	}
	ls := c.leases[rep.LeaseID]
	if ls == nil || ls.closed {
		c.mu.Unlock()
		return ReportResponse{}, fmt.Errorf("%w: %q", ErrUnknownLease, rep.LeaseID)
	}
	// Filter to this lease's not-yet-forwarded indices before touching the
	// engine, so a duplicated or malformed report cannot double-decrement
	// the engine's leased accounting.
	inLease := make(map[int]bool, len(ls.tasks))
	for _, t := range ls.tasks {
		inLease[t] = true
	}
	fresh := make(map[int]json.RawMessage, len(rep.Results))
	dups := 0
	for _, r := range rep.Results {
		if !inLease[r.Index] || ls.reported[r.Index] || fresh[r.Index] != nil {
			dups++
			continue
		}
		fresh[r.Index] = r.Result
	}
	// Claim the fresh indices *before* releasing the lock and calling into
	// the engine: a concurrent expiry of this very lease must not requeue
	// tasks whose results are mid-publication, or the engine's leased
	// accounting would double-decrement and a job could be declared idle
	// with result holes.
	for i := range fresh {
		ls.reported[i] = true
	}
	run := ls.run
	c.mu.Unlock()

	var resp ReportResponse
	if len(fresh) > 0 {
		accepted, err := c.eng.ReportRemote(run, fresh)
		if err != nil {
			// Undecodable results or a vanished run: ReportRemote published
			// nothing, so hand the claimed indices straight back for local
			// recompute (always available, always byte-identical) and retire
			// the lease — closeLease covers whatever was never claimed.
			idxs := make([]int, 0, len(fresh))
			for i := range fresh {
				idxs = append(idxs, i)
			}
			// Requeue in index order, not map order, so the engine re-pends
			// the handed-back tasks identically on every run.
			sort.Ints(idxs)
			c.mu.Lock()
			c.requeued += uint64(len(idxs))
			c.mu.Unlock()
			c.eng.RequeueRemote(run, idxs)
			c.closeLease(rep.LeaseID, true)
			return ReportResponse{Closed: true}, err
		}
		c.mu.Lock()
		c.completed += uint64(accepted)
		c.duplicates += uint64(len(fresh) - accepted)
		if w := c.workers[rep.WorkerID]; w != nil {
			w.completed += uint64(accepted)
		}
		c.mu.Unlock()
		resp.Accepted = accepted
		resp.Duplicates = dups + (len(fresh) - accepted)
	} else {
		resp.Duplicates = dups
	}

	switch {
	case rep.Error != "":
		c.eng.FailRemote(run, rep.Error)
		c.closeLease(rep.LeaseID, false) // job is failing; nothing to requeue into
		resp.Closed = true
	case rep.Abandon:
		c.closeLease(rep.LeaseID, true)
		resp.Closed = true
	case rep.Done:
		// A clean Done should have nothing left; requeue defensively if the
		// worker finished without reporting everything.
		c.closeLease(rep.LeaseID, true)
		resp.Closed = true
	default:
		c.mu.Lock()
		if !ls.closed {
			ls.deadline = time.Now().Add(c.cfg.LeaseTTL)
		}
		c.mu.Unlock()
	}
	return resp, nil
}

// closeLease retires a lease, optionally requeueing its unreported tasks
// into the engine. Idempotent.
func (c *Coordinator) closeLease(id string, requeue bool) {
	c.mu.Lock()
	ls := c.leases[id]
	if ls == nil || ls.closed {
		c.mu.Unlock()
		return
	}
	ls.closed = true
	delete(c.leases, id)
	if w := c.workers[ls.workerID]; w != nil && w.leases > 0 {
		w.leases--
	}
	rest := ls.remaining()
	run := ls.run
	if requeue {
		c.requeued += uint64(len(rest))
	}
	c.mu.Unlock()
	// Always hand the remainder back to the engine: for a live run it
	// repends the tasks for local or remote recompute; for a halted run
	// (the requeue=false error path) the engine only fixes its leased
	// accounting so the job can finish draining.
	if len(rest) > 0 {
		c.eng.RequeueRemote(run, rest)
	}
}

// sweep expires overdue leases and forgets long-silent workers.
func (c *Coordinator) sweep() {
	defer close(c.done)
	tick := c.cfg.LeaseTTL / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	if tick > time.Second {
		tick = time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		now := time.Now()
		c.mu.Lock()
		var overdue []string
		for id, ls := range c.leases {
			if now.After(ls.deadline) {
				overdue = append(overdue, id)
			}
		}
		// Expire in lease-ID order, not map order: requeue order is then a
		// deterministic function of which leases lapsed, not of map hashing.
		sort.Strings(overdue)
		c.expired += uint64(len(overdue))
		// Workers silent for 10 lease TTLs with no leases out are dropped
		// from the fleet view; ones with leases are reaped by lease expiry
		// first, then collected on a later pass.
		for id, w := range c.workers {
			if w.leases == 0 && now.Sub(w.lastSeen) > 10*c.cfg.LeaseTTL {
				delete(c.workers, id)
			}
		}
		c.mu.Unlock()
		for _, id := range overdue {
			c.closeLease(id, true)
		}
	}
}

// Close stops the sweep and requeues every outstanding lease, so jobs
// waiting on leased work fall back to the local pool immediately instead of
// waiting out deadlines that will never be enforced.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() {
		close(c.stop)
		<-c.done
		c.mu.Lock()
		ids := make([]string, 0, len(c.leases))
		for id := range c.leases {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		c.mu.Unlock()
		for _, id := range ids {
			c.closeLease(id, true)
		}
	})
}

// WorkerStats is one worker's row in the fleet view.
type WorkerStats struct {
	ID           string `json:"id"`
	Name         string `json:"name,omitempty"`
	Cores        int    `json:"cores,omitempty"`
	ActiveLeases int    `json:"active_leases"`
	Completed    uint64 `json:"completed_tasks"`
	LastSeenMs   int64  `json:"last_seen_ms"`
}

// Stats is the coordinator's point-in-time fleet view, exposed through
// gocserve's /healthz.
type Stats struct {
	Fingerprint   string        `json:"fingerprint"`
	Workers       []WorkerStats `json:"workers,omitempty"`
	ActiveLeases  int           `json:"active_leases"`
	LeasedTasks   int           `json:"leased_tasks"`
	Granted       uint64        `json:"leases_granted"`
	Completed     uint64        `json:"remote_completed"`
	Requeued      uint64        `json:"tasks_requeued"`
	Expired       uint64        `json:"leases_expired"`
	RejectedJoins uint64        `json:"rejected_joins,omitempty"`
	Duplicates    uint64        `json:"duplicate_results,omitempty"`
}

// Stats snapshots the fleet.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Fingerprint:   c.fp,
		ActiveLeases:  len(c.leases),
		Granted:       c.granted,
		Completed:     c.completed,
		Requeued:      c.requeued,
		Expired:       c.expired,
		RejectedJoins: c.rejectedJoins,
		Duplicates:    c.duplicates,
	}
	now := time.Now()
	for _, ls := range c.leases {
		st.LeasedTasks += len(ls.remaining())
	}
	for _, w := range c.workers {
		st.Workers = append(st.Workers, WorkerStats{
			ID:           w.id,
			Name:         w.name,
			Cores:        w.cores,
			ActiveLeases: w.leases,
			Completed:    w.completed,
			LastSeenMs:   now.Sub(w.lastSeen).Milliseconds(),
		})
	}
	sort.Slice(st.Workers, func(a, b int) bool { return st.Workers[a].ID < st.Workers[b].ID })
	return st
}

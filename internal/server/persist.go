package server

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"gameofcoins/internal/engine"
	"gameofcoins/internal/store"
)

// enqueuePersist queues one store write for the background drain. Callers
// may hold s.mu: enqueueing never blocks and never touches the disk, and
// because mutations enqueue in the order they are applied to the in-memory
// tables, the log sees the same total order. A no-op without a store.
//
// After Close has stopped the drain, the op runs inline instead (callers at
// that point — watchJob followers of jobs that ended during shutdown — are
// already off the request path). A write that slips through the remaining
// hairline race is only ever a follower's range span or terminal record,
// and losing one is benign: the record stays "submitted" and the next life
// recomputes the identical result.
func (s *Server) enqueuePersist(op func() error) {
	if s.store == nil {
		return
	}
	select {
	case <-s.pstop:
		s.runPersist(op)
		return
	default:
	}
	s.pmu.Lock()
	s.pops = append(s.pops, op)
	s.pmu.Unlock()
	select {
	case s.pkick <- struct{}{}:
	default:
	}
}

// persistJob enqueues an upsert of one job record.
func (s *Server) persistJob(rec store.JobRecord) {
	s.enqueuePersist(func() error { return s.store.PutJob(rec) })
}

// runPersist performs one store write and tallies a failure instead of
// dropping it: the persist queue has no request to fail, so the error
// surfaces as a counter and last-error string in /healthz. The in-memory
// tables stay authoritative for this life; the on-disk log is behind, which
// the next restart resolves by recomputing — the counter is what makes that
// drift observable.
func (s *Server) runPersist(op func() error) {
	if err := op(); err != nil {
		s.persistFails.Add(1)
		s.persistLastErr.Store(err.Error())
	}
}

// persistLoop drains the write queue until Close, then flushes what is left
// so a graceful shutdown loses nothing that was enqueued.
func (s *Server) persistLoop() {
	defer close(s.pdone)
	for {
		select {
		case <-s.pkick:
			s.drainPersist()
		case <-s.pstop:
			s.drainPersist()
			return
		}
	}
}

func (s *Server) drainPersist() {
	for {
		s.pmu.Lock()
		ops := s.pops
		s.pops = nil
		s.pmu.Unlock()
		if len(ops) == 0 {
			return
		}
		for _, op := range ops {
			s.runPersist(op)
		}
	}
}

// rehydrate reloads the store's state into a freshly constructed (not yet
// shared) server: games, then jobs in creation order so the manager's
// eviction order matches the original life, then handles against the jobs
// that actually came back.
func (s *Server) rehydrate(failInterrupted bool) error {
	snap, err := s.store.Load()
	if err != nil {
		return fmt.Errorf("server: load store: %w", err)
	}
	for id, g := range snap.Games {
		//goclint:allow lockguard -- pre-publication: rehydrate runs inside NewWithOptions before the server is shared
		s.games[id] = g
	}
	jobs := make([]store.JobRecord, 0, len(snap.Jobs))
	for _, rec := range snap.Jobs {
		jobs = append(jobs, rec)
	}
	sort.Slice(jobs, func(i, k int) bool { return idLess(jobs[i].ID, jobs[k].ID, "job-") })
	// Rehydration mutates the server's tables without s.mu (nothing else
	// can see the server yet) — so the followers of resubmitted jobs, which
	// DO take s.mu and mutate s.cache the moment their job ends, must not
	// start until every table below is fully built. Collect them and attach
	// last.
	var watch []watchStart
	for _, rec := range jobs {
		watch = append(watch, s.rehydrateJob(rec, failInterrupted, snap.Ranges[rec.ID])...)
	}
	handles := make([]string, 0, len(snap.Handles))
	for h := range snap.Handles {
		handles = append(handles, h)
	}
	sort.Slice(handles, func(i, k int) bool { return idLess(handles[i], handles[k], "h-") })
	for _, h := range handles {
		jobID := snap.Handles[h]
		if _, err := s.manager.Get(jobID); err != nil {
			continue // the job did not come back; the handle would dangle
		}
		s.handles[h] = handleRec{job: jobID}
		s.handleOrder = append(s.handleOrder, h)
		s.refs[jobID]++
	}
	s.nextHandle = snap.NextHandle
	for _, w := range watch {
		s.watchJob(w)
	}
	return nil
}

// watchStart is one watchJob call's arguments. Rehydration collects them
// and attaches the followers only after the server's tables are fully
// built.
type watchStart struct {
	job  *engine.Job
	rec  store.JobRecord
	spec engine.Spec // only engine.TaskCoder specs have per-task documents to persist
	// from is the store's contiguous range coverage: the follower resumes
	// persisting above it instead of rewriting spans the log already holds.
	from int
}

// rehydrateJob revives one job record. Terminal jobs are restored as-is
// (done jobs re-enter the result cache; the record's result document decodes
// through the registry's result codec, so the served bytes are identical to
// the pre-restart ones). A record still marked submitted was interrupted
// mid-run — and a done record whose result document no longer decodes (a
// codec changed across the upgrade) is treated the same way: the stored
// spec and seed deterministically recompute the result, so nothing is
// destroyed. Nothing here is fatal: a record that cannot be revived at all
// (kind no longer registered, corrupt spec) becomes a failed job that says
// why, not a startup abort.
func (s *Server) rehydrateJob(rec store.JobRecord, failInterrupted bool, ranges []store.RangeRecord) []watchStart {
	switch rec.State {
	case store.JobDone:
		res, err := engine.DecodeResult(rec.Kind, rec.Version, rec.Result)
		if err != nil {
			return s.recomputeJob(rec, failInterrupted,
				fmt.Sprintf("stored result unreadable after restart: %v", err), ranges)
		}
		if j, err := s.manager.Restore(rec.ID, rec.Kind, rec.Tasks, res, engine.StateDone, ""); err == nil {
			//goclint:allow lockguard -- pre-publication: rehydrateJob runs under rehydrate before the server is shared
			s.cache[rec.Key] = rec.ID
			// Persisted per-task ranges rebuild the result ledger, so ?range
			// fetches and resumed result streams survive the restart.
			prefill, _ := flattenRanges(rec.Tasks, ranges)
			j.PrefillResults(prefill)
		}
	case store.JobFailed:
		_, _ = s.manager.Restore(rec.ID, rec.Kind, rec.Tasks, nil, engine.StateFailed, rec.Error)
	case store.JobCanceled:
		_, _ = s.manager.Restore(rec.ID, rec.Kind, rec.Tasks, nil, engine.StateCanceled, rec.Error)
	case store.JobSubmitted:
		return s.recomputeJob(rec, failInterrupted, "interrupted by server restart", ranges)
	}
	return nil
}

// flattenRanges turns persisted range records into a task-indexed document
// map (entries outside [0, tasks) dropped) plus the store's contiguous
// coverage from 0 — the point above which nothing is persisted yet.
func flattenRanges(tasks int, ranges []store.RangeRecord) (map[int]json.RawMessage, int) {
	var prefill map[int]json.RawMessage
	from := 0
	for _, rr := range ranges {
		for k, doc := range rr.Results {
			if i := rr.Lo + k; i >= 0 && i < tasks {
				if prefill == nil {
					prefill = make(map[int]json.RawMessage, len(rr.Results))
				}
				prefill[i] = doc
			}
		}
		if rr.Lo <= from && rr.End() > from {
			from = rr.End()
		}
	}
	return prefill, from
}

// recomputeJob reruns a job record under its original ID, spec, and seed —
// the recovery path for interrupted jobs and for done records whose stored
// result can no longer be decoded. Persisted result ranges from the previous
// life prefill the engine's result ledger, so only the missing suffix of
// tasks actually recomputes — and determinism makes the reassembled result
// byte-identical to an uninterrupted run. With failInterrupted set (or when
// the spec itself cannot be revived) the job is restored as failed instead,
// with reason explaining why. The returned watchStart (if any) must be
// attached by the caller once rehydration has finished building the tables.
func (s *Server) recomputeJob(rec store.JobRecord, failInterrupted bool, reason string, ranges []store.RangeRecord) []watchStart {
	restoreFailed := func(msg string) {
		if _, err := s.manager.Restore(rec.ID, rec.Kind, rec.Tasks, nil, engine.StateFailed, msg); err == nil {
			rec.State = store.JobFailed
			rec.Error = msg
			rec.Result = nil
			s.persistJob(rec)
		}
	}
	if failInterrupted {
		restoreFailed(reason)
		return nil
	}
	// The record's version is already decided, so the envelope pins it.
	// Records written before the catalog redesign carry no version (0);
	// PinnedKind maps that to v1, the pre-versioning wire format, so old
	// data directories recompute under exactly the semantics they ran with.
	wire := engine.PinnedKind(rec.Kind, rec.Version)
	rs, err := engine.ResolveEnvelope(engine.JobEnvelope{Kind: wire, Seed: rec.Seed, Spec: rec.Spec})
	if err != nil {
		restoreFailed(fmt.Sprintf("%s; not recomputable: %v", reason, err))
		return nil
	}
	// Persisted ranges become the engine's prefill: the decoded documents
	// land in the new job's results and ledger before any task runs, so the
	// scheduler only executes the uncovered suffix.
	prefill, from := flattenRanges(rec.Tasks, ranges)
	job, err := s.manager.SubmitJobOpts(rec.ID, rs.Spec, rec.Seed, engine.SubmitOptions{
		Remote: &engine.RemoteInfo{
			WireKind: wire,
			Spec:     rec.Spec,
			Seed:     rec.Seed,
		},
		Prefill: prefill,
	})
	if err != nil {
		restoreFailed(fmt.Sprintf("%s; not recomputable: %v", reason, err))
		return nil
	}
	// Back to "submitted" in the store too, so a crash during the recompute
	// is itself recoverable (and the stale result document is dropped).
	rec.State = store.JobSubmitted
	rec.Result = nil
	rec.Error = ""
	s.persistJob(rec)
	//goclint:allow lockguard -- pre-publication: recomputeJob runs under rehydrate before the server is shared
	s.cache[rec.Key] = rec.ID
	return []watchStart{{job: job, rec: rec, spec: rs.Spec, from: from}}
}

// idLess orders prefixed sequence IDs ("job-2" < "job-10") by mint age
// through the engine's shared parser, so rehydration order and the store's
// own eviction order agree: foreign (non-numeric) IDs count as sequence 0 —
// older than every minted ID — and tie-break by string.
func idLess(a, b, prefix string) bool {
	na, aok := engine.ParseSeq(a, prefix)
	nb, bok := engine.ParseSeq(b, prefix)
	switch {
	case aok && bok:
		return na < nb
	case aok != bok:
		return bok // the foreign ID (sequence 0) sorts first
	default:
		return a < b
	}
}

// watchJob starts the job's one follower goroutine. With a store and a
// per-task wire codec (engine.TaskCoder) it first persists the result
// ledger as it grows: each time the contiguous-prefix watermark advances,
// the new span [last, watermark) is appended as a range record, starting
// above w.from. When the job ends it persists the terminal record, or
// retracts the cache entry of a resultless end. Shutdown is the exception:
// jobs the manager canceled because the whole server is closing keep their
// "submitted" record — and the spans persisted so far — which is exactly
// what makes the next process life resubmit them with a prefill. Without a
// store the follower only waits for the end.
func (s *Server) watchJob(w watchStart) {
	job, rec := w.job, w.rec
	go func() {
		if _, coder := w.spec.(engine.TaskCoder); coder && s.store != nil {
			last := w.from
			persist := func(wm int) {
				if wm <= last {
					return
				}
				docs, err := job.ResultRange(last, wm)
				if err != nil {
					return
				}
				lo := last
				last = wm
				s.enqueuePersist(func() error { return s.store.PutJobRange(rec.ID, lo, docs) })
			}
			for st := range job.Watch(context.Background()) {
				persist(st.Progress.Watermark)
			}
			// The final status snapshot can predate the last few recorded
			// tasks (Watch coalesces); catch the tail so a shutdown-canceled
			// job's record covers everything that actually computed.
			persist(job.Watermark())
		}
		<-job.Done()
		if res, ok := job.Result(); ok {
			if s.store == nil {
				return
			}
			if b, err := json.Marshal(res); err == nil {
				rec.State = store.JobDone
				rec.Result = b
				rec.Error = ""
				s.persistJob(rec)
			}
			// A result that cannot be marshalled also cannot be served; the
			// record stays "submitted" and a restart recomputes it.
			return
		}
		s.mu.Lock()
		if s.cache[rec.Key] == job.ID() {
			delete(s.cache, rec.Key)
		}
		closing := s.closing
		s.mu.Unlock()
		if closing || s.store == nil {
			return
		}
		st := job.Status()
		rec.State = store.JobFailed
		if st.State == engine.StateCanceled {
			rec.State = store.JobCanceled
		}
		rec.Error = st.Error
		rec.Result = nil
		s.persistJob(rec)
	}()
}

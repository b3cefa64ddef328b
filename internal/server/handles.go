package server

import (
	"errors"
	"fmt"
	"net/http"

	"gameofcoins/internal/engine"
)

// JobHandle is the wire form of a per-client job handle (the v2 POST and
// GET responses). Handle names this client's claim on the job; Clients is
// the number of live handles sharing it. The embedded Status describes the
// underlying (possibly shared) job.
type JobHandle struct {
	Handle  string `json:"handle"`
	Clients int    `json:"clients"`
	// Client is the authenticated identity the handle was minted for;
	// omitted on an open (keyless) server.
	Client string `json:"client,omitempty"`
	engine.Status
}

// handleRec is one live handle: the job it claims and the authenticated
// client it was minted for. owner is empty for handles minted anonymously
// (open server) and for rehydrated ones: ownership is deliberately
// in-memory only, so after a restart rehydrated handles fail open to the
// pre-traffic semantics.
type handleRec struct {
	job   string
	owner string
}

// MaxHandles caps the v2 handle table. Handles are minted per client and
// many clients never DELETE, so unlike the result cache the table is not
// bounded by job retention; past the cap the oldest handles are evicted
// (404 on later use) *without* canceling their jobs.
const MaxHandles = 4 * engine.DefaultRetention

// mintHandleLocked creates a fresh handle claiming jobID for client and
// enqueues its persistence — enqueueing under s.mu is what keeps a mint and
// a later removal of the same handle in log order. Callers must hold s.mu;
// the returned JobHandle carries the handle id and refcount (the job status
// is filled in outside the lock).
func (s *Server) mintHandleLocked(jobID, client string) JobHandle {
	s.nextHandle++
	handle := fmt.Sprintf("h-%d", s.nextHandle)
	s.handles[handle] = handleRec{job: jobID, owner: client}
	s.handleOrder = append(s.handleOrder, handle)
	s.refs[jobID]++
	s.enqueuePersist(func() error { return s.store.PutHandle(handle, jobID) })
	s.pruneHandlesLocked()
	return JobHandle{Handle: handle, Clients: s.refs[jobID], Client: client}
}

// dropHandleLocked removes a live handle — on release or eviction — and
// returns its job's remaining live handle count. The removal's persistence
// is enqueued under s.mu like the mint, so the log order of a handle's
// PutHandle and DeleteHandle always matches the in-memory order: a removed
// handle can never "resurrect" in the store. Callers must hold s.mu.
func (s *Server) dropHandleLocked(handle string) int {
	jobID := s.handles[handle].job
	delete(s.handles, handle)
	s.enqueuePersist(func() error { return s.store.DeleteHandle(handle) })
	s.refs[jobID]--
	remaining := s.refs[jobID]
	if remaining <= 0 {
		delete(s.refs, jobID)
	}
	return remaining
}

// foreignHandleError marks an access to a handle minted for a different
// client; handlers map it to 403 where other resolution failures are 404.
type foreignHandleError struct{ handle string }

func (e foreignHandleError) Error() string {
	return fmt.Sprintf("handle %q belongs to another client", e.handle)
}

// writeHandleError maps a jobForHandle failure: a foreign handle is 403,
// anything else (unknown handle, evicted job) 404.
func writeHandleError(w http.ResponseWriter, err error) {
	var fe foreignHandleError
	if errors.As(err, &fe) {
		writeError(w, http.StatusForbidden, err)
		return
	}
	writeError(w, http.StatusNotFound, err)
}

// handleLocked resolves a handle for client, enforcing ownership: a handle
// minted for one client is forbidden to every other, on reads as much as
// release — handles are sequential ("h-1", "h-2", ...), so without this any
// authenticated tenant could enumerate them, read other tenants' statuses
// and results, and cancel their work by releasing the last claim on a
// shared job. Ownerless handles (open server, or rehydrated from a previous
// life) stay usable by any authenticated client. Callers must hold s.mu.
func (s *Server) handleLocked(handle, client string) (handleRec, error) {
	h, ok := s.handles[handle]
	if !ok {
		return h, fmt.Errorf("unknown handle %q", handle)
	}
	if h.owner != "" && h.owner != client {
		return h, foreignHandleError{handle}
	}
	return h, nil
}

// jobForHandle resolves a handle to its job and the job's live handle
// count, for client (see handleLocked).
func (s *Server) jobForHandle(handle, client string) (*engine.Job, int, error) {
	s.mu.Lock()
	h, err := s.handleLocked(handle, client)
	clients := s.refs[h.job]
	s.mu.Unlock()
	if err != nil {
		return nil, 0, err
	}
	job, err := s.manager.Get(h.job)
	if err != nil {
		return nil, 0, err
	}
	return job, clients, nil
}

func (s *Server) handleHandleStatus(w http.ResponseWriter, r *http.Request) {
	handle := r.PathValue("handle")
	job, clients, err := s.jobForHandle(handle, clientFrom(r))
	if err != nil {
		writeHandleError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, JobHandle{Handle: handle, Clients: clients, Status: job.Status()})
}

func (s *Server) handleReleaseHandle(w http.ResponseWriter, r *http.Request) {
	handle := r.PathValue("handle")
	s.mu.Lock()
	h, err := s.handleLocked(handle, clientFrom(r))
	if err != nil {
		s.mu.Unlock()
		writeHandleError(w, err)
		return
	}
	remaining := s.dropHandleLocked(handle)
	job, err := s.manager.Get(h.job)
	if err != nil {
		job = nil
	}
	// Cancel only when no other handle still claims the job.
	cancel := remaining <= 0 && job != nil
	if cancel {
		// About to cancel: retract cache entries inside this critical
		// section so a concurrent identical submission submits fresh
		// instead of attaching to a job being torn down.
		s.retractCacheLocked(job)
	}
	s.mu.Unlock()
	resp := JobHandle{Handle: handle, Clients: remaining}
	if job != nil {
		if cancel {
			// Last interested client is gone: cancel the shared job (a no-op
			// if it already finished).
			job.Cancel()
		}
		resp.Status = job.Status()
	}
	writeJSON(w, http.StatusOK, resp)
}

// pruneHandlesLocked bounds the v2 handle bookkeeping. Handles are minted
// per client and many clients never DELETE, so unlike the result cache the
// table is not bounded by job retention. Two passes: drop handles whose job
// the Manager evicted, then compact handleOrder and — past MaxHandles —
// evict the oldest handles outright, *without* canceling their jobs (forced
// eviction is a memory bound, not a cancellation signal; the job keeps
// running and its result stays cached, but the evicted handle 404s).
//
// The sweep triggers on handleOrder's length, not the handle table's:
// released and evicted handle ids linger in handleOrder until compaction,
// so keying the trigger on it bounds handleOrder's own growth under
// submit→release churn (where the table itself stays small). The trigger
// is sweepAt of the ids kept by the last sweep, and a table past the cap is
// evicted down to half of it, so a full table cannot re-trigger on every
// mint. Callers must hold s.mu.
func (s *Server) pruneHandlesLocked() {
	if len(s.handleOrder) <= min(sweepAt(s.handlesKept), MaxHandles) {
		return
	}
	for h, rec := range s.handles {
		if _, err := s.manager.Get(rec.job); err != nil {
			s.dropHandleLocked(h)
		}
	}
	target := len(s.handles)
	if target > MaxHandles {
		target = MaxHandles / 2
	}
	kept := s.handleOrder[:0]
	for _, h := range s.handleOrder {
		if _, ok := s.handles[h]; !ok {
			continue // released, or dropped by the evicted-job pass
		}
		if len(s.handles) > target {
			s.dropHandleLocked(h)
			continue
		}
		kept = append(kept, h)
	}
	s.handleOrder = kept
	s.handlesKept = len(kept)
}

// sweepAt is the size at which a table that kept live entries in its last
// sweep is swept again: an eighth more, and at least DefaultRetention/8
// more. Dead entries stay a small slack over the live ones, and each sweep,
// which costs the table's size, follows at least a ninth as many
// insertions, so the cost per insertion is O(1) however many entries live.
func sweepAt(live int) int {
	return live + max(live, engine.DefaultRetention)/8
}

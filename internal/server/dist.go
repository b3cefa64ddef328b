package server

import (
	"errors"
	"net/http"

	"gameofcoins/internal/dist"
)

// The /dist endpoints are the coordinator's wire surface — gocworker's whole
// protocol (see internal/dist):
//
//	POST /dist/join    JoinRequest → JoinResponse; 409 on a catalog
//	                   fingerprint mismatch (a drifted worker must not
//	                   compute wrong-version tasks)
//	POST /dist/lease   LeaseRequest → Lease, or 204 when no distributable
//	                   job has pending work; 404 for an unknown worker
//	                   (the worker re-joins)
//	POST /dist/report  ReportRequest → ReportResponse; 410 for an unknown
//	                   or expired lease (the worker drops it)
//
// The fleet itself is observable in GET /healthz under "dist".

func (s *Server) handleDistJoin(w http.ResponseWriter, r *http.Request) {
	var req dist.JoinRequest
	if !decodeInto(w, r, &req) {
		return
	}
	resp, err := s.fleet.Join(req)
	if err != nil {
		if errors.Is(err, dist.ErrFingerprint) {
			writeError(w, http.StatusConflict, err)
			return
		}
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleDistLease(w http.ResponseWriter, r *http.Request) {
	var req dist.LeaseRequest
	if !decodeInto(w, r, &req) {
		return
	}
	lease, err := s.fleet.Lease(req)
	switch {
	case errors.Is(err, dist.ErrUnknownWorker):
		writeError(w, http.StatusNotFound, err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
	case lease == nil:
		w.WriteHeader(http.StatusNoContent)
	default:
		writeJSON(w, http.StatusOK, lease)
	}
}

func (s *Server) handleDistReport(w http.ResponseWriter, r *http.Request) {
	var rep dist.ReportRequest
	if !decodeInto(w, r, &rep) {
		return
	}
	resp, err := s.fleet.Report(rep)
	switch {
	case errors.Is(err, dist.ErrUnknownLease):
		writeError(w, http.StatusGone, err)
	case err != nil:
		// Undecodable results or a vanished run: the coordinator already
		// requeued the lease's tasks for local recompute; the worker only
		// needs to know the lease is dead.
		writeError(w, http.StatusInternalServerError, err)
	default:
		writeJSON(w, http.StatusOK, resp)
	}
}

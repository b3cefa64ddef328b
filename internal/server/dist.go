package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"gameofcoins/internal/dist"
	"gameofcoins/internal/engine"
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

// FingerprintHeader optionally pins a /v2 submission to a catalog
// fingerprint: a client that captured the catalog once can assert every
// later submission still targets the same spec surface, and a mismatch
// (server upgraded, client pointed at a different replica) is refused with
// 409 instead of silently resolving kinds against a drifted catalog.
const FingerprintHeader = "X-Catalog-Fingerprint"

// checkFingerprint enforces FingerprintHeader when present; it reports
// false after writing the 409.
func (s *Server) checkFingerprint(w http.ResponseWriter, r *http.Request) bool {
	fp := r.Header.Get(FingerprintHeader)
	if fp == "" || fp == engine.CatalogFingerprint() {
		return true
	}
	writeJSON(w, http.StatusConflict, map[string]string{
		"error":       fmt.Sprintf("catalog fingerprint mismatch: client pinned %s, server serves %s", fp, engine.CatalogFingerprint()),
		"fingerprint": engine.CatalogFingerprint(),
	})
	return false
}

// pinnedKind is the always-pinned wire form of (kind, version) — unlike
// engine.VersionedKind, which keeps v1 bare for wire compatibility, a job's
// remote identity must pin explicitly: a bare kind resolves to *latest* on
// the worker, which would silently recompute a v1 job under v2 semantics
// the day a v2 registers. Legacy records with version 0 ran v1 semantics.
func pinnedKind(kind string, version int) string {
	if version <= 0 {
		version = 1
	}
	return fmt.Sprintf("%s@v%d", kind, version)
}

// decodeInto decodes a request body into v, rejecting unknown fields. On
// failure it writes the 400 and reports false. Every handler that reads a
// JSON body goes through it, so a body-size bound has one place to live.
func decodeInto(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return false
	}
	return true
}

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

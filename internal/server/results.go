package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"gameofcoins/internal/engine"
)

// writeJobResult serves a job's result: 409 while running, 410 for
// terminal-but-resultless (failed/canceled).
func writeJobResult(w http.ResponseWriter, job *engine.Job) {
	st := job.Status()
	if !st.State.Terminal() {
		writeError(w, http.StatusConflict, fmt.Errorf("job %s is %s", st.ID, st.State))
		return
	}
	res, ok := job.Result()
	if !ok {
		// Terminal but resultless (failed or canceled): 410, not 409, so
		// clients that retry on "still running" don't poll forever.
		writeError(w, http.StatusGone, fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":     st.ID,
		"kind":   st.Kind,
		"result": res,
	})
}

func (s *Server) handleHandleResult(w http.ResponseWriter, r *http.Request) {
	job, _, err := s.jobForHandle(r.PathValue("handle"), clientFrom(r))
	if err != nil {
		writeHandleError(w, err)
		return
	}
	if rng := r.URL.Query().Get("range"); rng != "" {
		writeResultRange(w, job, rng)
		return
	}
	writeJobResult(w, job)
}

// rangeFlushBytes is how much of a ?range body is buffered before it is
// flushed to the client.
const rangeFlushBytes = 256 << 10

// writeResultRange serves ?range=lo-hi from the job's result ledger: the
// TaskCoder documents of tasks [lo, hi), servable mid-run as soon as the
// span is fully computed. Error mapping: a malformed or out-of-bounds range
// is 400, a span not yet fully computed is 409 (retry after the watermark
// passes hi), and a job without a ledger — non-TaskCoder spec, or restored
// terminal from a previous life — is 410 (no per-task documents will ever
// exist for it).
//
// The body is assembled by concatenation: the documents go out verbatim —
// byte-identical to the ledger and the store, never re-marshalled or
// re-indented — and no Content-Length is set, so net/http switches to
// chunked transfer and flushing every rangeFlushBytes bounds the
// server-side buffer however large the span is.
func writeResultRange(w http.ResponseWriter, job *engine.Job, rng string) {
	tr, err := engine.ParseTaskRange(rng)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	docs, err := job.ResultRange(tr.Lo, tr.Hi)
	if err != nil {
		switch {
		case errors.Is(err, engine.ErrBadRange):
			writeError(w, http.StatusBadRequest, err)
		case errors.Is(err, engine.ErrRangeIncomplete):
			writeError(w, http.StatusConflict, err)
		case errors.Is(err, engine.ErrNoLedger):
			writeError(w, http.StatusGone, err)
		default:
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	st := job.Status()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	var buf bytes.Buffer
	fmt.Fprintf(&buf, `{"id":%q,"kind":%q,"lo":%d,"hi":%d,"total":%d,"results":[`,
		st.ID, st.Kind, tr.Lo, tr.Hi, st.Progress.Total)
	for i, d := range docs {
		if i > 0 {
			buf.WriteByte(',')
		}
		//goclint:allow errdrop -- bytes.Buffer writes cannot fail
		buf.Write(d)
		if buf.Len() >= rangeFlushBytes {
			if _, err := w.Write(buf.Bytes()); err != nil {
				return // client hung up; nothing recoverable
			}
			buf.Reset()
			if fl != nil {
				fl.Flush()
			}
		}
	}
	//goclint:allow errdrop -- bytes.Buffer writes cannot fail
	buf.WriteString("]}")
	//goclint:allow errdrop -- headers are sent; a failed body write is the client hanging up
	_, _ = w.Write(buf.Bytes())
}

// handleHandleEvents streams the job's status as server-sent events: a
// "progress" event per observed snapshot (coalesced to the latest for slow
// consumers), a "result-range" event each time the result ledger's
// contiguous-prefix watermark advances — its data is {"id","lo","hi"}, the
// newly completed task span, fetchable immediately via ?range=lo-hi — and a
// final "end" event carrying the terminal status, after which the stream
// closes. Backed by engine.Job.Watch.
//
// Each event carries an "id:" line holding "done.watermark" — the snapshot's
// progress counter and the ledger watermark it reflects — so a client that
// reconnects after a dropped stream can send the standard Last-Event-ID
// header and have both progress it already saw suppressed AND the watermark
// resumed exactly where it left off: the first result-range event after a
// reconnect starts at the acknowledged watermark, never skipping or
// duplicating a span. A bare integer Last-Event-ID (pre-watermark clients)
// still suppresses progress and replays ranges from 0 — duplicates, never
// gaps. The terminal event is never suppressed (progress counters reset if a
// restart recomputes the job, so a stale ID must not swallow the ending).
func (s *Server) handleHandleEvents(w http.ResponseWriter, r *http.Request) {
	job, _, err := s.jobForHandle(r.PathValue("handle"), clientFrom(r))
	if err != nil {
		writeHandleError(w, err)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("response writer cannot stream"))
		return
	}
	lastSeen, lastWM := -1, 0
	if lev := r.Header.Get("Last-Event-ID"); lev != "" {
		donePart, wmPart, composite := strings.Cut(lev, ".")
		if n, err := strconv.Atoi(donePart); err == nil {
			lastSeen = n
			if composite {
				if wm, err := strconv.Atoi(wmPart); err == nil && wm > 0 {
					lastWM = wm
				}
			}
		}
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	// Watch unsubscribes itself when the client disconnects (r.Context()).
	for st := range job.Watch(r.Context()) {
		// Watermark advances surface before the status event that carries
		// them, each as one span [lastWM, wm) — coalesced snapshots coalesce
		// the spans too, so a slow consumer sees fewer, wider ranges.
		if wm := st.Progress.Watermark; wm > lastWM {
			fmt.Fprintf(w, "id: %d.%d\nevent: result-range\ndata: {\"id\":%q,\"lo\":%d,\"hi\":%d}\n\n",
				st.Progress.Done, wm, st.ID, lastWM, wm)
			lastWM = wm
			fl.Flush()
		}
		event := "progress"
		if st.State.Terminal() {
			event = "end"
		} else if st.Progress.Done <= lastSeen {
			continue
		}
		b, err := json.Marshal(st)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "id: %d.%d\nevent: %s\ndata: %s\n\n", st.Progress.Done, lastWM, event, b)
		fl.Flush()
	}
}

package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"gameofcoins/internal/engine"
	"gameofcoins/internal/store"
)

// writeJobResult serves a job's result: 409 while running, 410 for
// terminal-but-resultless (failed/canceled). A done job whose result lives
// in the store is served its stored bytes, or 410 once the store evicted it.
func (s *Server) writeJobResult(w http.ResponseWriter, job *engine.Job) {
	st := job.Status()
	if !st.State.Terminal() {
		writeError(w, http.StatusConflict, fmt.Errorf("job %s is %s", st.ID, st.State))
		return
	}
	if st.State != engine.StateDone {
		// Terminal but resultless (failed or canceled): 410, not 409, so
		// clients that retry on "still running" don't poll forever.
		writeError(w, http.StatusGone, fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error))
		return
	}
	res, err := job.Result()
	if errors.Is(err, engine.ErrResultStored) {
		var stored []byte
		stored, err = s.store.ReadResult(nil, st.ID)
		res = json.RawMessage(stored)
	}
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, store.ErrNoDocs) {
			code = http.StatusGone
		}
		writeError(w, code, err)
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
		s.writeResultRange(w, job, rng)
		return
	}
	s.writeJobResult(w, job)
}

// rangeFlushBytes is how much of a ?range body is buffered before it is
// flushed to the client.
const rangeFlushBytes = 256 << 10

// storedDocs holds the buffers ?range= reads spans from the store into.
var storedDocs = sync.Pool{New: func() any { return new([]byte) }}

// writeResultRange serves ?range=lo-hi from the job's result ledger: the
// TaskCoder documents of tasks [lo, hi), servable mid-run as soon as the
// span is fully computed. Error mapping: a malformed or out-of-bounds range
// is 400, a span a running job has not yet fully computed is 409 (retry
// after the watermark passes hi), and 410 means no retry can help: the job
// is terminal and never completed the span (it failed or was canceled, or
// was restored with fewer persisted documents), or it has no ledger — a
// non-TaskCoder spec, or a failed or canceled job restored from a previous
// life. A done job whose run lives only in the store (see watchJob) is
// served from the store's log; one whose documents the store has evicted
// since is 410 too.
//
// The documents go out verbatim — the ledger's packed run is the results
// array's inner bytes, byte-identical to the store's, never re-marshalled
// or re-indented — in pieces of at most rangeFlushBytes, each flushed, so
// net/http's buffer stays bounded however large the span is. The body's
// length is known before its first byte and is sent as Content-Length,
// which lets a client read it into one buffer of that size.
func (s *Server) writeResultRange(w http.ResponseWriter, job *engine.Job, rng string) {
	tr, err := engine.ParseTaskRange(rng)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	docs, err := job.ResultRange(tr.Lo, tr.Hi)
	body := docs.Bytes()
	if errors.Is(err, engine.ErrRangeStored) {
		buf := storedDocs.Get().(*[]byte)
		defer storedDocs.Put(buf)
		if *buf, err = s.store.ReadDocs((*buf)[:0], job.ID(), tr.Lo, tr.Hi); errors.Is(err, store.ErrNoDocs) {
			err = fmt.Errorf("%w: %v", engine.ErrRangeGone, err)
		}
		body = *buf
	}
	if err != nil {
		switch {
		case errors.Is(err, engine.ErrBadRange):
			writeError(w, http.StatusBadRequest, err)
		case errors.Is(err, engine.ErrRangeIncomplete):
			writeError(w, http.StatusConflict, err)
		case errors.Is(err, engine.ErrNoLedger), errors.Is(err, engine.ErrRangeGone):
			writeError(w, http.StatusGone, err)
		default:
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	st := job.Status()
	head := fmt.Appendf(nil, `{"id":%q,"kind":%q,"lo":%d,"hi":%d,"total":%d,"results":[`,
		st.ID, st.Kind, tr.Lo, tr.Hi, st.Progress.Total)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(head)+len(body)+len("]}")))
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	if _, err := w.Write(head); err != nil {
		return // client hung up; nothing recoverable
	}
	for len(body) > 0 {
		n := min(len(body), rangeFlushBytes)
		if _, err := w.Write(body[:n]); err != nil {
			return
		}
		if body = body[n:]; len(body) > 0 && fl != nil {
			fl.Flush()
		}
	}
	//goclint:allow errdrop -- headers are sent; a failed body write is the client hanging up
	_, _ = w.Write([]byte("]}"))
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

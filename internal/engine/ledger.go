package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// The result ledger extends the engine's per-job done-bitmap into an ordered
// record of every published task result in its TaskCoder wire form. A job
// whose spec implements TaskCoder gets one at submission; the ledger is the
// source for everything downstream of "a task finished": the contiguous-
// prefix watermark in Progress, partial-result range GETs served mid-run,
// SSE result-range events, the store's incremental range records, and the
// client's streaming iterator. Restored (already-terminal) jobs start with
// no ledger; PrefillResults rebuilds one from the store's persisted range
// records so range GETs and resumed result streams survive a restart.

// ErrNoLedger reports a range query against a job without a result ledger:
// the spec is not a TaskCoder, or the job was restored already-terminal.
var ErrNoLedger = errors.New("engine: job has no result ledger")

// ErrRangeIncomplete reports a range query for a span not yet fully
// computed. Callers retry after the watermark passes hi.
var ErrRangeIncomplete = errors.New("engine: range not fully computed yet")

// ErrBadRange reports a range query outside the job's task bounds.
var ErrBadRange = errors.New("engine: range out of bounds")

// resultLedger is the per-job store of encoded task results. docs is
// index-addressed; watermark is the contiguous completed prefix, kept in an
// atomic so statuses read it without the mutex.
type resultLedger struct {
	mu        sync.Mutex
	docs      []json.RawMessage
	watermark atomic.Int64
}

func newResultLedger(n int) *resultLedger {
	return &resultLedger{docs: make([]json.RawMessage, n)}
}

// record lands one encoded task result, first-writer-wins (the engine's
// publication paths already guarantee one delivery per index; the guard
// makes the ledger safe against a hypothetical duplicate), and advances the
// watermark over the new contiguous prefix.
func (l *resultLedger) record(task int, raw json.RawMessage) {
	if task < 0 || task >= len(l.docs) || raw == nil {
		return
	}
	l.mu.Lock()
	if l.docs[task] == nil {
		// Clone: the engine hands over buffers owned by report bodies and
		// store snapshots; the ledger outlives both.
		l.docs[task] = bytes.Clone(raw)
		wm := int(l.watermark.Load())
		for wm < len(l.docs) && l.docs[wm] != nil {
			wm++
		}
		l.watermark.Store(int64(wm))
	}
	l.mu.Unlock()
}

// slice copies out the documents of [lo, hi). The documents themselves are
// shared read-only — callers must not mutate them.
func (l *resultLedger) slice(lo, hi int) ([]json.RawMessage, error) {
	if lo < 0 || hi > len(l.docs) || hi <= lo {
		return nil, fmt.Errorf("%w: [%d,%d) of %d tasks", ErrBadRange, lo, hi, len(l.docs))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]json.RawMessage, 0, hi-lo)
	for i := lo; i < hi; i++ {
		if l.docs[i] == nil {
			return nil, fmt.Errorf("%w: task %d of [%d,%d)", ErrRangeIncomplete, i, lo, hi)
		}
		out = append(out, l.docs[i])
	}
	return out, nil
}

// recordTask feeds the job's ledger; it is the runOpts.onTask hook the
// Manager wires at submission. No-op for jobs without a ledger.
func (j *Job) recordTask(task int, raw json.RawMessage) {
	if j.ledger != nil {
		j.ledger.record(task, raw)
	}
}

// PrefillResults installs a result ledger over persisted per-task documents
// for a job restored already-terminal, so ?range fetches and resumed result
// streams keep working across a restart. No-op when the job already has a
// ledger or there is nothing to prefill. Callers must invoke it during
// rehydration, before the job is exposed to request traffic — the ledger
// field itself is written unsynchronized.
func (j *Job) PrefillResults(docs map[int]json.RawMessage) {
	if j.ledger != nil || len(docs) == 0 || j.total <= 0 {
		return
	}
	l := newResultLedger(j.total)
	for i := 0; i < j.total; i++ {
		if doc, ok := docs[i]; ok {
			l.record(i, doc)
		}
	}
	j.ledger = l
}

// Watermark returns the job's contiguous completed prefix: every task below
// it has its encoded result in the ledger. Zero for jobs without a ledger.
func (j *Job) Watermark() int {
	if j.ledger == nil {
		return 0
	}
	return int(j.ledger.watermark.Load())
}

// ResultRange returns the encoded task results of [lo, hi). It works
// mid-run — any fully-computed span is servable before the job finishes.
// Errors are sentinel-wrapped: ErrNoLedger when the job has no ledger,
// ErrBadRange for out-of-bounds spans, ErrRangeIncomplete when some task in
// the span has no result yet.
func (j *Job) ResultRange(lo, hi int) ([]json.RawMessage, error) {
	if j.ledger == nil {
		return nil, ErrNoLedger
	}
	return j.ledger.slice(lo, hi)
}

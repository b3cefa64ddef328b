package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
)

// The result ledger is the Job's ordered record of every published task
// result in its TaskCoder wire form (Job.docs, under Job.mu). A Manager job
// whose spec implements TaskCoder gets one at submission, and publishLocked
// fills it: it is the job's first-writer-wins index, and the source for
// everything downstream of "a task finished": the contiguous-prefix
// watermark in Progress, partial-result range GETs served mid-run, SSE
// result-range events, the store's incremental range records, and the
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

// recordLocked lands one encoded task result in the ledger and advances the
// watermark over the new contiguous prefix. Callers hold j.mu and record
// each index at most once.
func (j *Job) recordLocked(task int, raw json.RawMessage) {
	// Clone: report bodies and store snapshots own the bytes handed in, and
	// the ledger outlives both.
	j.docs[task] = bytes.Clone(raw)
	for j.watermark < len(j.docs) && j.docs[j.watermark] != nil {
		j.watermark++
	}
}

// PrefillResults installs a result ledger over persisted per-task documents
// for a job restored already-terminal, so ?range fetches and resumed result
// streams keep working across a restart. No-op when the job already has a
// ledger or there is nothing to prefill.
func (j *Job) PrefillResults(docs map[int]json.RawMessage) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.docs != nil || len(docs) == 0 || j.total <= 0 {
		return
	}
	j.docs = make([]json.RawMessage, j.total)
	for i := range j.total {
		if doc, ok := docs[i]; ok && doc != nil {
			j.recordLocked(i, doc)
		}
	}
}

// Watermark returns the job's contiguous completed prefix: every task below
// it has its encoded result in the ledger. Zero for jobs without a ledger.
func (j *Job) Watermark() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.watermark
}

// ResultRange returns the encoded task results of [lo, hi). It works
// mid-run — any fully-computed span is servable before the job finishes.
// The documents are shared read-only; callers must not mutate them. Errors
// are sentinel-wrapped: ErrNoLedger when the job has no ledger, ErrBadRange
// for out-of-bounds spans, ErrRangeIncomplete when some task in the span
// has no result yet.
func (j *Job) ResultRange(lo, hi int) ([]json.RawMessage, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.docs == nil {
		return nil, ErrNoLedger
	}
	if lo < 0 || hi > len(j.docs) || hi <= lo {
		return nil, fmt.Errorf("%w: [%d,%d) of %d tasks", ErrBadRange, lo, hi, len(j.docs))
	}
	for i := lo; i < hi; i++ {
		if j.docs[i] == nil {
			return nil, fmt.Errorf("%w: task %d of [%d,%d)", ErrRangeIncomplete, i, lo, hi)
		}
	}
	return slices.Clone(j.docs[lo:hi]), nil
}

package engine

import (
	"encoding/json"
	"errors"
	"fmt"
)

// The result ledger is the Job's ordered record of every published task
// result in its TaskCoder wire form (Job.docs, under Job.mu). A Manager job
// whose spec implements TaskCoder gets one at submission, and publishLocked
// fills it: it is the job's first-writer-wins index, and the source for
// everything downstream of "a task finished": the contiguous-prefix
// watermark in Progress, partial-result range GETs served mid-run, SSE
// result-range events, the store's persisted prefix (a view of the
// ledger: a recorded entry is never rewritten), and the client's streaming
// iterator. A job restored already-terminal keeps the store's persisted
// documents as its ledger (Manager.Restore), so range GETs and resumed
// result streams survive a restart.

// ErrNoLedger reports a range query against a job without a result ledger:
// the spec is not a TaskCoder, or the job was restored already-terminal
// without persisted per-task documents.
var ErrNoLedger = errors.New("engine: job has no result ledger")

// ErrRangeIncomplete reports a range query for a span not yet fully
// computed. Callers retry after the watermark passes hi.
var ErrRangeIncomplete = errors.New("engine: range not fully computed yet")

// ErrRangeGone reports a range query for a span a terminal job will never
// complete (it failed, was canceled, or was restored with fewer documents).
var ErrRangeGone = errors.New("engine: range will never be computed")

// ErrBadRange reports a range query outside the job's task bounds.
var ErrBadRange = errors.New("engine: range out of bounds")

// recordLocked lands one encoded task result in the ledger and advances the
// watermark over the new contiguous prefix. The ledger keeps raw as it is,
// so callers hand in bytes that nothing writes again: a local encoding (see
// TaskCoder.EncodeTaskResult), or a clone of bytes someone else owns.
// Callers hold j.mu and record each index at most once.
func (j *Job) recordLocked(task int, raw json.RawMessage) {
	j.docs[task] = raw
	for j.watermark < len(j.docs) && j.docs[j.watermark] != nil {
		j.watermark++
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
// The result is a view of the ledger, capped at hi so an append copies;
// callers must not modify it or its documents. Errors are sentinel-wrapped:
// ErrNoLedger when the job has no ledger, ErrBadRange for out-of-bounds
// spans, ErrRangeIncomplete when some task in the span has no result yet,
// and ErrRangeGone when it never will because the job is terminal.
func (j *Job) ResultRange(lo, hi int) ([]json.RawMessage, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.docs == nil {
		return nil, ErrNoLedger
	}
	if lo < 0 || hi > len(j.docs) || hi <= lo {
		return nil, fmt.Errorf("%w: [%d,%d) of %d tasks", ErrBadRange, lo, hi, len(j.docs))
	}
	for i := max(lo, j.watermark); i < hi; i++ {
		if j.docs[i] == nil {
			missing := ErrRangeIncomplete
			if j.state.Terminal() {
				missing = ErrRangeGone
			}
			return nil, fmt.Errorf("%w: task %d of [%d,%d)", missing, i, lo, hi)
		}
	}
	return j.docs[lo:hi:hi], nil
}

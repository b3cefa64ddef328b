package engine

import (
	"encoding/json"
	"errors"
	"fmt"
)

// The result ledger is the Job's ordered record of every published task
// result in its TaskCoder wire form (Job.ledger, under Job.mu). A Manager job
// whose spec implements TaskCoder gets one at submission, and publishLocked
// fills it: it is the job's first-writer-wins index, and the source for
// everything downstream of "a task finished": the contiguous-prefix
// watermark in Progress, partial-result range GETs served mid-run, SSE
// result-range events, the store's persisted prefix (copied from views of
// the ledger's run: a recorded document is never rewritten), and the
// client's streaming iterator. A done job's ledger keeps only the count of
// the documents the serving layer's store holds once it holds them all
// (Job.DropDocs), and so does a job restored done (Manager.Restore): their
// range GETs report ErrRangeStored and are served from the store.

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

// ErrRangeStored reports a range query for a span whose documents live in
// the serving layer's store, not in memory (Job.DropDocs, Manager.Restore).
var ErrRangeStored = errors.New("engine: range lies in the store")

// ErrResultStored reports the result of a done job that lives in the
// serving layer's store, not in memory (Job.DropResult, Manager.Restore).
var ErrResultStored = errors.New("engine: result lies in the store")

// ledger is a job's result ledger. A document recorded at the watermark
// joins docs, the packed run of tasks [0, watermark); one recorded above it
// is parked until the watermark reaches it, and then joins the run. A done
// job's ledger may hold stored, documents [0, stored) in the store, instead.
type ledger struct {
	docs Docs
	// park holds the documents recorded above the watermark w:
	// park[head+i] is task w+1+i's, or nil. It reaches only to the highest
	// parked task and rewinds whenever it empties: nil until a document
	// parks, and again once the job finishes.
	park   []json.RawMessage
	head   int
	stored int
}

// len returns the watermark: every task below it has its document recorded.
func (l *ledger) len() int { return l.docs.Len() + l.stored }

// has reports whether task's document is recorded.
func (l *ledger) has(task int) bool {
	i := l.head + task - l.len() - 1
	return task < l.len() || task > l.len() && i < len(l.park) && l.park[i] != nil
}

// record lands one encoded task result of a total-task job, advancing the
// watermark over the new contiguous prefix. It keeps raw until the run
// takes a copy, so callers hand in bytes that nothing writes again. It fails
// only when the run would outgrow MaxDocsBytes. Callers record each index
// at most once.
func (l *ledger) record(task, total int, raw json.RawMessage) error {
	if task > l.docs.Len() {
		i := l.head + task - l.docs.Len() - 1
		if i >= len(l.park) {
			l.park = append(l.park, make([]json.RawMessage, i+1-len(l.park))...)
		}
		l.park[i] = raw
		return nil
	}
	for {
		if l.docs.Size()+1+len(raw) > MaxDocsBytes {
			return fmt.Errorf("engine: task %d's document would grow the result ledger past %d bytes", l.docs.Len(), MaxDocsBytes)
		}
		if cap(l.docs.body)-len(l.docs.body) < 1+len(raw) {
			// Room for the tasks left at the run's average document size
			// so far, plus a byte each: documents of one spec are alike in
			// size, so a run is usually one allocation, sized at its first
			// document, and a finished one carries little slack.
			n, left := l.docs.Len()+1, total-l.docs.Len()
			per := (l.docs.Size()+1+len(raw)+n-1)/n + 1
			l.docs = l.docs.Grow(left, 1+len(raw)+per*(left-1))
		}
		l.docs = l.docs.AppendDoc(raw)
		raw = nil
		if l.head < len(l.park) {
			raw, l.park[l.head] = l.park[l.head], nil
			l.head++
		}
		if l.head == len(l.park) {
			l.park, l.head = l.park[:0], 0
		}
		if raw == nil {
			return nil
		}
	}
}

// span returns the documents of [lo, hi), every one of them recorded: a
// view of the run below the watermark, else a copy, as parked documents
// are not packed yet.
func (l *ledger) span(lo, hi int) Docs {
	wm := l.docs.Len()
	if hi <= wm {
		return l.docs.Slice(lo, hi)
	}
	out := Docs{}.Append(l.docs.Slice(min(lo, wm), wm))
	for i := max(lo, wm); i < hi; i++ {
		out = out.AppendDoc(l.park[l.head+i-wm-1])
	}
	return out.Slice(0, out.Len())
}

// Watermark returns the job's contiguous completed prefix: every task below
// it has its encoded result in the ledger. Zero for jobs without a ledger.
func (j *Job) Watermark() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.watermarkLocked()
}

func (j *Job) watermarkLocked() int {
	if j.ledger == nil {
		return 0
	}
	return j.ledger.len()
}

// ResultRange returns the encoded task results of [lo, hi). It works
// mid-run — any fully-computed span is servable before the job finishes.
// Below the watermark the result is a view of the ledger's run, taken
// without an allocation; a span that reaches past the watermark is a copy.
// Callers must not modify its bytes. Errors are sentinel-wrapped:
// ErrNoLedger when the job has no ledger, ErrBadRange for out-of-bounds
// spans, ErrRangeIncomplete when some task in the span has no result yet,
// ErrRangeGone when it never will because the job is terminal, and
// ErrRangeStored when the span's documents are in the store.
func (j *Job) ResultRange(lo, hi int) (Docs, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	l := j.ledger
	if l == nil {
		return Docs{}, ErrNoLedger
	}
	if lo < 0 || hi > j.total || hi <= lo {
		return Docs{}, fmt.Errorf("%w: [%d,%d) of %d tasks", ErrBadRange, lo, hi, j.total)
	}
	for i := max(lo, l.len()); i < hi; i++ {
		if !l.has(i) {
			missing := ErrRangeIncomplete
			if j.state.Terminal() {
				missing = ErrRangeGone
			}
			return Docs{}, fmt.Errorf("%w: task %d of [%d,%d)", missing, i, lo, hi)
		}
	}
	if l.stored > 0 {
		return Docs{}, fmt.Errorf("%w: [%d,%d) of %s", ErrRangeStored, lo, hi, j.id)
	}
	return l.span(lo, hi), nil
}

// DropDocs drops the run of a done job whose ledger holds every document,
// keeping their count, once the serving layer's store holds them all; it
// reports whether it did.
func (j *Job) DropDocs() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if l := j.ledger; j.state == StateDone && l != nil && l.docs.Len() == j.total {
		l.docs, l.stored = Docs{}, j.total
		return true
	}
	return false
}

// DropResult drops a done job's result once the serving layer's store holds
// it: Result then reports ErrResultStored. It reports whether it did.
func (j *Job) DropResult() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return false
	}
	j.result, j.stored = nil, true
	return true
}

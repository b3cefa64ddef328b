package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gameofcoins/client"
	"gameofcoins/internal/engine"
)

// opMode is how an op reads its result.
type opMode int

const (
	// modeWait: submit → Wait (SSE) → Result → Release.
	modeWait opMode = iota
	// modeStream: submit → StreamResult (SSE result-range events plus
	// ?range= fetches) → Result → Release.
	modeStream
)

// taskDoc is one per-task result document as the client received it.
type taskDoc struct {
	task int
	doc  json.RawMessage
}

// opResult is the outcome of one op.
type opResult struct {
	index   int
	op      op
	id      int64         // traced op id
	jobID   string        // server job behind the handle
	latency time.Duration // submit → aggregate result in hand
	first   time.Duration // submit → first per-task document
	cached  bool
	result  json.RawMessage // aggregate document as served (kept when asked)
	docs    []taskDoc       // streamed or fetched task documents (kept when asked)
	err     error
}

// keep selects what an op retains for later checks.
type keep struct {
	result bool // the served aggregate
	docs   bool // the per-task documents (fetched with ?range= outside the latency window when not streamed)
}

// runOp performs one op on c. Errors are returned in the result, never
// panicked: a failed op is counted and the phase goes on.
func runOp(ctx context.Context, c *client.Client, t *tracer, mode opMode, o op, k keep) opResult {
	res := opResult{op: o}
	if t != nil {
		res.id = t.newID()
		root := Span{ID: res.id, Op: res.id, Name: "op", Start: t.now()}
		ctx = withSpan(ctx, res.id, res.id)
		defer func() {
			root.End = t.now()
			t.record(root)
		}()
	}
	res.err = doOp(ctx, c, t, mode, &res, k)
	return res
}

func doOp(ctx context.Context, c *client.Client, t *tracer, mode opMode, res *opResult, k keep) error {
	env := res.op.env
	start := time.Now()
	var h *client.Handle
	err := t.call(ctx, "sdk.submit", func(ctx context.Context) error {
		var err error
		h, err = c.Submit(ctx, env.Kind, env.Seed, env.Spec)
		return err
	})
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	res.jobID = h.Submitted.ID
	res.cached = h.Submitted.Cached
	if t != nil {
		t.jobs.Store(res.jobID, res.id)
	}
	var st engine.Status
	if mode == modeStream {
		err = t.call(ctx, "sdk.stream", func(ctx context.Context) error {
			var err error
			st, err = h.StreamResult(ctx, func(task int, doc json.RawMessage) error {
				if res.first == 0 {
					res.first = time.Since(start)
				}
				if k.docs {
					res.docs = append(res.docs, taskDoc{task, doc})
				}
				return nil
			})
			return err
		})
	} else {
		err = t.call(ctx, "sdk.wait", func(ctx context.Context) error {
			var err error
			st, err = h.Wait(ctx)
			return err
		})
	}
	if err == nil && st.State != engine.StateDone {
		err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	var raw json.RawMessage
	if err == nil {
		err = t.call(ctx, "sdk.result", func(ctx context.Context) error { return h.Result(ctx, &raw) })
	}
	res.latency = time.Since(start)
	if res.first == 0 {
		res.first = res.latency
	}
	if k.result {
		res.result = raw
	}
	if err == nil && k.docs && mode != modeStream {
		err = t.call(ctx, "sdk.range", func(ctx context.Context) error {
			docs, err := h.ResultRange(ctx, 0, st.Progress.Total)
			for i, d := range docs {
				res.docs = append(res.docs, taskDoc{i, d})
			}
			return err
		})
	}
	// Release even after a failure, so a failed op leaves no claim behind.
	rerr := t.call(ctx, "sdk.release", func(ctx context.Context) error { return h.Release(ctx) })
	if err != nil {
		return err
	}
	if rerr != nil {
		return fmt.Errorf("release: %w", rerr)
	}
	return nil
}

// loop drives the clients closed-loop over a generated op sequence: each
// client takes the next op index as soon as its previous op completes,
// until n ops are taken or the deadline passes (a zero deadline means
// none).
type loop struct {
	mode     opMode
	gen      func(i int) (op, error)
	n        int       // op count limit; <= 0 means none
	deadline time.Time // zero: no time limit
	keep     func(i int) keep
	t        *tracer
}

// run executes the loop on the life's clients and returns the op results
// in op order together with the wall time from first submit to last
// completion.
func (lp loop) run(ctx context.Context, l *life) ([]opResult, time.Duration, error) {
	var next atomic.Int64
	var stopped atomic.Bool
	var mu sync.Mutex
	var results []opResult
	var genErr error
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range l.clients {
		wg.Add(1)
		go func(c *client.Client) {
			defer wg.Done()
			var mine []opResult
			for !stopped.Load() {
				if !lp.deadline.IsZero() && !time.Now().Before(lp.deadline) {
					break
				}
				i := int(next.Add(1) - 1)
				if lp.n > 0 && i >= lp.n {
					break
				}
				o, err := lp.gen(i)
				if err != nil {
					mu.Lock()
					genErr = err
					mu.Unlock()
					stopped.Store(true)
					break
				}
				var k keep
				if lp.keep != nil {
					k = lp.keep(i)
				}
				res := runOp(ctx, c, lp.t, lp.mode, o, k)
				res.index = i
				mine = append(mine, res)
			}
			mu.Lock()
			results = append(results, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	sort.Slice(results, func(i, k int) bool { return results[i].index < results[k].index })
	return results, wall, genErr
}

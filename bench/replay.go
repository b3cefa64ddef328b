package bench

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"gameofcoins/internal/core"
	"gameofcoins/internal/engine"
	"gameofcoins/internal/equilibria"
	"gameofcoins/internal/learning"
	"gameofcoins/internal/rng"
	"gameofcoins/internal/store"
	"gameofcoins/internal/traffic"
)

// Replays call each layer's public functions directly on the traced ops'
// inputs. They give the per-layer kernel and engine timings and, because a
// replay recomputes every task and the aggregate, the expected bytes the
// served documents are checked against.

// jobReplay is one job recomputed task by task, the way an engine worker
// runs it: task i draws from rng.New(seed).Fork(i).
type jobReplay struct {
	spec     engine.Spec
	version  int
	docs     []json.RawMessage // EncodeTaskResult of each task
	result   []byte            // json.Marshal of the aggregate
	taskUs   []float64
	encodeUs []float64
	aggUs    float64
}

// minBatch is the shortest interval a replay timing trusts. The clock
// resolves tens of nanoseconds, so a faster call is repeated until the
// batch lasts this long and the batch mean is recorded.
const minBatch = 20 * time.Microsecond

// timeCall returns fn's duration in microseconds: one call when that
// lasts at least minBatch, otherwise the mean of a batch long enough.
func timeCall(fn func() error) (float64, error) {
	for reps := 1; ; reps *= 4 {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		if d := time.Since(t0); d >= minBatch || reps >= 1<<14 {
			return us(d) / float64(reps), nil
		}
	}
}

// timedTasks is how many tasks per job replayJob times. Tasks are chosen
// by index, evenly spaced, never by how long they took, so the sample is
// unbiased; short ones are timed in batches (timeCall).
const timedTasks = 32

func replayJob(ctx context.Context, env engine.JobEnvelope) (*jobReplay, error) {
	rs, err := engine.ResolveEnvelope(env)
	if err != nil {
		return nil, err
	}
	coder, ok := rs.Spec.(engine.TaskCoder)
	if !ok {
		return nil, fmt.Errorf("%s has no task codec", env.Kind)
	}
	n := rs.Spec.Tasks()
	base := rng.New(env.Seed)
	jr := &jobReplay{spec: rs.Spec, version: rs.Version}
	outs := make([]any, n)
	stride := max(1, n/timedTasks)
	for i := 0; i < n; i++ {
		run := func() error {
			out, err := rs.Spec.RunTask(ctx, i, base.Fork(uint64(i)))
			outs[i] = out
			return err
		}
		t0 := time.Now()
		err := run()
		d := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("replay task %d: %w", i, err)
		}
		doc, err := coder.EncodeTaskResult(outs[i])
		if err != nil {
			return nil, fmt.Errorf("encode task %d: %w", i, err)
		}
		jr.docs = append(jr.docs, doc)
		if i%stride != 0 {
			continue
		}
		taskUs := us(d)
		if d < minBatch {
			if taskUs, err = timeCall(run); err != nil {
				return nil, err
			}
		}
		encUs, err := timeCall(func() error {
			_, err := coder.EncodeTaskResult(outs[i])
			return err
		})
		if err != nil {
			return nil, err
		}
		jr.taskUs = append(jr.taskUs, taskUs)
		jr.encodeUs = append(jr.encodeUs, encUs)
	}
	jr.aggUs, err = timeCall(func() error {
		agg, err := rs.Spec.Aggregate(outs)
		if err == nil {
			jr.result, err = json.Marshal(agg)
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("replay aggregate: %w", err)
	}
	return jr, nil
}

// eachDistinct runs fn once per distinct envelope, one goroutine per P so
// no timed call shares its P, and returns the successful results keyed by
// envKey.
func eachDistinct[T any](envs []engine.JobEnvelope, fn func(engine.JobEnvelope) (T, error)) (map[string]T, error) {
	seen := map[string]bool{}
	var todo []engine.JobEnvelope
	for _, env := range envs {
		if k := envKey(env); !seen[k] {
			seen[k] = true
			todo = append(todo, env)
		}
	}
	out := map[string]T{}
	var mu sync.Mutex
	var errs []error
	var wg sync.WaitGroup
	procs := runtime.GOMAXPROCS(0)
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(todo); i += procs {
				v, err := fn(todo[i])
				mu.Lock()
				if err != nil {
					errs = append(errs, err)
				} else {
					out[envKey(todo[i])] = v
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// reference runs the job on a fresh one-worker engine, the determinism
// reference every checked op's aggregate must match byte for byte.
func reference(ctx context.Context, env engine.JobEnvelope) ([]byte, error) {
	rs, err := engine.ResolveEnvelope(env)
	if err != nil {
		return nil, err
	}
	res, err := engine.New(1).Run(ctx, rs.Spec, env.Seed, nil)
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

// kernelSample is one task's game replayed through both paper kernels,
// with the outcomes checkKernel compares against the served task document.
type kernelSample struct {
	enumUs     float64
	configs    float64
	runUs      float64
	steps      int
	equilibria int
	converged  bool
}

// replayKernels replays equilibria.Enumerate and learning.Run on the game
// task i of spec draws (the first draw of every built-in sweep task). On
// the sweep kind that calls the other kernel the replay is off the served
// path; it still measures that layer on this workload's games. The draw
// order and scheduler choice repeat what the sweep's RunTask does;
// checkKernel catches a replay that drifts from it.
func replayKernels(spec engine.Spec, seed uint64, i int) (kernelSample, error) {
	var ks kernelSample
	var gen core.GenSpec
	var opts learning.Options
	nsched := len(learning.AllSchedulers())
	sched := func() (learning.Scheduler, error) { return learning.AllSchedulers()[i%nsched], nil }
	switch s := spec.(type) {
	case engine.EquilibriumSweep:
		gen = s.Gen
	case engine.LearnSweep:
		gen, opts.MaxSteps = s.Gen, s.MaxSteps
		sched = func() (learning.Scheduler, error) { return learning.AllSchedulers()[(i/s.Runs)%nsched], nil }
		if len(s.Schedulers) > 0 {
			sched = func() (learning.Scheduler, error) { return learning.SchedulerByName(s.Schedulers[i/s.Runs]) }
		}
	default:
		return ks, fmt.Errorf("no kernel replay for %s", spec.Kind())
	}
	r := rng.New(seed).Fork(uint64(i))
	g, err := core.RandomGame(r, gen)
	if err != nil {
		return ks, err
	}
	s0 := core.RandomConfig(r, g)
	split := r.Split()
	ks.configs = math.Pow(float64(g.NumCoins()), float64(g.NumMiners()))
	ks.enumUs, err = timeCall(func() error {
		eqs, err := equilibria.Enumerate(g)
		ks.equilibria = len(eqs)
		return err
	})
	if err != nil {
		return ks, err
	}
	// Schedulers carry state, so every repetition starts from a fresh one
	// (constructing it is a few allocations, inside the timing) and a copy
	// of the same generator.
	ks.runUs, err = timeCall(func() error {
		sc, err := sched()
		if err != nil {
			return err
		}
		rr := *split
		res, err := learning.Run(g, s0, sc, &rr, opts)
		if err != nil {
			return err
		}
		ks.steps = res.Steps
		ks.converged = res.Converged && g.IsEquilibrium(res.Final)
		return nil
	})
	return ks, err
}

// edgeSample is one envelope replayed through the request edge: registry
// resolution (schema validation + decode), canonical encoding and cache
// key, then authentication and admission.
type edgeSample struct {
	resolveUs, keyUs, authUs, admitUs float64
}

func replayEdge(ctl *traffic.Controller, key string, env engine.JobEnvelope) (edgeSample, error) {
	var es edgeSample
	var rs engine.ResolvedSpec
	var err error
	if es.resolveUs, err = timeCall(func() error {
		rs, err = engine.ResolveEnvelope(env)
		return err
	}); err != nil {
		return es, err
	}
	if es.keyUs, err = timeCall(func() error {
		canonical, err := engine.CanonicalSpecJSON(rs.Spec)
		if err == nil {
			_ = engine.CacheKeyJSON(rs.WireKind(), canonical, env.Seed)
		}
		return err
	}); err != nil {
		return es, err
	}
	var client string
	if es.authUs, err = timeCall(func() error {
		var ok bool
		if client, ok = ctl.Authenticate(key); !ok {
			return errors.New("replayed authentication refused")
		}
		return nil
	}); err != nil {
		return es, err
	}
	es.admitUs, err = timeCall(func() error {
		if _, ok := ctl.Admit(client); !ok {
			return errors.New("replayed admission throttled")
		}
		return nil
	})
	return es, err
}

// storeSample is the store layer replayed on the records the server would
// write for a set of jobs. Every workload measures the store this way, so
// the store metrics mean the same on each.
type storeSample struct {
	putJobUs, putRangeUs []float64
	loadMs               float64
	logBytesPerJob       float64
}

// replayStore writes each job's submitted record, its task documents as
// one range, and its done record into a fresh file store in dir, then
// times reopening it.
func replayStore(dir string, envs []engine.JobEnvelope, jobs map[string]*jobReplay) (storeSample, error) {
	var ss storeSample
	f, err := store.OpenFile(dir)
	if err != nil {
		return ss, err
	}
	n := 0
	for _, env := range envs {
		jr := jobs[envKey(env)]
		if jr == nil {
			continue
		}
		canonical, err := engine.CanonicalSpecJSON(jr.spec)
		if err != nil {
			return ss, errors.Join(err, f.Close())
		}
		n++
		rec := store.JobRecord{
			ID:      fmt.Sprintf("job-%d", n),
			Key:     engine.CacheKeyJSON(engine.VersionedKind(jr.spec.Kind(), jr.version), canonical, env.Seed),
			Kind:    jr.spec.Kind(),
			Version: jr.version,
			Seed:    env.Seed,
			Tasks:   len(jr.docs),
			Spec:    canonical,
			State:   store.JobSubmitted,
		}
		t0 := time.Now()
		err = f.PutJob(rec)
		ss.putJobUs = append(ss.putJobUs, us(time.Since(t0)))
		if err == nil {
			t0 = time.Now()
			err = f.PutJobRange(rec.ID, 0, jr.docs)
			ss.putRangeUs = append(ss.putRangeUs, us(time.Since(t0)))
		}
		if err == nil {
			rec.State, rec.Result = store.JobDone, jr.result
			t0 = time.Now()
			err = f.PutJob(rec)
			ss.putJobUs = append(ss.putJobUs, us(time.Since(t0)))
		}
		if err != nil {
			return ss, errors.Join(err, f.Close())
		}
	}
	if err := f.Close(); err != nil {
		return ss, err
	}
	info, err := os.Stat(filepath.Join(dir, "log.jsonl"))
	if err != nil {
		return ss, err
	}
	if n > 0 {
		ss.logBytesPerJob = float64(info.Size()) / float64(n)
	}
	t0 := time.Now()
	f, err = store.OpenFile(dir)
	if err == nil {
		_, err = f.Load()
	}
	ss.loadMs = ms(time.Since(t0))
	if f != nil {
		err = errors.Join(err, f.Close())
	}
	return ss, err
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

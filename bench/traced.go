package bench

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"gameofcoins/internal/engine"
	"gameofcoins/internal/traffic"
)

// Replay sample sizes: the kernels replay up to kernelJobs jobs at up to
// kernelTasks evenly spaced tasks each; the request edge replays up to
// edgeOps envelopes; the store replay writes up to storeJobs jobs.
const (
	kernelJobs  = 32
	kernelTasks = 8
	edgeOps     = 500
	storeJobs   = 200
)

// traced runs the traced phase on a fresh life: the same op sequence as
// the timed phase, a quarter as long, with spans recorded at every layer
// boundary the benchmark's own wrappers can see. It then replays the
// checked ops through each layer's public functions, checks every
// streamed or fetched document and aggregate against the replay, and sets
// the per-layer metrics.
func (r *runner) traced(ctx context.Context) error {
	tr := newTracer()
	l, _, err := r.setup(ctx, "life-traced", tr)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	phaseStart := tr.now()
	docs := func(i int) bool { return r.mode == modeStream || i%checkEvery == 0 }
	k := func(i int) keep { return keep{result: docs(i), docs: docs(i)} }
	results, _, err := r.phaseLoop(r.cfg.Seconds/4, tr, k).run(ctx, l)
	r.account(results)
	throttled, persistFails := r.checkHealth(ctx, l)
	if err = errors.Join(err, l.close()); err != nil {
		return err
	}
	spans := tr.finish()
	if r.cfg.SpansDir != "" {
		name := fmt.Sprintf("spans-%s-%d.json", r.cfg.Workload, r.cfg.Seed)
		if err := writeSpans(r.cfg.SpansDir, name, spans); err != nil {
			return err
		}
	}
	var phase []Span
	for _, s := range spans {
		if s.Start >= phaseStart {
			phase = append(phase, s)
		}
	}

	var ok []opResult
	var lat []float64
	for _, res := range results {
		if res.err == nil {
			ok = append(ok, res)
			lat = append(lat, ms(res.latency))
		}
	}
	n := len(ok)
	if n == 0 {
		return errors.New("no traced op completed")
	}
	rep := r.rep
	rep.set("trace.overhead", quantile(lat, 0.5)/r.timedP50-1, n)
	rep.set("runtime.allocs_per_op", r.allocsPerOp, r.timedOps)
	rep.set("runtime.gc_cpu_share", r.gcShare, r.timedOps)
	rep.set("traffic.throttled", float64(throttled), 1)
	rep.set("store.persist_failures", float64(persistFails), 1)
	r.serverMetrics(tr, phase, ok)

	// Replays: every op that kept its documents is recomputed task by task.
	var checked []opResult
	var envs []engine.JobEnvelope
	for _, res := range ok {
		if docs(res.index) {
			checked = append(checked, res)
			envs = append(envs, res.op.env)
		}
	}
	jobs, err := eachDistinct(envs, func(env engine.JobEnvelope) (*jobReplay, error) { return replayJob(ctx, env) })
	if err != nil {
		r.fail("replay: %v", err)
	}
	taskMs := map[string][]float64{} // replayed task time per job, by shapeKey
	nTaskMs := 0
	for _, res := range checked {
		jr := jobs[envKey(res.op.env)]
		if jr == nil {
			continue
		}
		if err := checkDocs(res.docs, jr.docs); err != nil {
			r.fail("traced op %d: %v", res.index, err)
		}
		if err := checkAggregate(res.result, jr.result); err != nil {
			r.fail("traced op %d: %v", res.index, err)
		}
		k := shapeKey(res.op.env)
		taskMs[k] = append(taskMs[k], mean(jr.taskUs)*float64(len(jr.docs))/1e3)
		nTaskMs++
	}
	var distinct []*jobReplay
	var distinctEnvs []engine.JobEnvelope
	seen := map[string]bool{}
	for _, env := range envs {
		if k := envKey(env); !seen[k] && jobs[k] != nil {
			seen[k] = true
			distinct = append(distinct, jobs[k])
			distinctEnvs = append(distinctEnvs, env)
		}
	}
	var task, enc, agg []float64
	for _, jr := range distinct {
		task = append(task, jr.taskUs...)
		enc = append(enc, jr.encodeUs...)
		agg = append(agg, jr.aggUs)
	}
	rep.set("engine.task_p50_us", quantile(task, 0.5), len(task))
	rep.set("engine.task_p99_us", quantile(task, 0.99), len(task))
	rep.set("engine.encode_p50_us", quantile(enc, 0.5), len(enc))
	rep.set("engine.aggregate_p50_us", quantile(agg, 0.5), len(agg))
	rep.set("engine.compute_share", r.computeShare(taskMs), nTaskMs)

	r.kernelMetrics(distinct, distinctEnvs)
	if err := r.edgeMetrics(ok); err != nil {
		return err
	}
	// The store layer is measured the same way on every workload, on a
	// scratch store: persist-stream's live store calls are spans only.
	if len(distinct) > storeJobs {
		distinctEnvs = distinctEnvs[:storeJobs]
	}
	ss, err := replayStore(filepath.Join(r.dir, "store-replay"), distinctEnvs, jobs)
	if err != nil {
		r.fail("store replay: %v", err)
	}
	rep.set("store.put_job_p50_us", quantile(ss.putJobUs, 0.5), len(ss.putJobUs))
	rep.set("store.put_job_p99_us", quantile(ss.putJobUs, 0.99), len(ss.putJobUs))
	rep.set("store.put_range_p50_us", quantile(ss.putRangeUs, 0.5), len(ss.putRangeUs))
	rep.set("store.put_range_p99_us", quantile(ss.putRangeUs, 0.99), len(ss.putRangeUs))
	rep.set("store.load_ms", ss.loadMs, 1)
	rep.set("store.log_bytes_per_job", ss.logBytesPerJob, len(ss.putRangeUs))
	return nil
}

// computeShare is the share of the timed phase's CPU per op that replayed
// task compute accounts for. The replayed jobs are the reference-checked
// ones, whose mix of job shapes need not be the timed phase's (on eq-cold
// every other one is a large job, against one op in 20), so each shape's
// mean replayed time is weighted by that shape's share of the timed ops.
func (r *runner) computeShare(taskMs map[string][]float64) float64 {
	keys := make([]string, 0, len(taskMs))
	for k := range taskMs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	perOp, weight := 0.0, 0.0
	for _, k := range keys {
		perOp += r.shapeShare[k] * mean(taskMs[k])
		weight += r.shapeShare[k]
	}
	if weight == 0 || r.cpuMsPerOp == 0 {
		return 0
	}
	return perOp / weight / r.cpuMsPerOp
}

// serverMetrics derives the server and client layers' numbers from the
// traced phase's spans and stream observations.
func (r *runner) serverMetrics(tr *tracer, phase []Span, ok []opResult) {
	rep := r.rep
	n := float64(len(ok))
	for _, rt := range []string{"submit", "result", "range", "release"} {
		v := named(phase, "server."+rt)
		rep.set("server."+rt+"_p50_us", quantile(v, 0.5), len(v))
		rep.set("server."+rt+"_p99_us", quantile(v, 0.99), len(v))
	}
	requests := 0
	httpSpans := map[int64]Span{}
	for _, s := range phase {
		if strings.HasPrefix(s.Name, "server.") {
			requests++
		}
		if strings.HasPrefix(s.Name, "http.") && s.Name != "http.events" {
			httpSpans[s.ID] = s
		}
	}
	var rtt []float64
	for _, s := range phase {
		if h, found := httpSpans[s.Parent]; found && strings.HasPrefix(s.Name, "server.") {
			rtt = append(rtt, float64(h.dur()-s.dur())/1e3)
		}
	}
	rep.set("client.rtt_overhead_p50_us", quantile(rtt, 0.5), len(rtt))
	rep.set("client.rtt_overhead_p99_us", quantile(rtt, 0.99), len(rtt))
	rep.set("server.requests_per_op", float64(requests)/n, len(ok))
	rep.set("server.range_fetches_per_op", float64(len(named(phase, "server.range")))/n, len(ok))

	ids := make([]int64, 0, len(ok))
	for _, res := range ok {
		ids = append(ids, res.id)
	}
	events := 0
	var wait []float64
	for _, o := range tr.observations(ids) {
		events += o.events
		if o.submitted > 0 && o.firstProgress > o.submitted {
			wait = append(wait, float64(o.firstProgress-o.submitted)/1e6)
		}
	}
	rep.set("server.sse_events_per_op", float64(events)/n, len(ok))
	rep.set("engine.queue_wait_p50_ms", quantile(wait, 0.5), len(wait))
	rep.set("engine.queue_wait_p99_ms", quantile(wait, 0.99), len(wait))
}

// kernelMetrics replays the paper kernels on a spread of the traced jobs'
// tasks, and checks each replay against the task's document (which the
// served documents matched byte for byte).
func (r *runner) kernelMetrics(jobs []*jobReplay, envs []engine.JobEnvelope) {
	var enum, run []float64
	var configs, enumNs, runNs, steps float64
	for j := 0; j < len(jobs) && j < kernelJobs; j++ {
		n := len(jobs[j].docs)
		for t := 0; t < kernelTasks && t < n; t++ {
			i := t * n / min(kernelTasks, n)
			ks, err := replayKernels(jobs[j].spec, envs[j].Seed, i)
			if err == nil {
				err = checkKernel(jobs[j].spec, jobs[j].docs[i], ks)
			}
			if err != nil {
				r.fail("kernel replay of %s seed %d task %d: %v", envs[j].Kind, envs[j].Seed, i, err)
				continue
			}
			enum = append(enum, ks.enumUs)
			run = append(run, ks.runUs)
			configs += ks.configs
			enumNs += ks.enumUs * 1e3
			runNs += ks.runUs * 1e3
			steps += float64(ks.steps)
		}
	}
	rep := r.rep
	rep.set("equilibria.enumerate_p50_us", quantile(enum, 0.5), len(enum))
	rep.set("equilibria.enumerate_p99_us", quantile(enum, 0.99), len(enum))
	rep.set("learning.run_p50_us", quantile(run, 0.5), len(run))
	rep.set("learning.run_p99_us", quantile(run, 0.99), len(run))
	perTask, perConfig, perStep := 0.0, 0.0, 0.0
	if len(enum) > 0 {
		perTask = configs / float64(len(enum))
		perConfig = enumNs / configs
	}
	if steps > 0 {
		perStep = runNs / steps
	}
	rep.set("equilibria.configs_per_task", perTask, len(enum))
	rep.set("equilibria.ns_per_config", perConfig, len(enum))
	rep.set("learning.steps_per_task", steps/float64(max(len(run), 1)), len(run))
	rep.set("learning.ns_per_step", perStep, len(run))
}

// edgeMetrics replays registry resolution, cache keying, authentication
// and admission on the traced ops' envelopes, against a controller
// configured like the workload's server.
func (r *runner) edgeMetrics(ok []opResult) error {
	tc, err := trafficConfig()
	if err != nil {
		return err
	}
	ctl := traffic.New(tc) // a fresh controller configured like the server's
	var resolve, key, auth, admit []float64
	for i, res := range ok {
		if i == edgeOps {
			break
		}
		es, err := replayEdge(ctl, tenantKeys[res.index%r.clients], res.op.env)
		if err != nil {
			r.fail("edge replay of op %d: %v", res.index, err)
			continue
		}
		resolve = append(resolve, es.resolveUs)
		key = append(key, es.keyUs)
		auth = append(auth, es.authUs)
		admit = append(admit, es.admitUs)
	}
	rep := r.rep
	rep.set("engine.resolve_p50_us", quantile(resolve, 0.5), len(resolve))
	rep.set("engine.cache_key_p50_us", quantile(key, 0.5), len(key))
	rep.set("traffic.auth_p50_us", quantile(auth, 0.5), len(auth))
	rep.set("traffic.admit_p50_us", quantile(admit, 0.5), len(admit))
	return nil
}

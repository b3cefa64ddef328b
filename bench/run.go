package bench

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"gameofcoins/internal/engine"
)

// Config is one gocperf invocation.
type Config struct {
	Workload string
	Seed     uint64
	Seconds  float64 // length of the timed phase
	// Trace adds the traced phase, a quarter as long, which gives the
	// per-layer metrics.
	Trace    bool
	WorkDir  string // scratch space for store directories; emptied after the run
	SpansDir string // if set, the traced phase's spans are written here
	Quick    bool   // test-sized inputs
}

// Value is one reported metric value.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Report is the outcome of one invocation.
type Report struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Traced    bool             `json:"traced"`
	Nproc     int              `json:"nproc"`
	Procs     int              `json:"gomaxprocs"`
	Go        string           `json:"go"`
	Clients   int              `json:"clients"`
	Workers   int              `json:"workers"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Failures  []string         `json:"failures,omitempty"`
	Metrics   map[string]Value `json:"metrics"`
	// Samples counts the observations behind each percentile or ratio.
	Samples map[string]int `json:"samples"`
}

func (rep *Report) set(name string, v float64, samples int) {
	m, ok := lookupMetric(name)
	if !ok {
		panic("bench: metric " + name + " is not in the catalogue")
	}
	rep.Metrics[name] = Value{Value: v, Unit: m.Unit}
	rep.Samples[name] = samples
}

// Run performs one invocation: set-up, the untraced timed phase with its
// correctness checks, and with cfg.Trace the traced phase.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	known := false
	for _, w := range Workloads() {
		known = known || w == cfg.Workload
	}
	if !known {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if cfg.Seconds <= 0 {
		return nil, errors.New("seconds must be positive")
	}
	sz := runSizes(cfg.Quick)
	in, err := newInputs(cfg.Workload, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.WorkDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &runner{
		cfg: cfg, sz: sz, in: in, dir: dir,
		mode:    modeStream,
		persist: cfg.Workload == PersistStream,
		clients: clientsFor(cfg.Workload),
		rep: &Report{
			Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds, Traced: cfg.Trace,
			Nproc: runtime.NumCPU(), Procs: runtime.GOMAXPROCS(0), Go: runtime.Version(), Clients: clientsFor(cfg.Workload), Workers: workers,
			Metrics: map[string]Value{}, Samples: map[string]int{},
		},
	}
	if cfg.Workload == EqCold {
		r.mode = modeWait
	}
	if r.persist {
		if err := r.writeFixture(ctx); err != nil {
			return nil, fmt.Errorf("fixture: %w", err)
		}
	}
	if err := r.timed(ctx); err != nil {
		return nil, fmt.Errorf("timed phase: %w", err)
	}
	if cfg.Trace {
		if err := r.traced(ctx); err != nil {
			return nil, fmt.Errorf("traced phase: %w", err)
		}
	}
	return r.rep, nil
}

type runner struct {
	cfg     Config
	sz      sizes
	in      *inputs
	mode    opMode
	persist bool
	dir     string
	rep     *Report

	clients    int    // closed-loop clients in set-ups and phases
	fixtureDir string // persist-stream: the store every set-up copies

	// Timed-phase numbers the traced phase compares against.
	timedOps    int
	timedP50    float64
	cpuMsPerOp  float64
	allocsPerOp float64
	gcShare     float64
	shapeShare  map[string]float64 // shapeKey → share of timed ops
}

func (r *runner) fail(format string, args ...any) {
	r.rep.Failed++
	if len(r.rep.Failures) < 20 {
		r.rep.Failures = append(r.rep.Failures, fmt.Sprintf(format, args...))
	}
}

// account counts ops as attempted and failed ones as failed.
func (r *runner) account(results []opResult) {
	r.rep.Attempted += len(results)
	for _, res := range results {
		if res.err != nil {
			r.fail("op %d (%s seed %d): %v", res.index, res.op.env.Kind, res.op.env.Seed, res.err)
		}
	}
}

// writeFixture is persist-stream's untimed earlier life: it fills a store
// with the fixture jobs that every set-up then opens and rehydrates.
func (r *runner) writeFixture(ctx context.Context) error {
	r.fixtureDir = filepath.Join(r.dir, "fixture")
	l, err := openLife(lifeOptions{clients: clients, storeDir: r.fixtureDir})
	if err != nil {
		return err
	}
	results, _, err := loop{mode: modeWait, gen: r.in.fixtureOp, n: r.sz.fixture}.run(ctx, l)
	r.account(results)
	return errors.Join(err, l.close())
}

// setup is one timed set-up: a fresh server (on a fresh copy of the
// fixture store, for persist-stream) plus the workload's warm-up.
func (r *runner) setup(ctx context.Context, name string, tr *tracer) (*life, time.Duration, error) {
	var storeDir string
	if r.persist {
		storeDir = filepath.Join(r.dir, name)
		if err := copyDir(r.fixtureDir, storeDir); err != nil {
			return nil, 0, err
		}
	}
	start := time.Now()
	l, err := openLife(lifeOptions{clients: r.clients, storeDir: storeDir, tr: tr})
	if err != nil {
		return nil, 0, err
	}
	results, _, err := loop{mode: r.mode, gen: r.in.warmup, n: r.sz.warm, t: tr}.run(ctx, l)
	elapsed := time.Since(start)
	r.account(results)
	if err != nil {
		return nil, 0, errors.Join(err, l.close())
	}
	return l, elapsed, nil
}

// phaseLoop is the op loop of a timed or traced phase lasting secs.
func (r *runner) phaseLoop(secs float64, tr *tracer, k func(int) keep) loop {
	return loop{mode: r.mode, gen: r.in.op, keep: k, t: tr, deadline: time.Now().Add(seconds(secs))}
}

func (r *runner) timed(ctx context.Context) error {
	var setupS []float64
	var l *life
	var heapBase uint64
	for k := 0; k < r.sz.setups; k++ {
		if k == r.sz.setups-1 {
			heapBase = liveHeap()
		}
		lk, d, err := r.setup(ctx, fmt.Sprintf("life-%d", k), nil)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, d.Seconds())
		if k < r.sz.setups-1 {
			if err := lk.close(); err != nil {
				return err
			}
			continue
		}
		l = lk
	}
	keepResults := func(i int) keep { return keep{result: i%checkEvery == 0} }
	runtime.GC()
	cpu0, rt0 := cpuTime(), readRuntime()
	results, wall, err := r.phaseLoop(r.cfg.Seconds, nil, keepResults).run(ctx, l)
	cpu1, rt1 := cpuTime(), readRuntime()
	r.account(results)
	if err != nil {
		return errors.Join(err, l.close())
	}

	var lat, first []float64
	var sampled []opResult
	r.shapeShare = map[string]float64{}
	for _, res := range results {
		if res.err != nil {
			continue
		}
		lat = append(lat, ms(res.latency))
		first = append(first, ms(res.first))
		r.shapeShare[shapeKey(res.op.env)]++
		if res.index%checkEvery == 0 {
			sampled = append(sampled, res)
		}
	}
	results = nil
	n := len(lat)
	if n == 0 {
		return errors.Join(errors.New("no op completed"), l.close())
	}
	for k := range r.shapeShare {
		r.shapeShare[k] /= float64(n)
	}

	// Correctness, after timing stops: every 10th op against a one-worker
	// reference run. The references run on engines of their own and leave
	// the server as it was, so the heap is read after them, once the
	// benchmark holds no per-op records but the few persist-stream's
	// restart check resubmits: the heap growth is then the server's.
	r.checkReferences(ctx, sampled)
	var restart []opResult
	if r.persist {
		restart = append(restart, sampled[max(0, len(sampled)-r.sz.resubmit):]...)
	}
	sampled = nil
	heapEnd := liveHeap()

	// Every op submits a new job, so the server holds one job per op.
	held := n + r.sz.warm
	if r.persist {
		held += r.sz.fixture
	}
	held = min(held, engine.DefaultRetention)
	rep := r.rep
	rep.set("ops_per_s", float64(n)/wall.Seconds(), n)
	rep.set("latency_p50_ms", quantile(lat, 0.5), n)
	rep.set("latency_p99_ms", quantile(lat, 0.99), n)
	rep.set("first_result_p50_ms", quantile(first, 0.5), n)
	rep.set("first_result_p99_ms", quantile(first, 0.99), n)
	rep.set("cpu_ms_per_op", ms(cpu1-cpu0)/float64(n), n)
	rep.set("heap_kb_per_job", (float64(heapEnd)-float64(heapBase))/1024/float64(held), held)
	rep.set("setup_s", median(setupS), len(setupS))
	r.timedOps = n
	r.timedP50 = quantile(lat, 0.5)
	r.cpuMsPerOp = ms(cpu1-cpu0) / float64(n)
	r.allocsPerOp = float64(rt1.allocs-rt0.allocs) / float64(n)
	if dt := rt1.cpuTotal - rt0.cpuTotal; dt > 0 {
		r.gcShare = (rt1.cpuGC - rt0.cpuGC) / dt
	}

	// The admission and persist failure counters, and for persist-stream
	// the last sampled ops against a restarted server.
	r.checkHealth(ctx, l)
	if err := l.close(); err != nil {
		return err
	}
	if r.persist {
		return r.checkRestart(ctx, l.storeDir, restart)
	}
	return nil
}

// checkReferences compares each op's served aggregate with a one-worker
// engine.New(1).Run reference of the same spec and seed.
func (r *runner) checkReferences(ctx context.Context, ops []opResult) {
	var envs []engine.JobEnvelope
	for _, res := range ops {
		envs = append(envs, res.op.env)
	}
	refs, err := eachDistinct(envs, func(env engine.JobEnvelope) ([]byte, error) { return reference(ctx, env) })
	if err != nil {
		r.fail("reference run: %v", err)
	}
	for _, res := range ops {
		if want := refs[envKey(res.op.env)]; want != nil {
			if err := checkAggregate(res.result, want); err != nil {
				r.fail("op %d: %v", res.index, err)
			}
		}
	}
}

// checkRestart opens a new server life on the timed phase's store and
// resubmits the given ops: each must be a cache hit on the rehydrated job,
// serving exactly the bytes served before the restart.
func (r *runner) checkRestart(ctx context.Context, dir string, before []opResult) error {
	l, err := openLife(lifeOptions{clients: r.clients, storeDir: dir})
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	lp := loop{mode: modeWait, n: len(before),
		gen:  func(i int) (op, error) { return before[i].op, nil },
		keep: func(int) keep { return keep{result: true} }}
	results, _, err := lp.run(ctx, l)
	r.account(results)
	if err != nil {
		r.fail("resubmit after restart: %v", err)
	}
	for _, res := range results {
		was := before[res.index]
		switch {
		case res.err != nil:
		case !res.cached:
			r.fail("op %d was recomputed after the restart, not served from the store", was.index)
		case !bytes.Equal(res.result, was.result):
			r.fail("op %d served %s after the restart, %s before", was.index, clip(res.result), clip(was.result))
		}
	}
	return l.close()
}

// checkHealth fails the run if anything was throttled or a store write
// failed, and returns both counters.
func (r *runner) checkHealth(ctx context.Context, l *life) (throttled, persistFails uint64) {
	throttled, persistFails, err := healthz(ctx, l)
	switch {
	case err != nil:
		r.fail("healthz: %v", err)
	case throttled > 0:
		r.fail("%d submissions throttled", throttled)
	case persistFails > 0:
		r.fail("%d store writes failed", persistFails)
	}
	return throttled, persistFails
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

type runtimeSample struct {
	allocs          uint64
	cpuGC, cpuTotal float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{allocs: s[0].Value.Uint64(), cpuGC: s[1].Value.Float64(), cpuTotal: s[2].Value.Float64()}
}

// liveHeap collects garbage and returns the bytes of live heap objects.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

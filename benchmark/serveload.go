package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"distme/internal/bmat"
	"distme/internal/cluster"
	"distme/internal/core"
	"distme/internal/engine"
	"distme/internal/metrics"
	"distme/internal/obs"
	"distme/internal/plan"
	"distme/internal/serve"
)

// runOpts are the knobs of one workload run. maxJobs, ladderJobs and
// setupReps are fixed in main and lowered only by the smoke test.
type runOpts struct {
	seed       int64
	seconds    float64
	traced     bool
	maxJobs    int // 0: the measured phase ends on the clock alone
	ladderJobs int
	setupReps  int
	gnmf       gnmfDims
	bench      *obs.Tracer // benchmark-side spans, written by -trace-out
	report     *strings.Builder
}

// tally counts jobs for the result line: every submit is attempted; a
// rejection, a failed job, a wrong plan or a failed check is failed.
type tally struct {
	attempted, failed int
	firstErr          error
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// jobRec is what one verified job told us.
type jobRec struct {
	lat, submit, result time.Duration
	wait, run           time.Duration
	params              core.Params
	planned             int64
	request, reply      int64
	taskMem             float64
}

// runJob is one client-visible unit: Submit, Result decoded, then Forget on
// the in-process server because the wire API has none.
func runJob(st *stack, cl *serve.Client, o operands) (jobRec, *bmat.BlockMatrix, error) {
	t0 := time.Now()
	id, err := cl.Submit("", 0, o.a, o.b)
	t1 := time.Now()
	if err != nil {
		return jobRec{}, nil, fmt.Errorf("submit: %w", err)
	}
	c, js, err := cl.Result(context.Background(), id)
	t2 := time.Now()
	st.server.Forget(id)
	if err != nil {
		return jobRec{}, nil, fmt.Errorf("result: %w", err)
	}
	if js.State != serve.StateDone {
		return jobRec{}, nil, fmt.Errorf("job ended %v: %s", js.State, js.Err)
	}
	return jobRec{
		lat: t2.Sub(t0), submit: t1.Sub(t0), result: t2.Sub(t1),
		wait: js.Wait, run: js.Run,
		params:  js.Params,
		planned: js.PlannedBytes,
		request: js.Meter.RequestBytes, reply: js.Meter.ReplyBytes,
	}, c, nil
}

// check verifies one finished job off the clock: the plan is the recorded
// one and the product passes Freivalds.
func (sp *spec) check(o operands, got core.Params, c *bmat.BlockMatrix) error {
	if want, ok := sp.plans[dimsKey(o.a, o.b)]; !ok || want != got {
		return fmt.Errorf("optimizer returned %v for %s, the recorded plan is %v", got, dimsKey(o.a, o.b), want)
	}
	return freivalds(c, o)
}

// counters is every monotone counter a phase reads a delta of.
type counters struct {
	cpu        time.Duration
	wire       int64
	net        metrics.NetStats
	cacheHits  int64
	cacheAdds  int64
	peerBytes  int64
	rejected   int64
	totalAlloc uint64
	numGC      uint32
	gcPause    uint64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readCounters(st *stack) counters {
	var c counters
	c.cpu = processCPU()
	sent, recv := st.driver.WireBytes()
	c.wire = sent + recv
	c.net = st.driver.NetStats()
	for _, w := range st.workers {
		cs := w.CacheStats()
		c.cacheHits += cs.Hits
		c.cacheAdds += cs.Insertions
		c.peerBytes += w.StoreStats().PeerFetchBytes + w.PullStats().PeerBytes
	}
	if st.server != nil {
		for _, t := range st.server.Tenants() {
			c.rejected += t.RejectedQueueFull + t.RejectedQuota + t.RejectedInfeasible
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c.totalAlloc, c.numGC, c.gcPause = m.TotalAlloc, m.NumGC, m.PauseTotalNs
	return c
}

// sampleCap bounds how many job records one client keeps. The benchmark
// shares its process, and so its heap, with the system it measures: records
// that grew with the job count would raise the live heap through the run,
// the collector would run less and less often, and small jobs would speed up
// as the run went on. A fixed-size uniform sample keeps the heap level.
const sampleCap = 2048

// sample is a uniform sample of one client's job records (reservoir
// sampling), complete while the client has run at most sampleCap jobs.
type sample struct {
	recs []jobRec
	seen int
	rng  *rand.Rand
}

func (s *sample) add(r jobRec) {
	s.seen++
	if len(s.recs) < cap(s.recs) {
		s.recs = append(s.recs, r)
	} else if i := s.rng.Intn(s.seen); i < len(s.recs) {
		s.recs[i] = r
	}
}

// part is one of the consecutive pieces a measured phase is cut into. done
// and busy are per client: jobs completed, and wall time minus the time
// spent generating and checking; gen is that generator time summed over
// clients.
type part struct {
	done          []int
	busy          []time.Duration
	gen           time.Duration
	before, after counters
}

func (p *part) jobs() int {
	n := 0
	for _, d := range p.done {
		n += d
	}
	return n
}

// phase is one closed-loop measured interval: its parts in order and one
// sample of job records per client.
type phase struct {
	// served says the jobs went through distme-serve and carry its status.
	served  bool
	parts   []*part
	samples []*sample
}

func newPhase(served bool, clients int, seed int64) *phase {
	ph := &phase{served: served}
	for c := 0; c < clients; c++ {
		ph.samples = append(ph.samples, &sample{
			recs: make([]jobRec, 0, sampleCap),
			rng:  rand.New(rand.NewSource(seed*1_000_003 + 13 + int64(c))),
		})
	}
	return ph
}

func (ph *phase) jobs() int {
	n := 0
	for _, p := range ph.parts {
		n += p.jobs()
	}
	return n
}

// lats pools the sampled job times of every client.
func (ph *phase) lats() []time.Duration {
	var lats []time.Duration
	for _, s := range ph.samples {
		for _, r := range s.recs {
			lats = append(lats, r.lat)
		}
	}
	return lats
}

// runPart drives every client's closed loop until the clock runs out (or
// maxJobs were attempted) and appends the part to ph: a client sends its
// next job only after decoding the previous result.
func runPart(st *stack, sp *spec, gens []generator, ph *phase, seconds float64, maxJobs int, tl *tally) {
	pt := &part{done: make([]int, len(gens)), busy: make([]time.Duration, len(gens))}
	var mu sync.Mutex
	var attempted atomic.Int64
	var wg sync.WaitGroup
	pt.before = readCounters(st)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for c, gen := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var errs []error
			var genT time.Duration
			start := time.Now()
			for time.Now().Before(deadline) {
				if n := attempted.Add(1); maxJobs > 0 && n > int64(maxJobs) {
					attempted.Add(-1)
					break
				}
				g0 := time.Now()
				o := gen()
				j0 := time.Now()
				rec, prod, err := runJob(st, st.clients[c], o)
				j1 := time.Now()
				if err == nil {
					rec.taskMem = core.ShapeOf(o.a, o.b).MemBytes(rec.params)
					err = sp.check(o, rec.params, prod)
				}
				genT += j0.Sub(g0) + time.Since(j1)
				if err != nil {
					errs = append(errs, err)
					continue
				}
				ph.samples[c].add(rec)
				pt.done[c]++
			}
			wall := time.Since(start)
			mu.Lock()
			pt.busy[c] = wall - genT
			pt.gen += genT
			for _, err := range errs {
				tl.fail(err)
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	pt.after = readCounters(st)
	tl.attempted += int(attempted.Load())
	ph.parts = append(ph.parts, pt)
}

// reference multiplies on the simulated-cluster engine, the plane every
// other plane must match bit for bit.
type reference struct{ eng *engine.Engine }

func newReference() (*reference, error) {
	eng, err := engine.New(engine.Config{Cluster: cluster.LaptopConfig()})
	if err != nil {
		return nil, fmt.Errorf("reference engine: %w", err)
	}
	return &reference{eng}, nil
}

// multiply runs the same (P,Q,R) the job ran with: the bit-for-bit contract
// holds across planes for one partitioning, since R fixes the order of the
// k-axis sums.
func (r *reference) multiply(a, b *bmat.BlockMatrix, p core.Params) (*bmat.BlockMatrix, *engine.Report, error) {
	return r.eng.Run(context.Background(), plan.Mul(plan.V("a"), plan.V("b")),
		map[string]*bmat.BlockMatrix{"a": a, "b": b}, engine.WithParams(p))
}

// warmOperands draws the warm-up jobs, split over the clients, before any
// clock runs.
func (sp *spec) warmOperands(seed int64, salt int) [][]operands {
	gens := sp.gens(seed, salt)
	warm := make([][]operands, sp.clients)
	for i := 0; i < sp.warmup; i++ {
		c := i % sp.clients
		warm[c] = append(warm[c], gens[c]())
	}
	return warm
}

// warmJob is one set-up job, kept so it can be checked once the set-up
// clock has stopped.
type warmJob struct {
	o      operands
	params core.Params
	c      *bmat.BlockMatrix
}

// setupServe brings the stack up and runs the warm-up jobs. The time it
// returns runs from the first worker's Listen to the last warm-up result;
// operands were generated before it started.
func setupServe(cfg stackConfig, warm [][]operands, tl *tally) (*stack, []warmJob, time.Duration, error) {
	t0 := time.Now()
	st, err := startStack(cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	var mu sync.Mutex
	var done []warmJob
	var wg sync.WaitGroup
	for c, ops := range warm {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, o := range ops {
				rec, prod, err := runJob(st, st.clients[c], o)
				mu.Lock()
				tl.attempted++
				if err != nil {
					tl.fail(fmt.Errorf("warm-up: %w", err))
				} else {
					done = append(done, warmJob{o, rec.params, prod})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return st, done, time.Since(t0), nil
}

// runServe measures one of the three distme-serve workloads.
func runServe(sp *spec, o runOpts) (results, tally, error) {
	res := results{}
	var tl tally
	census := runtime.NumGoroutine()
	ref, err := newReference()
	if err != nil {
		return nil, tl, err
	}
	defer ref.eng.Close()

	serveCfg := &serve.Config{WorkerMemBytes: sp.thetaT}
	cfg := stackConfig{seed: o.seed, serve: serveCfg, clients: sp.clients}

	warm := sp.warmOperands(o.seed, 0)

	// Set up several times and report the median, so one slow start does
	// not decide setup_s; the last stack stays up for the measured phase.
	var st *stack
	var done []warmJob
	var setups []float64
	for rep := 0; rep < o.setupReps; rep++ {
		if st != nil {
			st.close()
			if err := settle(census); err != nil {
				return nil, tl, err
			}
		}
		var d time.Duration
		if st, done, d, err = setupServe(cfg, warm, &tl); err != nil {
			return nil, tl, err
		}
		setups = append(setups, d.Seconds())
	}
	res.set("setup_s", median(setups), len(setups))
	for _, w := range done {
		if err := sp.check(w.o, w.params, w.c); err != nil {
			tl.fail(fmt.Errorf("warm-up: %w", err))
			continue
		}
		want, _, err := ref.multiply(w.o.a, w.o.b, w.params)
		if err != nil {
			st.close()
			return nil, tl, fmt.Errorf("reference multiply: %w", err)
		}
		if !bitEqual(w.c, want) {
			tl.fail(fmt.Errorf("warm-up product of %s differs from engine.Run", dimsKey(w.o.a, w.o.b)))
		}
	}
	done = nil

	seconds := o.seconds
	if o.traced {
		seconds /= 2 // the other half runs with the tracer on
	}
	gens := sp.gens(o.seed, 1)
	ph := newPhase(true, sp.clients, o.seed)
	runtime.GC() // every run's measured phase starts from a collected heap
	p0 := time.Now()
	for i := 0; i < parts; i++ {
		runPart(st, sp, gens, ph, seconds/parts, o.maxJobs, &tl)
	}
	o.bench.AddCompleted(obs.SpanData{Name: "bench.phase.untraced", Kind: obs.KindBench, Start: p0, End: time.Now()})
	st.close()
	if err := settle(census); err != nil {
		return nil, tl, err
	}
	phaseMetrics(res, ph)

	if o.traced {
		if err := tracedServe(sp, o, cfg, ref, res, ph, &tl); err != nil {
			return nil, tl, err
		}
		if err := settle(census); err != nil {
			return nil, tl, err
		}
	}
	return res, tl, nil
}

// parts is how many consecutive pieces the measured phase is cut into. The
// mean-sensitive end-to-end metrics are the median over the pieces, so one
// disturbed second on a shared box does not decide a run.
const parts = 5

// phaseMetrics turns the measured phase into the end-to-end metrics and the
// per-layer counters that are read in every run.
func phaseMetrics(res results, ph *phase) {
	var rates, cpus, wires []float64
	for _, pt := range ph.parts {
		n := pt.jobs()
		if n == 0 {
			continue
		}
		// Each client's rate over its own busy time; a failed job completed
		// nothing and so is missing from the numerator.
		var rate float64
		for c, busy := range pt.busy {
			if busy > 0 {
				rate += float64(pt.done[c]) / busy.Seconds()
			}
		}
		rates = append(rates, rate)
		cpus = append(cpus, ms(pt.after.cpu-pt.before.cpu-pt.gen)/float64(n))
		wires = append(wires, mb(pt.after.wire-pt.before.wire)/float64(n))
	}
	n := ph.jobs()
	lats := ph.lats()
	res.set("job_p50_ms", ms(medianDur(lats)), n)
	res.set("jobs_per_s", median(rates), n)
	res.set("cpu_ms_per_job", median(cpus), n)
	res.set("driver_wire_mb_per_job", median(wires), n)

	// Per-job means and medians come from the samples; counter deltas span
	// the whole phase and divide by every job in it.
	var waits, runs, overheads, submits, resultTs []time.Duration
	var planned, request, reply int64
	var tasks int
	var taskMem float64
	for _, s := range ph.samples {
		for _, j := range s.recs {
			waits = append(waits, j.wait)
			runs = append(runs, j.run)
			overheads = append(overheads, j.lat-j.wait-j.run)
			submits = append(submits, j.submit)
			resultTs = append(resultTs, j.result)
			planned += j.planned
			request += j.request
			reply += j.reply
			tasks += j.params.Tasks()
			taskMem += j.taskMem
		}
	}
	k := len(lats)
	b, d := ph.parts[0].before, ph.parts[len(ph.parts)-1].after
	net := d.net.Sub(b.net)

	if ph.served {
		res.set("core.tasks", per(float64(tasks), k), k)
		res.set("core.eq4_planned_mb", per(mb(planned), k), k)
		res.set("core.eq4_residual", per(float64(request+reply), int(planned)), k)
		res.set("core.eq3_task_mem_mb", per(taskMem/1e6, k), k)
		res.set("distnet.request_mb", per(mb(request), k), k)
		res.set("distnet.reply_mb", per(mb(reply), k), k)
		res.set("serve.submit_ms", ms(medianDur(submits)), k)
		res.set("serve.result_ms", ms(medianDur(resultTs)), k)
		res.set("serve.queue_wait_ms", ms(medianDur(waits)), k)
		res.set("serve.run_ms", ms(medianDur(runs)), k)
		res.set("serve.rpc_overhead_ms", ms(medianDur(overheads)), k)
		res.set("serve.rejected", float64(d.rejected-b.rejected), n)
	} else {
		res.na("core.tasks", "core.eq4_planned_mb", "core.eq4_residual", "core.eq3_task_mem_mb",
			"distnet.request_mb", "distnet.reply_mb",
			"serve.submit_ms", "serve.result_ms", "serve.queue_wait_ms", "serve.run_ms",
			"serve.rpc_overhead_ms", "serve.rejected")
	}

	res.set("distnet.wire_encode_ms", per(ms(time.Duration(net.WireEncodeNanos)), n), n)
	res.set("distnet.wire_decode_ms", per(ms(time.Duration(net.WireDecodeNanos)), n), n)
	hits, adds := d.cacheHits-b.cacheHits, d.cacheAdds-b.cacheAdds
	res.set("distnet.cache_ref_share", per(float64(hits), int(hits+adds)), int(hits+adds))
	res.set("distnet.cache_saved_mb", per(mb(net.CacheBytesSaved), n), n)
	res.set("distnet.cuboid_retries", per(float64(net.CuboidRetries), n), n)
	res.set("distnet.local_fallbacks", per(float64(net.LocalFallbacks), n), n)
	res.set("distnet.batch_items", per(float64(net.BatchItems), n), n)
	res.set("distnet.peer_mb", per(mb(d.peerBytes-b.peerBytes), n), n)
	res.set("distnet.pipeline_ops", per(float64(net.PipelineOps), n), n)
	res.set("distnet.driver_avoided_mb", per(mb(net.DriverBytesAvoided), n), n)

	t, pct := tail(lats)
	res.set("serve.job_tail_ms", ms(t), k)
	res.set("serve.job_tail_pct", pct, k)

	res.set("proc.peak_rss_mb", peakRSSMB(), 1)
	res.set("proc.alloc_mb_per_job", per(float64(d.totalAlloc-b.totalAlloc)/1e6, n), n)
	res.set("proc.gc_cycles", float64(d.numGC-b.numGC), n)
	res.set("proc.gc_pause_ms_per_job", per(float64(d.gcPause-b.gcPause)/1e6, n), n)
}

// peakRSSMB reads VmHWM, the process's resident high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}

// Package soak is the long-horizon chaos harness for the self-healing
// cluster: a seeded, deterministic mixed workload (classic cuboid
// multiplies, pull-plane multiplies, many-tiny-cuboid jobs, GNMF and PageRank
// pipelines) running
// against an autoscaled in-process pool while the harness kills workers and
// throttles links on a schedule. Every job's result is compared bit-for-bit
// against a reference computed on the clean cluster before chaos begins —
// the engine's core guarantee is that failures and elasticity never change
// results — and the run fails on any mismatch, leaked goroutine or handle
// byte, SLO breach, or an autoscaler that never actually scaled.
//
// The same schedule runs twice: once with the autoscaler (the measured
// run), once without it (the baseline). The baseline's kills are never
// repaired, so its p99 shows what the self-healing loop buys; the full
// profile enforces a minimum degradation ratio, the smoke profile records
// it informationally (CI timing is too noisy to gate on).
//
// distme-bench -soak drives Run and writes BENCH_soak.json.
package soak

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"distme/internal/bmat"
	"distme/internal/core"
	"distme/internal/distnet"
	"distme/internal/ml"
	"distme/internal/obs"
	"distme/internal/plan"
)

// Profile is one soak configuration. Smoke and Full return the two stock
// profiles; all timing is wall-clock, so the knobs trade coverage for run
// length.
type Profile struct {
	// Name labels the report ("smoke", "full").
	Name string
	// Seed pins every random choice in the run: workload mix, chaos
	// schedule, retry jitter, chaos-proxy delays. Same seed, same schedule.
	Seed int64
	// InitialWorkers is the pool size at dial time; MinWorkers/MaxWorkers
	// bound the autoscaler.
	InitialWorkers, MinWorkers, MaxWorkers int
	// Cycles alternate a BurstFor phase of Submitters concurrent job
	// streams with an IdleFor quiet phase. Bursts drive scale-ups, idles
	// drive scale-downs; from cycle 1 on, one worker is killed mid-burst.
	Cycles     int
	BurstFor   time.Duration
	IdleFor    time.Duration
	Submitters int
	// JobTimeout bounds one job end to end.
	JobTimeout time.Duration
	// SLOP99 is the measured run's p99 latency objective.
	SLOP99 time.Duration
	// MinScaleUps/MinScaleDowns are the acceptance floor on applied
	// autoscaler decisions — a soak whose chaos never forced the loop to
	// act proves nothing.
	MinScaleUps, MinScaleDowns int
	// MinP99DegradationX, when positive, requires baseline p99 to be at
	// least this multiple of the measured p99 (the "removing the
	// autoscaler must hurt" check). 0 records the ratio without gating.
	MinP99DegradationX float64
}

// Smoke is the CI profile: three burst/idle cycles, ~50s wall including the
// baseline run, degradation recorded but not enforced.
func Smoke() Profile {
	return Profile{
		Name:           "smoke",
		Seed:           42,
		InitialWorkers: 3,
		MinWorkers:     2,
		MaxWorkers:     6,
		Cycles:         3,
		BurstFor:       3 * time.Second,
		IdleFor:        4 * time.Second,
		Submitters:     8,
		JobTimeout:     20 * time.Second,
		SLOP99:         5 * time.Second,
		MinScaleUps:    3,
		MinScaleDowns:  3,
	}
}

// Full is the nightly profile: more cycles, longer phases, and the
// baseline-degradation gate on.
func Full() Profile {
	return Profile{
		Name:               "full",
		Seed:               42,
		InitialWorkers:     3,
		MinWorkers:         2,
		MaxWorkers:         6,
		Cycles:             8,
		BurstFor:           5 * time.Second,
		IdleFor:            6 * time.Second,
		Submitters:         8,
		JobTimeout:         30 * time.Second,
		SLOP99:             5 * time.Second,
		MinScaleUps:        6,
		MinScaleDowns:      6,
		MinP99DegradationX: 1.05,
	}
}

// Chaos-proxy tuning: the proxyNth-th worker grown sits behind a throttled
// relay, turning it into a straggler the health plane must catch. The
// throttle models one bad link in the initial fleet, so it lands on an
// initial worker and the autoscaler's replacements come up clean — in the
// baseline run the kill schedule then funnels ever more traffic through the
// bad link, which is exactly the failure mode self-healing exists to dodge.
const (
	proxyNth            = 2
	proxyAcceptDelayMax = 30 * time.Millisecond
	proxyChunkDelay     = 4 * time.Millisecond
	// workerMemBytes bounds each worker's memory. A smoke run's pipeline
	// bands fit under it, so no owned band is evicted (RunStats.StoreEvictions
	// is 0) and the lineage rebuild after an eviction is the distnet tests'
	// to drive: budgets small enough to evict here (192 KiB, in the baseline
	// run, whose killed workers are never replaced) also failed pipeline
	// jobs, left resident bytes counted, or breached the autoscaled run's
	// p99 SLO.
	workerMemBytes = 512 << 10
	// recoveryTimeout caps one kill's recovery watch.
	recoveryTimeout = 10 * time.Second
)

// workload is the fixed, seeded input set. Each job kind reuses the same
// operands; references are computed once on the clean cluster before chaos,
// which the bit-identical guarantee makes valid for every later repeat.
type workload struct {
	mulA, mulB *bmat.BlockMatrix
	mulParams  core.Params
	mulRef     *bmat.BlockMatrix

	batA, batB *bmat.BlockMatrix
	batParams  core.Params
	batRef     *bmat.BlockMatrix

	gnmfV        *bmat.BlockMatrix
	gnmfOpt      ml.GNMFOptions
	gnmfW, gnmfH *bmat.BlockMatrix
	prMT, prR    *bmat.BlockMatrix
	prExpr       plan.Expr
	prRef        *bmat.BlockMatrix
}

func buildWorkload(seed int64) *workload {
	rng := rand.New(rand.NewSource(seed))
	w := &workload{
		mulParams: core.Params{P: 2, Q: 2, R: 2},
		batParams: core.Params{P: 4, Q: 4, R: 1},
		gnmfOpt:   ml.GNMFOptions{Rank: 4, Seed: 7},
		prExpr:    plan.Mul(plan.V("mt"), plan.V("r")),
	}
	w.mulA = bmat.RandomDense(rng, 64, 48, 8)
	w.mulB = bmat.RandomDense(rng, 48, 56, 8)
	w.batA = bmat.RandomDense(rng, 32, 32, 8)
	w.batB = bmat.RandomDense(rng, 32, 32, 8)
	w.gnmfV = bmat.RandomSparse(rng, 48, 40, 8, 0.3)
	w.prMT = bmat.RandomSparse(rng, 80, 80, 8, 0.2)
	w.prR = bmat.RandomDense(rng, 80, 1, 8)
	return w
}

// jobKinds and their mix weights (mul 30%, tiny-batch 25%, pull-mul 15%,
// gnmf 15%, pagerank 15%). tiny-batch is a 4×4×1 plan of sixteen small
// cuboids, each dispatched as its own call: the per-cuboid fixed cost under
// chaos. pull-mul runs the same multiply as mul through the one-sided pull
// plane, over operands Put into a session of its own, and compares against
// the push-computed reference, so the soak also holds the two data planes
// to bit-identity under every kill and throttle in the schedule. It runs at
// θt pullMulMem, so its columns go out cut into links, and the soak drives
// pull resolution, the running sum a link takes on its own worker, the
// downgrade to push and the column re-run under the same schedule.
var jobKinds = []struct {
	name   string
	weight int
}{
	{"mul", 30},
	{"tiny-batch", 25},
	{"pull-mul", 15},
	{"gnmf", 15},
	{"pagerank", 15},
}

// pullMulMem is pull-mul's θt: below one column's operands at mul's plan
// (about 22 KiB of 64×48 by 48×56 at (2,2,2), in 512-byte blocks) and above
// one slab's, so each column is two links of one slab on one holder.
const pullMulMem = 16 << 10

func pickKind(rng *rand.Rand) string {
	total := 0
	for _, k := range jobKinds {
		total += k.weight
	}
	n := rng.Intn(total)
	for _, k := range jobKinds {
		if n < k.weight {
			return k.name
		}
		n -= k.weight
	}
	return jobKinds[0].name
}

func bitEqual(a, b *bmat.BlockMatrix) bool {
	if a == nil || b == nil {
		return false
	}
	x, y := a.ToDense(), b.ToDense()
	xr, xc := x.Dims()
	yr, yc := y.Dims()
	if xr != yr || xc != yc {
		return false
	}
	for i := range x.Data {
		if math.Float64bits(x.Data[i]) != math.Float64bits(y.Data[i]) {
			return false
		}
	}
	return true
}

// harness is one run's live state: the driver, its pool, the chaos proxies,
// and the workload.
type harness struct {
	p       Profile
	d       *distnet.Driver
	pool    *distnet.InProcPool
	w       *workload
	timeout time.Duration

	pmu     sync.Mutex
	proxies []*chaosProxy
	proxied map[string]bool // advertised addrs behind a chaos proxy
	killed  map[string]bool

	grown atomic.Int64

	// evictions is the most store evictions each worker has shown
	// (sampleEvictions).
	evictions map[*distnet.Worker]int64
}

// startHarness provisions the initial pool through the same InProcPool the
// autoscaler grows, so every worker — initial or scaled-up — is a drain and
// kill candidate.
func startHarness(p Profile, autoscale bool, tracer *obs.Tracer) (*harness, error) {
	h := &harness{
		p:         p,
		w:         buildWorkload(p.Seed),
		timeout:   p.JobTimeout,
		proxied:   map[string]bool{},
		killed:    map[string]bool{},
		evictions: map[*distnet.Worker]int64{},
	}
	h.pool = &distnet.InProcPool{
		Opts: distnet.WorkerOptions{MemBytes: workerMemBytes},
	}
	h.pool.Wrap = func(realAddr string) string {
		n := h.grown.Add(1)
		if n != proxyNth {
			return realAddr
		}
		proxy, err := startChaosProxy(realAddr, p.Seed+n, proxyAcceptDelayMax, proxyChunkDelay)
		if err != nil {
			return realAddr
		}
		h.pmu.Lock()
		h.proxies = append(h.proxies, proxy)
		h.proxied[proxy.addr()] = true
		h.pmu.Unlock()
		return proxy.addr()
	}

	addrs := make([]string, 0, p.InitialWorkers)
	for i := 0; i < p.InitialWorkers; i++ {
		addr, err := h.pool.Grow(context.Background())
		if err != nil {
			h.close()
			return nil, err
		}
		addrs = append(addrs, addr)
	}
	d, err := distnet.DialOptions(addrs, distnet.Options{
		HeartbeatInterval: 50 * time.Millisecond,
		PingTimeout:       time.Second,
		CallTimeout:       15 * time.Second,
		SuspectAfter:      1,
		DeadAfter:         2,
		PerWorkerInflight: 2,
		JitterSeed:        p.Seed,
		Tracer:            tracer,
	})
	if err != nil {
		h.close()
		return nil, err
	}
	h.d = d
	if autoscale {
		err := d.StartAutoscaler(distnet.AutoscalerOptions{
			Pool: h.pool,
			Policy: &distnet.HysteresisPolicy{
				MinWorkers:    p.MinWorkers,
				MaxWorkers:    p.MaxWorkers,
				UpPressure:    0.75,
				UpAfter:       2,
				DownPressure:  0.2,
				DownAfter:     10,
				CooldownTicks: 10,
			},
			Interval:     100 * time.Millisecond,
			DrainTimeout: 2 * time.Second,
			RetireAfter:  2 * time.Second,
		})
		if err != nil {
			h.close()
			return nil, err
		}
	}
	return h, nil
}

func (h *harness) close() {
	if h.d != nil {
		h.d.Close()
	}
	if h.pool != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		h.pool.Close(ctx)
		cancel()
	}
	h.pmu.Lock()
	proxies := h.proxies
	h.proxies = nil
	h.pmu.Unlock()
	for _, p := range proxies {
		p.close()
	}
}

// runJob executes one job of the named kind and verifies its result against
// the precomputed reference. The returned mismatch is a hard failure (the
// bit-identity guarantee broke); an error is a counted, budgeted outcome
// (the cluster was mid-churn).
func (h *harness) runJob(kind string) (mismatch bool, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), h.timeout)
	defer cancel()
	w := h.w
	switch kind {
	case "mul":
		got, _, err := h.d.Execute(ctx, w.mulA, w.mulB, distnet.MultiplyOptions{Params: &w.mulParams})
		if err != nil {
			return false, err
		}
		return !bitEqual(got, w.mulRef), nil
	case "tiny-batch":
		got, _, err := h.d.Execute(ctx, w.batA, w.batB, distnet.MultiplyOptions{Params: &w.batParams})
		if err != nil {
			return false, err
		}
		return !bitEqual(got, w.batRef), nil
	case "pull-mul":
		sess, err := h.d.NewSession(ctx)
		if err != nil {
			return false, err
		}
		defer sess.Close(ctx)
		ha, err := sess.Put(ctx, w.mulA)
		if err != nil {
			return false, err
		}
		hb, err := sess.Put(ctx, w.mulB)
		if err != nil {
			return false, err
		}
		got, _, err := sess.Multiply(ctx, ha, hb, distnet.MultiplyOptions{Params: &w.mulParams, WorkerMemBytes: pullMulMem})
		if err != nil {
			return false, err
		}
		// Same reference as "mul": the pull plane must agree with push
		// bit for bit, chaos or not.
		return !bitEqual(got, w.mulRef), nil
	case "gnmf":
		sess, err := h.d.NewSession(ctx)
		if err != nil {
			return false, err
		}
		defer sess.Close(ctx)
		pipe, err := ml.NewGNMFPipeline[*distnet.Handle](ctx, sess, w.gnmfV, w.gnmfOpt)
		if err != nil {
			return false, err
		}
		defer pipe.Close(ctx)
		if err := pipe.Step(ctx); err != nil {
			return false, err
		}
		res, err := pipe.Factors(ctx)
		if err != nil {
			return false, err
		}
		return !bitEqual(res.W, w.gnmfW) || !bitEqual(res.H, w.gnmfH), nil
	case "pagerank":
		sess, err := h.d.NewSession(ctx)
		if err != nil {
			return false, err
		}
		defer sess.Close(ctx)
		hmt, err := sess.Put(ctx, w.prMT)
		if err != nil {
			return false, err
		}
		if err := sess.Pin(ctx, hmt); err != nil {
			return false, err
		}
		hr, err := sess.Put(ctx, w.prR)
		if err != nil {
			return false, err
		}
		hs, err := sess.Run(ctx, w.prExpr, map[string]*distnet.Handle{"mt": hmt, "r": hr})
		if err != nil {
			return false, err
		}
		got, err := sess.Fetch(ctx, hs)
		if err != nil {
			return false, err
		}
		return !bitEqual(got, w.prRef), nil
	}
	return false, fmt.Errorf("soak: unknown job kind %q", kind)
}

// precomputeRefs runs each kind once on the clean cluster and stores the
// results as the references every later repeat must match bit-for-bit.
func (h *harness) precomputeRefs() error {
	ctx, cancel := context.WithTimeout(context.Background(), h.timeout)
	defer cancel()
	w := h.w
	var err error
	if w.mulRef, _, err = h.d.Execute(ctx, w.mulA, w.mulB, distnet.MultiplyOptions{Params: &w.mulParams}); err != nil {
		return fmt.Errorf("soak: mul reference: %w", err)
	}
	if w.batRef, _, err = h.d.Execute(ctx, w.batA, w.batB, distnet.MultiplyOptions{Params: &w.batParams}); err != nil {
		return fmt.Errorf("soak: tiny-batch reference: %w", err)
	}
	sess, err := h.d.NewSession(ctx)
	if err != nil {
		return err
	}
	defer sess.Close(ctx)
	pipe, err := ml.NewGNMFPipeline[*distnet.Handle](ctx, sess, w.gnmfV, w.gnmfOpt)
	if err != nil {
		return err
	}
	if err := pipe.Step(ctx); err != nil {
		return fmt.Errorf("soak: gnmf reference: %w", err)
	}
	res, err := pipe.Factors(ctx)
	if err != nil {
		return err
	}
	if err := pipe.Close(ctx); err != nil {
		return err
	}
	w.gnmfW, w.gnmfH = res.W, res.H
	hmt, err := sess.Put(ctx, w.prMT)
	if err != nil {
		return err
	}
	hr, err := sess.Put(ctx, w.prR)
	if err != nil {
		return err
	}
	hs, err := sess.Run(ctx, w.prExpr, map[string]*distnet.Handle{"mt": hmt, "r": hr})
	if err != nil {
		return fmt.Errorf("soak: pagerank reference: %w", err)
	}
	if w.prRef, err = sess.Fetch(ctx, hs); err != nil {
		return err
	}
	return nil
}

// pickVictim chooses the kill target: an alive, pool-owned worker,
// preferring unproxied ones so the baseline run keeps its straggler — the
// adversarial choice a real failure domain would make for us. Reading the
// health snapshot does not shift its window, which moves forward by time
// alone, so the autoscaler sees the same scores it would without the read.
func (h *harness) pickVictim() string {
	workers := h.d.ClusterHealth().Workers
	h.pmu.Lock()
	defer h.pmu.Unlock()
	victim := ""
	for _, m := range workers {
		if m.State != distnet.StateAlive.String() || m.Draining || h.killed[m.Addr] || !h.pool.Owns(m.Addr) {
			continue
		}
		if !h.proxied[m.Addr] {
			return m.Addr
		}
		victim = m.Addr
	}
	return victim
}

// kill crashes one worker mid-burst and returns the live count just before,
// which recovery watchers use as the restore target. Returns "" when no
// safe victim exists (the pool is already at one live worker).
func (h *harness) kill() (addr string, liveBefore int) {
	liveBefore = h.d.ClusterHealth().LiveWorkers
	if liveBefore <= 1 {
		return "", liveBefore
	}
	addr = h.pickVictim()
	if addr == "" {
		return "", liveBefore
	}
	if !h.pool.Kill(addr) {
		return "", liveBefore
	}
	h.pmu.Lock()
	h.killed[addr] = true
	h.pmu.Unlock()
	return addr, liveBefore
}

// waitRecovery times a kill's repair: first the capacity dip (the detector
// noticing the crash — LiveWorkers still counts the corpse until then),
// then the restore back to the pre-kill count. Returns time-from-kill and
// whether capacity came back within recoveryTimeout.
func (h *harness) waitRecovery(target int) (time.Duration, bool) {
	start := time.Now()
	dipDeadline := start.Add(2 * time.Second)
	for time.Now().Before(dipDeadline) {
		if h.d.ClusterHealth().LiveWorkers < target {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	for time.Since(start) < recoveryTimeout {
		if h.d.ClusterHealth().LiveWorkers >= target {
			return time.Since(start), true
		}
		time.Sleep(50 * time.Millisecond)
	}
	return time.Since(start), false
}

// leakedStoreHandles sums resident handles across the pool's live workers.
// Killed workers are excluded: they are crashed processes in a real
// deployment, and their in-process object's store is unreachable garbage.
func (h *harness) leakedStoreHandles() int {
	h.pmu.Lock()
	killed := make(map[string]bool, len(h.killed))
	for a := range h.killed {
		killed[a] = true
	}
	h.pmu.Unlock()
	sum := 0
	for _, addr := range h.pool.Addrs() {
		if killed[addr] {
			continue
		}
		if w := h.pool.Worker(addr); w != nil {
			sum += w.StoreStats().Handles
		}
	}
	return sum
}

// sampleEvictions notes each pool worker's store evictions so far. It runs
// all through the run: a scale-down takes its worker, and its count, along.
func (h *harness) sampleEvictions() {
	for _, addr := range h.pool.Addrs() {
		if w := h.pool.Worker(addr); w != nil {
			h.evictions[w] = max(h.evictions[w], w.StoreStats().Evictions)
		}
	}
}

// runOnce executes the full burst/idle schedule against one harness and
// collects its RunStats. Chaos (kills) starts at cycle 1 so cycle 0 is a
// clean warmup that seeds the latency distribution.
func runOnce(p Profile, autoscale bool, tracer *obs.Tracer) (*RunStats, *harness, error) {
	h, err := startHarness(p, autoscale, tracer)
	if err != nil {
		return nil, nil, err
	}
	if err := h.precomputeRefs(); err != nil {
		h.close()
		return nil, nil, err
	}

	stats := &RunStats{Autoscaled: autoscale, PerKind: map[string]Histo{}}
	var (
		mu         sync.Mutex
		latencies  []time.Duration
		perKind    = map[string][]time.Duration{}
		recoveries []time.Duration
		watchers   sync.WaitGroup
	)

	sampled, stopSampling := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			h.sampleEvictions()
			select {
			case <-tick.C:
			case <-stopSampling:
				return
			}
		}
	}()

	for cycle := 0; cycle < p.Cycles; cycle++ {
		var submitters sync.WaitGroup
		burstStart := time.Now()
		for s := 0; s < p.Submitters; s++ {
			submitters.Add(1)
			go func(s int) {
				defer submitters.Done()
				rng := rand.New(rand.NewSource(p.Seed*1000 + int64(cycle)*100 + int64(s)))
				for time.Since(burstStart) < p.BurstFor {
					kind := pickKind(rng)
					t0 := time.Now()
					mismatch, err := h.runJob(kind)
					dur := time.Since(t0)
					mu.Lock()
					stats.Jobs++
					latencies = append(latencies, dur)
					perKind[kind] = append(perKind[kind], dur)
					if err != nil {
						stats.Errors++
						if len(stats.ErrorSamples) < 5 {
							stats.ErrorSamples = append(stats.ErrorSamples, fmt.Sprintf("%s: %v", kind, err))
						}
					} else if mismatch {
						stats.Mismatches++
						if len(stats.ErrorSamples) < 5 {
							stats.ErrorSamples = append(stats.ErrorSamples, kind+": result not bit-identical to reference")
						}
					}
					mu.Unlock()
				}
			}(s)
		}
		// Mid-burst chaos: crash one worker under load. Cycle 0 stays
		// clean so the reference latency distribution has a floor.
		if cycle >= 1 {
			time.Sleep(p.BurstFor / 2)
			if addr, liveBefore := h.kill(); addr != "" {
				mu.Lock()
				stats.Kills++
				mu.Unlock()
				if autoscale {
					watchers.Add(1)
					go func(target int) {
						defer watchers.Done()
						dur, ok := h.waitRecovery(target)
						mu.Lock()
						if ok {
							stats.KillsRecovered++
							recoveries = append(recoveries, dur)
						}
						mu.Unlock()
					}(liveBefore)
				}
			}
		}
		submitters.Wait()
		time.Sleep(p.IdleFor)
	}
	watchers.Wait()
	close(stopSampling)
	<-sampled
	h.sampleEvictions()
	for _, n := range h.evictions {
		stats.StoreEvictions += n
	}

	// Snapshot the decision log before StopAutoscaler drops it.
	stats.Events = h.d.AutoscalerEvents()
	h.d.StopAutoscaler()

	net := h.d.NetStats()
	stats.ScaleUps = net.ScaleUps
	stats.ScaleDowns = net.ScaleDowns
	stats.WorkersRetired = net.WorkersRetired
	stats.StragglerRPCs = net.StragglerRPCs
	stats.LeakedResidentBytes = net.ResidentBytes
	// Session closes racing a kill can leave a worker holding freed
	// handles for a beat; give in-flight frees a moment before counting.
	for i := 0; i < 10; i++ {
		if stats.LeakedStoreHandles = h.leakedStoreHandles(); stats.LeakedStoreHandles == 0 {
			break
		}
		time.Sleep(200 * time.Millisecond)
	}

	stats.Latency = histoOf(latencies)
	for kind, ds := range perKind {
		stats.PerKind[kind] = histoOf(ds)
	}
	stats.Recovery = histoOf(recoveries)
	return stats, h, nil
}

// Run executes the profile: the measured autoscaled run under chaos, then
// the same schedule with no autoscaler as the degradation baseline. The
// report is always returned (so callers can persist it); err is non-nil
// when any acceptance gate failed, with every failure listed in
// Report.Failures.
func Run(p Profile, tracer *obs.Tracer) (*Report, error) {
	report := &Report{
		Profile:     p.Name,
		Seed:        p.Seed,
		SLOP99Nanos: p.SLOP99.Nanoseconds(),
	}
	goroutinesStart := runtime.NumGoroutine()
	report.GoroutinesStart = goroutinesStart

	main, mh, err := runOnce(p, true, tracer)
	if err != nil {
		return report, fmt.Errorf("soak: measured run: %w", err)
	}
	report.Main = *main
	mh.close()

	base, bh, err := runOnce(p, false, nil)
	if err != nil {
		return report, fmt.Errorf("soak: baseline run: %w", err)
	}
	report.Baseline = *base
	bh.close()

	if report.Baseline.Latency.P99Nanos > 0 && report.Main.Latency.P99Nanos > 0 {
		report.P99DegradationX = float64(report.Baseline.Latency.P99Nanos) / float64(report.Main.Latency.P99Nanos)
	}

	// Goroutine settle: both clusters, their autoscalers, watchers, and
	// proxies are down; the count must return to its starting neighborhood.
	deadline := time.Now().Add(5 * time.Second)
	for {
		report.GoroutinesEnd = runtime.NumGoroutine()
		if report.GoroutinesEnd <= goroutinesStart+4 || time.Now().After(deadline) {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}

	report.check(p)
	if len(report.Failures) > 0 {
		return report, fmt.Errorf("soak: %d acceptance failure(s): %v", len(report.Failures), report.Failures)
	}
	report.Passed = true
	return report, nil
}

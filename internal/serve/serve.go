// Package serve is the multi-tenant serving plane: a long-running server
// embedding a distnet.Driver that accepts many concurrent multiply jobs,
// admits them against the cluster's cuboid-wave capacity, schedules them
// weighted-fair across tenants, and pushes backpressure to callers when
// queues fill.
//
// The admission controller is DistME's cost model turned into a gate. Every
// submitted job is priced by the Eq.(4) optimizer under the per-worker
// budget θt; the resulting (P,Q,R) bounds one cuboid's working set
// (Eq.(3)). A worker task is a (p,q) column — the R cuboids of one (p,q),
// whose inputs it holds at once — so the job's wave, the tasks the cluster
// can have in flight at once, is bounded from above by
//
//	wave(job) = MemBytes(P,Q,R) · R × min(P·Q, LiveWorkers × PerWorkerInflight)
//
// R·MemBytes over-counts a column's C: it holds two tile sets, the running
// fold and the current slab, not R. The job runs with θt as its call bound
// (distnet.MultiplyOptions.WorkerMemBytes), which bounds each call: under
// the k-ordered chain a link carries only its holder's slabs, so a column
// whose operands are over θt still goes out unsplit while its links fit;
// under homes a column over θt goes out as its R cuboids one after another.
// Either way the calls stay inside the same estimate.
//
// A job dispatches only while the sum of running waves stays under the
// cluster capacity LiveWorkers × θt × PerWorkerInflight (scaled by
// Config.CapacityFraction); one job alone always dispatches, so a column
// over θt still runs, by itself. Live worker counts come from the driver's
// health plane (ClusterHealth), so capacity tracks membership churn and
// autoscaling.
//
// Scheduling across tenants is weighted fair queuing by virtual time: each
// dispatch advances its tenant's clock by plannedBytes/weight, and the
// scheduler always serves the farthest-behind tenant whose head job fits.
// Within a tenant, higher Priority runs first, FIFO within a priority.
package serve

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"distme/internal/bmat"
	"distme/internal/core"
	"distme/internal/distnet"
	"distme/internal/metrics"
	"distme/internal/obs"
)

// Sentinel errors callers branch on. Over the wire they cross as the codes
// of serveErrors, and Client's errors match them with errors.Is.
var (
	// ErrQueueFull is backpressure: the tenant's queue (or the global
	// bound) is at depth. The concrete error is a *QueueFullError carrying
	// a retry-after hint; errors.Is(err, ErrQueueFull) matches it.
	ErrQueueFull = errors.New("serve: queue full")
	// ErrQuotaExceeded rejects a job whose planned bytes would push the
	// tenant past its in-flight byte quota.
	ErrQuotaExceeded = errors.New("serve: tenant quota exceeded")
	// ErrUnschedulable rejects a job no (P,Q,R) can fit under θt.
	ErrUnschedulable = errors.New("serve: job cannot fit the cluster")
	// ErrUnknownTenant rejects a submit naming no configured tenant.
	ErrUnknownTenant = errors.New("serve: unknown tenant")
	// ErrUnknownJob reports a job ID the server does not hold.
	ErrUnknownJob = errors.New("serve: unknown job")
	// ErrServerClosed reports submits after Close began.
	ErrServerClosed = errors.New("serve: server closed")
)

// QueueFullError is the concrete backpressure error: try again after
// RetryAfter (an EWMA-based drain estimate, never zero).
type QueueFullError struct {
	Tenant     string
	RetryAfter time.Duration
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("serve: queue full for tenant %q (retry after %s)", e.Tenant, e.RetryAfter)
}

// Is matches ErrQueueFull so callers can branch without the concrete type.
func (e *QueueFullError) Is(target error) bool { return target == ErrQueueFull }

// Tenant configures one tenant's share and limits. The zero value of every
// field takes a default; quotas left zero are unlimited.
type Tenant struct {
	// Name identifies the tenant in submits, stats, and the debug block.
	Name string
	// Weight is the tenant's fair-share weight (default 1): a weight-2
	// tenant's virtual clock advances half as fast per byte, so it is
	// served twice the planned bytes of a weight-1 tenant under contention.
	Weight int
	// MaxQueued bounds this tenant's queued (not yet running) jobs;
	// 0 defers to Config.MaxQueuedJobs.
	MaxQueued int
	// MaxInflightBytes caps the summed planned Eq.(4) bytes of the
	// tenant's queued+running jobs; a submit that would exceed it is
	// rejected with ErrQuotaExceeded. 0 is unlimited.
	MaxInflightBytes int64
}

// Config tunes the server. The zero value serves a single tenant named
// "default" with production defaults.
type Config struct {
	// Tenants is the tenant table. Empty configures one tenant "default";
	// a submit with an empty tenant name maps to it.
	Tenants []Tenant
	// WorkerMemBytes is θt, the per-worker memory budget handed to the
	// Eq.(4) optimizer and multiplied into cluster capacity (default 1 GiB).
	WorkerMemBytes int64
	// CapacityFraction scales the admission capacity
	// LiveWorkers × θt × PerWorkerInflight (default 0.9), keeping headroom
	// for aggregation buffers and skew.
	CapacityFraction float64
	// MaxQueuedJobs bounds total queued jobs across tenants (default 1024);
	// it is also the per-tenant default for Tenant.MaxQueued.
	MaxQueuedJobs int
	// MaxConcurrentJobs bounds jobs dispatched into the driver at once;
	// 0 sizes it dynamically as 2 × LiveWorkers × PerWorkerInflight
	// (minimum 4) so concurrency tracks the pool.
	MaxConcurrentJobs int
	// Tracer, when set, records serve.accept, serve.queue.wait, and
	// serve.job.run spans per job. Nil disables tracing.
	Tracer *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.WorkerMemBytes <= 0 {
		c.WorkerMemBytes = 1 << 30
	}
	if c.CapacityFraction <= 0 || c.CapacityFraction > 1 {
		c.CapacityFraction = 0.9
	}
	if c.MaxQueuedJobs <= 0 {
		c.MaxQueuedJobs = 1024
	}
	if len(c.Tenants) == 0 {
		c.Tenants = []Tenant{{Name: "default"}}
	}
	return c
}

// JobID names one submitted job for Status/Result/Cancel.
type JobID uint64

// JobState is a job's lifecycle position.
type JobState int

const (
	StateQueued JobState = iota
	StateRunning
	StateDone
	StateFailed
	StateCancelled
)

func (s JobState) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCancelled:
		return "cancelled"
	}
	return "unknown"
}

// terminal reports whether the state is final.
func (s JobState) terminal() bool { return s >= StateDone }

// SubmitRequest is one multiply job: C = A×B for a named tenant.
type SubmitRequest struct {
	// Tenant names the submitting tenant ("" maps to "default" when the
	// server was configured without a tenant table).
	Tenant string
	// Priority orders jobs within the tenant's queue: higher runs first,
	// FIFO among equals. It does not affect cross-tenant fair share.
	Priority int
	// A and B are the operands.
	A, B *bmat.BlockMatrix
}

// JobStatus is a point-in-time snapshot of one job.
type JobStatus struct {
	ID       JobID    `json:"id"`
	Tenant   string   `json:"tenant"`
	State    JobState `json:"state"`
	Priority int      `json:"priority"`
	// Params is the Eq.(4)-optimal partitioning admission priced the job
	// at (and the one it runs with).
	Params core.Params `json:"params"`
	// PlannedBytes is the job's Eq.(4) communication estimate — the
	// quantity quotas and fair share are accounted in. PlannedFlops is the
	// 2·m·k·n multiply-add estimate.
	PlannedBytes int64 `json:"planned_bytes"`
	PlannedFlops int64 `json:"planned_flops"`
	// Err carries the failure message for StateFailed ("" otherwise).
	Err string `json:"err,omitempty"`
	// Wait is time spent queued; Run is dispatch-to-finish (0 until then).
	Wait time.Duration `json:"wait"`
	Run  time.Duration `json:"run"`
	// Meter is the driver's per-job traffic attribution so far.
	Meter distnet.JobMeterStats `json:"meter"`
}

// job is the server-side record.
type job struct {
	id       JobID
	tenant   *tenantState
	priority int
	seq      uint64 // FIFO tiebreak within a priority
	a, b     *bmat.BlockMatrix

	params     core.Params
	waveBytes  float64
	planBytes  int64
	planFlops  int64
	state      JobState
	err        error
	result     *bmat.BlockMatrix
	meter      *distnet.JobMeter
	submitted  time.Time
	started    time.Time
	finished   time.Time
	done       chan struct{}
	runCtx     context.Context    // set at dispatch
	cancel     context.CancelFunc // set at dispatch
	cancelAsk  bool
	acceptSpan obs.SpanID
	waitSpan   obs.Span
	heapIdx    int
}

// jobHeap orders one tenant's queue: higher priority first, then submit
// order.
type jobHeap []*job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	return h[i].seq < h[j].seq
}
func (h jobHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx, h[j].heapIdx = i, j
}
func (h *jobHeap) Push(x any) {
	j := x.(*job)
	j.heapIdx = len(*h)
	*h = append(*h, j)
}
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	j.heapIdx = -1
	return j
}

// tenantState is one tenant's live scheduling state.
type tenantState struct {
	cfg   Tenant
	queue jobHeap
	// vtime is the WFQ virtual clock: advanced by plannedBytes/weight per
	// dispatch. New/idle tenants are lifted to the global minimum on their
	// first queue entry so an idle tenant cannot bank service.
	vtime float64
	// chargedBytes/chargedFlops sum planned costs of queued+running jobs —
	// the bytes are what the quota bounds, the flops are reported. Released
	// at terminal states.
	chargedBytes int64
	chargedFlops int64
	running      int
}

// Server is the serving plane. Create with New, stop with Close.
type Server struct {
	d   *distnet.Driver
	cfg Config
	rec *metrics.ServeRecorder
	tr  *obs.Tracer

	mu         sync.Mutex
	tenants    map[string]*tenantState
	jobs       map[JobID]*job
	nextID     JobID
	nextSeq    uint64
	queued     int
	runningN   int
	waveBytes  float64 // sum of running jobs' wave estimates
	avgRunNano float64 // EWMA of completed job run time, for retry-after
	closed     bool
	// productBytes sums the stored size of the products held in jobs —
	// what Forget gives back.
	productBytes int64

	wake     chan struct{}
	stop     chan struct{}
	loop     sync.WaitGroup // scheduler goroutine
	inflight sync.WaitGroup // running job goroutines
}

// New builds a Server over an existing driver (which the caller still owns
// and closes). The server registers its debug snapshot with the driver, so
// /debug/distme grows a "serve" block for its lifetime.
func New(d *distnet.Driver, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		d:       d,
		cfg:     cfg,
		rec:     &metrics.ServeRecorder{},
		tr:      cfg.Tracer,
		tenants: map[string]*tenantState{},
		jobs:    map[JobID]*job{},
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
	}
	for _, t := range cfg.Tenants {
		if t.Name == "" {
			return nil, fmt.Errorf("serve: tenant with empty name")
		}
		if _, dup := s.tenants[t.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate tenant %q", t.Name)
		}
		if t.Weight <= 0 {
			t.Weight = 1
		}
		if t.MaxQueued <= 0 {
			t.MaxQueued = cfg.MaxQueuedJobs
		}
		s.tenants[t.Name] = &tenantState{cfg: t}
	}
	d.SetServeDebug(func() any { return s.DebugSnapshot() })
	s.loop.Add(1)
	go s.schedule()
	return s, nil
}

// Tenants snapshots the per-tenant serving counters.
func (s *Server) Tenants() []metrics.TenantStats { return s.rec.Tenants() }

// signal nudges the scheduler without blocking.
func (s *Server) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Submit prices, admits, and enqueues one job, returning its ID. Rejections
// are immediate and typed: ErrUnknownTenant, ErrUnschedulable (no (P,Q,R)
// fits θt), ErrQuotaExceeded, or a *QueueFullError (ErrQueueFull).
func (s *Server) Submit(req SubmitRequest) (JobID, error) {
	name := req.Tenant
	if name == "" {
		name = "default"
	}
	asp := s.tr.Start(0, "serve.accept", obs.KindDriver)
	if asp.Active() {
		asp.SetAttr("tenant", name)
	}
	id, err := s.submit(name, req, asp.ID())
	if asp.Active() {
		if err != nil {
			asp.SetAttr("decision", "reject")
			asp.SetAttr("error", err.Error())
		} else {
			asp.SetAttr("decision", "admit")
			asp.SetAttr("job", fmt.Sprintf("%d", id))
		}
	}
	asp.End()
	if err == nil {
		s.signal()
	}
	return id, err
}

func (s *Server) submit(name string, req SubmitRequest, acceptSpan obs.SpanID) (JobID, error) {
	if req.A == nil || req.B == nil {
		return 0, fmt.Errorf("%w: nil operand", ErrUnschedulable)
	}
	if req.A.Cols != req.B.Rows || req.A.BlockSize != req.B.BlockSize {
		return 0, fmt.Errorf("%w: operands not conformable", ErrUnschedulable)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrServerClosed
	}
	t, ok := s.tenants[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	s.rec.OnSubmitted(name)

	// Price the job: Eq.(4)-optimal (P,Q,R) under θt for the current pool.
	shape := core.ShapeOf(req.A, req.B)
	slots := s.d.Workers()
	if slots < 1 {
		slots = 1
	}
	params, err := core.Optimize(shape, s.cfg.WorkerMemBytes, slots)
	if err != nil {
		s.rec.OnRejected(name, metrics.RejectInfeasible)
		return 0, fmt.Errorf("%w: %v", ErrUnschedulable, err)
	}
	planBytes := int64(shape.CostBytes(params))
	planFlops := 2 * int64(req.A.Rows) * int64(req.A.Cols) * int64(req.B.Cols)

	// Quota: the tenant's in-flight planned bytes may not exceed its cap.
	if t.cfg.MaxInflightBytes > 0 && t.chargedBytes+planBytes > t.cfg.MaxInflightBytes {
		s.rec.OnRejected(name, metrics.RejectQuota)
		return 0, fmt.Errorf("%w: %q planned bytes %d + %d over cap %d",
			ErrQuotaExceeded, name, t.chargedBytes, planBytes, t.cfg.MaxInflightBytes)
	}

	// Backpressure: bounded queue depth, per tenant and globally.
	if len(t.queue) >= t.cfg.MaxQueued || s.queued >= s.cfg.MaxQueuedJobs {
		s.rec.OnRejected(name, metrics.RejectQueueFull)
		return 0, &QueueFullError{Tenant: name, RetryAfter: s.retryAfterLocked()}
	}

	s.nextID++
	s.nextSeq++
	j := &job{
		id:         s.nextID,
		tenant:     t,
		priority:   req.Priority,
		seq:        s.nextSeq,
		a:          req.A,
		b:          req.B,
		params:     params,
		waveBytes:  s.waveOfLocked(shape, params),
		planBytes:  planBytes,
		planFlops:  planFlops,
		meter:      &distnet.JobMeter{},
		submitted:  time.Now(),
		done:       make(chan struct{}),
		acceptSpan: acceptSpan,
	}
	j.waitSpan = s.tr.Start(acceptSpan, "serve.queue.wait", obs.KindDriver)
	if j.waitSpan.Active() {
		j.waitSpan.SetAttr("tenant", name)
	}
	if len(t.queue) == 0 && t.running == 0 {
		// Lift an idle tenant's clock to the current minimum among busy
		// tenants so it cannot bank arbitrarily old virtual time.
		if min, ok := s.minBusyVtimeLocked(); ok && t.vtime < min {
			t.vtime = min
		}
	}
	heap.Push(&t.queue, j)
	t.chargedBytes += planBytes
	t.chargedFlops += planFlops
	s.queued++
	s.jobs[j.id] = j
	s.rec.OnAdmitted(name, planBytes, planFlops)
	return j.id, nil
}

// waveOfLocked bounds the job's wave memory from above: one task's working
// set times the tasks the pool can run at once. A task is a (p,q) column,
// which holds the inputs of its R cuboids at once, and a job has P·Q of them;
// R times Eq.(3) counts R tile sets of C where a column holds two.
func (s *Server) waveOfLocked(shape core.Shape, params core.Params) float64 {
	slots := s.d.Workers() * s.d.PerWorkerInflight()
	return shape.MemBytes(params) * float64(params.R) * float64(min(params.P*params.Q, max(slots, 1)))
}

// capacityLocked is the cluster's admission capacity in bytes.
func (s *Server) capacityLocked() float64 {
	live := s.d.Workers()
	if live < 1 {
		live = 1
	}
	return float64(live) * float64(s.cfg.WorkerMemBytes) * float64(s.d.PerWorkerInflight()) * s.cfg.CapacityFraction
}

// maxConcurrentLocked is the dispatch-parallelism bound.
func (s *Server) maxConcurrentLocked() int {
	if s.cfg.MaxConcurrentJobs > 0 {
		return s.cfg.MaxConcurrentJobs
	}
	n := 2 * s.d.Workers() * s.d.PerWorkerInflight()
	if n < 4 {
		n = 4
	}
	return n
}

// retryAfterLocked estimates when queue space should free: the EWMA job
// run time scaled by how many queued jobs stand in line per dispatch slot.
func (s *Server) retryAfterLocked() time.Duration {
	avg := time.Duration(s.avgRunNano)
	if avg <= 0 {
		avg = 5 * time.Millisecond
	}
	slots := s.maxConcurrentLocked()
	waves := s.queued/slots + 1
	ra := avg * time.Duration(waves)
	if ra < time.Millisecond {
		ra = time.Millisecond
	}
	return ra
}

// minBusyVtimeLocked is the minimum virtual time among tenants with queued
// or running work.
func (s *Server) minBusyVtimeLocked() (float64, bool) {
	min, ok := 0.0, false
	for _, t := range s.tenants {
		if len(t.queue) == 0 && t.running == 0 {
			continue
		}
		if !ok || t.vtime < min {
			min, ok = t.vtime, true
		}
	}
	return min, ok
}

// schedule is the dispatcher loop: drain dispatchable jobs on every wake
// (submits, completions) and on a heartbeat tick that tracks membership
// changes.
func (s *Server) schedule() {
	defer s.loop.Done()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-s.wake:
		case <-tick.C:
		}
		for {
			j := s.pickOne()
			if j == nil {
				break
			}
			s.inflight.Add(1)
			go s.run(j)
		}
	}
}

// pickOne pops the next dispatchable job under admission control, marks it
// running, and charges its wave — or returns nil when nothing can dispatch.
func (s *Server) pickOne() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.runningN >= s.maxConcurrentLocked() {
		return nil
	}
	capacity := s.capacityLocked()
	// Serve the farthest-behind tenant whose head job fits the remaining
	// wave capacity. A tenant whose head does not fit is skipped — its
	// virtual clock does not advance, so it is served first once capacity
	// frees. With nothing running, the best candidate dispatches
	// unconditionally: the optimizer bounded its cuboids by θt, and holding
	// the cluster idle for a job that "never fits" would be a deadlock.
	var pick, fallback *tenantState
	for _, t := range s.tenants {
		if len(t.queue) == 0 {
			continue
		}
		if fallback == nil || t.vtime < fallback.vtime {
			fallback = t
		}
		if s.waveBytes+t.queue[0].waveBytes > capacity {
			continue
		}
		if pick == nil || t.vtime < pick.vtime {
			pick = t
		}
	}
	if pick == nil {
		if s.runningN > 0 || fallback == nil {
			return nil
		}
		pick = fallback
	}
	j := heap.Pop(&pick.queue).(*job)
	pick.vtime += float64(j.planBytes) / float64(pick.cfg.Weight)
	pick.running++
	s.queued--
	s.runningN++
	s.waveBytes += j.waveBytes
	j.state = StateRunning
	j.started = time.Now()
	if j.waitSpan.Active() {
		j.waitSpan.SetAttr("wait", j.started.Sub(j.submitted).String())
	}
	j.waitSpan.End()
	ctx, cancel := context.WithCancel(context.Background())
	j.runCtx, j.cancel = ctx, cancel
	if j.cancelAsk {
		cancel()
	}
	return j
}

// run executes one dispatched job in the driver and settles it.
func (s *Server) run(j *job) {
	defer s.inflight.Done()
	rsp := s.tr.Start(j.acceptSpan, "serve.job.run", obs.KindDriver)
	if rsp.Active() {
		rsp.SetAttr("tenant", j.tenant.cfg.Name)
		rsp.SetAttr("params", j.params.String())
	}
	ctx := distnet.WithJobMeter(j.runCtx, j.meter)
	c, _, err := s.d.Execute(ctx, j.a, j.b, distnet.MultiplyOptions{Params: &j.params, WorkerMemBytes: s.cfg.WorkerMemBytes})
	if rsp.Active() && err != nil {
		rsp.SetAttr("error", err.Error())
	}
	rsp.End()
	j.cancel() // release the context's resources; settle records the outcome
	s.settle(j, c, err)
}

// settle finalizes one job: record outcome, release charges, wake the
// scheduler.
func (s *Server) settle(j *job, c *bmat.BlockMatrix, err error) {
	now := time.Now()
	s.mu.Lock()
	j.finished = now
	t := j.tenant
	t.chargedBytes -= j.planBytes
	t.chargedFlops -= j.planFlops
	t.running--
	s.runningN--
	s.waveBytes -= j.waveBytes
	run := now.Sub(j.started)
	switch {
	case err == nil:
		j.state = StateDone
		j.result = c
		s.productBytes += c.StoredBytes()
		if s.avgRunNano == 0 {
			s.avgRunNano = float64(run.Nanoseconds())
		} else {
			s.avgRunNano = 0.875*s.avgRunNano + 0.125*float64(run.Nanoseconds())
		}
		m := j.meter.Stats()
		s.rec.OnCompleted(t.cfg.Name, j.started.Sub(j.submitted), run,
			m.RequestBytes, m.ReplyBytes, m.Retries, m.LocalFallbacks)
	case j.cancelAsk && errors.Is(err, context.Canceled):
		j.state = StateCancelled
		j.err = err
		s.rec.OnCancelled(t.cfg.Name)
	default:
		j.state = StateFailed
		j.err = err
		s.rec.OnFailed(t.cfg.Name)
	}
	close(j.done)
	s.mu.Unlock()
	s.signal()
}

// Status snapshots one job.
func (s *Server) Status(id JobID) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("%w: %d", ErrUnknownJob, id)
	}
	return s.statusLocked(j), nil
}

func (s *Server) statusLocked(j *job) JobStatus {
	st := JobStatus{
		ID:           j.id,
		Tenant:       j.tenant.cfg.Name,
		State:        j.state,
		Priority:     j.priority,
		Params:       j.params,
		PlannedBytes: j.planBytes,
		PlannedFlops: j.planFlops,
		Meter:        j.meter.Stats(),
	}
	if j.err != nil {
		st.Err = j.err.Error()
	}
	switch {
	case j.state == StateQueued:
		st.Wait = time.Since(j.submitted)
	case j.started.IsZero():
		// Cancelled while queued: wait ran from submit to finish.
		st.Wait = j.finished.Sub(j.submitted)
	default:
		st.Wait = j.started.Sub(j.submitted)
		if j.state == StateRunning {
			st.Run = time.Since(j.started)
		} else {
			st.Run = j.finished.Sub(j.started)
		}
	}
	return st
}

// Result blocks until the job reaches a terminal state (or ctx ends) and
// returns its product. Failed jobs return their error; cancelled jobs
// return context.Canceled wrapped in the job error.
func (s *Server) Result(ctx context.Context, id JobID) (*bmat.BlockMatrix, JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, JobStatus{}, fmt.Errorf("%w: %d", ErrUnknownJob, id)
	}
	select {
	case <-ctx.Done():
		return nil, JobStatus{}, ctx.Err()
	case <-j.done:
	}
	s.mu.Lock()
	st := s.statusLocked(j)
	c, err := j.result, j.err
	s.mu.Unlock()
	return c, st, err
}

// Cancel stops a job: a queued job is removed immediately, a running job
// has its context cancelled (the driver abandons unscheduled cuboids).
// Cancelling a terminal job is a no-op.
func (s *Server) Cancel(id JobID) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrUnknownJob, id)
	}
	switch j.state {
	case StateQueued:
		heap.Remove(&j.tenant.queue, j.heapIdx)
		t := j.tenant
		t.chargedBytes -= j.planBytes
		t.chargedFlops -= j.planFlops
		s.queued--
		j.state = StateCancelled
		j.err = context.Canceled
		j.finished = time.Now()
		j.cancelAsk = true
		if j.waitSpan.Active() {
			j.waitSpan.SetAttr("cancelled", "true")
		}
		j.waitSpan.End()
		close(j.done)
		s.rec.OnCancelled(t.cfg.Name)
		s.mu.Unlock()
		s.signal()
		return nil
	case StateRunning:
		j.cancelAsk = true
		cancel := j.cancel
		s.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return nil
	default:
		s.mu.Unlock()
		return nil
	}
}

// Forget drops a terminal job's record (and its result) from the server;
// long-lived callers use it to bound memory. Non-terminal jobs are kept, and
// an ID the server does not hold is ErrUnknownJob — already forgotten.
func (s *Server) Forget(id JobID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownJob, id)
	}
	if j.state.terminal() {
		delete(s.jobs, id)
		if j.result != nil {
			s.productBytes -= j.result.StoredBytes()
		}
	}
	return nil
}

// Close stops the server: new submits fail with ErrServerClosed, queued
// jobs are cancelled, and Close blocks until running jobs settle. The
// underlying driver stays open (the caller owns it).
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	var drop []*job
	for _, t := range s.tenants {
		for len(t.queue) > 0 {
			j := heap.Pop(&t.queue).(*job)
			t.chargedBytes -= j.planBytes
			t.chargedFlops -= j.planFlops
			s.queued--
			j.state = StateCancelled
			j.err = ErrServerClosed
			j.finished = time.Now()
			drop = append(drop, j)
		}
	}
	s.mu.Unlock()
	for _, j := range drop {
		j.waitSpan.End()
		close(j.done)
		s.rec.OnCancelled(j.tenant.cfg.Name)
	}
	close(s.stop)
	s.loop.Wait()
	s.inflight.Wait()
	s.d.SetServeDebug(nil)
}

package serve

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"distme/internal/bmat"
	"distme/internal/core"
	"distme/internal/distnet"
	"distme/internal/matrix"
)

// The serve-plane failure-edge suite (run under -race in CI): quota
// exhaustion mid-job, cancel-while-queued, worker churn under a queued
// backlog with bit-identical results, and ErrQueueFull backpressure under
// an open-loop burst.

// testCluster is an in-process worker pool plus a driver tuned for fast
// failure detection.
type testCluster struct {
	d    *distnet.Driver
	pool *distnet.InProcPool
}

func startCluster(t *testing.T, workers int) *testCluster {
	t.Helper()
	pool := &distnet.InProcPool{}
	addrs := make([]string, 0, workers)
	for i := 0; i < workers; i++ {
		addr, err := pool.Grow(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, addr)
	}
	d, err := distnet.DialOptions(addrs, testDriverOptions)
	if err != nil {
		pool.Close(context.Background())
		t.Fatal(err)
	}
	t.Cleanup(func() {
		d.Close()
		pool.Close(context.Background())
	})
	return &testCluster{d: d, pool: pool}
}

var testDriverOptions = distnet.Options{
	HeartbeatInterval: 20 * time.Millisecond,
	PingTimeout:       time.Second,
	CallTimeout:       10 * time.Second,
	SuspectAfter:      1,
	DeadAfter:         2,
	JitterSeed:        1,
}

// startHeldWorkers serves n workers whose connections hand on what they
// read only while hold is not write-locked, and dials a driver to them: with
// hold locked, a call reaches no worker, so no job can finish.
func startHeldWorkers(t *testing.T, n int, hold *sync.RWMutex) *distnet.Driver {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		if _, err := distnet.ServeOptions(heldListener{l, hold}, distnet.WorkerOptions{}); err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
	}
	d, err := distnet.DialOptions(addrs, testDriverOptions)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

type heldListener struct {
	net.Listener
	hold *sync.RWMutex
}

func (l heldListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return heldConn{c, l.hold}, nil
}

// heldConn waits, after each read, until hold is not write-locked.
type heldConn struct {
	net.Conn
	hold *sync.RWMutex
}

func (c heldConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.hold.RLock()
	c.hold.RUnlock()
	return n, err
}

func testMatrices(seed int64, n int) (a, b *bmat.BlockMatrix) {
	rng := rand.New(rand.NewSource(seed))
	a = bmat.RandomDense(rng, n, n, 8)
	b = bmat.RandomDense(rng, n, n, 8)
	return a, b
}

// bitIdentical fails unless both products carry the exact same bits.
func bitIdentical(t *testing.T, got, want *bmat.BlockMatrix) {
	t.Helper()
	g, w := got.ToDense(), want.ToDense()
	if len(g.Data) != len(w.Data) {
		t.Fatalf("result sizes differ: %d vs %d", len(g.Data), len(w.Data))
	}
	for i := range g.Data {
		if math.Float64bits(g.Data[i]) != math.Float64bits(w.Data[i]) {
			t.Fatalf("results differ at %d: %v vs %v", i, g.Data[i], w.Data[i])
		}
	}
}

// TestConcurrentJobsMatchLocal floods the server with concurrent jobs and
// checks every product against the local reference arithmetic.
func TestConcurrentJobsMatchLocal(t *testing.T) {
	c := startCluster(t, 3)
	s, err := New(c.d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const jobs = 24
	var wg sync.WaitGroup
	errs := make([]error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, b := testMatrices(int64(9000+i), 32)
			id, err := s.Submit(SubmitRequest{A: a, B: b})
			if err != nil {
				errs[i] = err
				return
			}
			got, st, err := s.Result(context.Background(), id)
			if err != nil {
				errs[i] = err
				return
			}
			if st.State != StateDone {
				t.Errorf("job %d state %v", i, st.State)
				return
			}
			want := matrix.Mul(a.ToDense(), b.ToDense()).Dense()
			g := got.ToDense()
			for k := range want.Data {
				if math.Abs(g.Data[k]-want.Data[k]) > 1e-9 {
					t.Errorf("job %d wrong at %d", i, k)
					return
				}
			}
			if st.Meter.Cuboids == 0 || st.Meter.RequestBytes == 0 {
				t.Errorf("job %d meter empty: %+v", i, st.Meter)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	stats := s.Tenants()
	if len(stats) != 1 || stats[0].Completed != jobs {
		t.Fatalf("tenant stats: %+v", stats)
	}
	if stats[0].MeasuredRequestBytes == 0 || stats[0].PlannedBytes == 0 {
		t.Fatalf("byte accounting empty: %+v", stats[0])
	}
}

// TestQuotaExhaustionMidJob pins a tenant's byte quota at roughly one job:
// while the first job is in flight its planned bytes stay charged, so a
// second submit must be rejected with ErrQuotaExceeded — and admitted again
// once the first completes and releases its charge.
func TestQuotaExhaustionMidJob(t *testing.T) {
	var hold sync.RWMutex
	d := startHeldWorkers(t, 2, &hold)
	a, b := testMatrices(9100, 32)

	// Price one job to size the quota at it (with slack under 2 jobs).
	probe, err := New(d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	id, err := probe.Submit(SubmitRequest{A: a, B: b})
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := probe.Result(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	probe.Close()
	quota := st.PlannedBytes + st.PlannedBytes/2

	s, err := New(d, Config{
		Tenants: []Tenant{{Name: "metered", MaxInflightBytes: quota}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// The workers take no call until the assertion below has run, so the
	// first job cannot finish before the second submit.
	hold.Lock()
	release := sync.OnceFunc(hold.Unlock)
	defer release()
	id1, err := s.Submit(SubmitRequest{Tenant: "metered", A: a, B: b})
	if err != nil {
		t.Fatal(err)
	}
	// The first job is queued or running: its charge is held, so this
	// submit exceeds the quota.
	if _, err := s.Submit(SubmitRequest{Tenant: "metered", A: a, B: b}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("expected ErrQuotaExceeded mid-job, got %v", err)
	}
	release()
	if _, _, err := s.Result(context.Background(), id1); err != nil {
		t.Fatal(err)
	}
	// Charge released: the same job now fits.
	id3, err := s.Submit(SubmitRequest{Tenant: "metered", A: a, B: b})
	if err != nil {
		t.Fatalf("quota not released after completion: %v", err)
	}
	if _, _, err := s.Result(context.Background(), id3); err != nil {
		t.Fatal(err)
	}
	stats := s.Tenants()
	if stats[0].RejectedQuota != 1 || stats[0].Completed != 2 {
		t.Fatalf("tenant stats: %+v", stats[0])
	}
}

// TestCancelWhileQueued parks jobs behind a single dispatch slot, cancels
// one while it is still queued, and checks it settles as cancelled with its
// quota charge released and without ever running.
func TestCancelWhileQueued(t *testing.T) {
	c := startCluster(t, 1)
	s, err := New(c.d, Config{MaxConcurrentJobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	a, b := testMatrices(9200, 48)
	var ids []JobID
	for i := 0; i < 4; i++ {
		id, err := s.Submit(SubmitRequest{A: a, B: b})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// The last job is certainly still queued behind the single slot.
	victim := ids[len(ids)-1]
	if err := s.Cancel(victim); err != nil {
		t.Fatal(err)
	}
	_, st, err := s.Result(context.Background(), victim)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled job returned %v", err)
	}
	if st.State != StateCancelled {
		t.Fatalf("state %v after cancel-while-queued", st.State)
	}
	if st.Run != 0 {
		t.Fatalf("cancelled-while-queued job reports run time %v", st.Run)
	}
	// Cancel is idempotent, including on terminal jobs.
	if err := s.Cancel(victim); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids[:len(ids)-1] {
		if _, st, err := s.Result(context.Background(), id); err != nil || st.State != StateDone {
			t.Fatalf("surviving job %d: state %v err %v", id, st.State, err)
		}
	}
	stats := s.Tenants()
	if stats[0].Cancelled != 1 || stats[0].Completed != 3 {
		t.Fatalf("tenant stats: %+v", stats[0])
	}
	// Every charge was released.
	dbg := s.DebugSnapshot()
	if dbg.Tenants[0].ChargedBytes != 0 || dbg.Queued != 0 || dbg.Running != 0 {
		t.Fatalf("charges not released: %+v", dbg)
	}
}

// TestWorkerChurnDuringBacklog builds a queued backlog, then kills a worker
// and grows a replacement while the backlog drains. Every job must finish
// and every product must be bit-identical to its serial pre-churn run.
func TestWorkerChurnDuringBacklog(t *testing.T) {
	c := startCluster(t, 3)

	const jobs = 12
	type cse struct {
		a, b *bmat.BlockMatrix
		want *bmat.BlockMatrix
	}
	cases := make([]cse, jobs)
	// Serial references on the same cluster, before any churn.
	ref, err := New(c.d, Config{MaxConcurrentJobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cases {
		a, b := testMatrices(int64(9300+i), 32)
		id, err := ref.Submit(SubmitRequest{A: a, B: b})
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := ref.Result(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		cases[i] = cse{a: a, b: b, want: want}
	}
	ref.Close()

	s, err := New(c.d, Config{MaxConcurrentJobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ids := make([]JobID, jobs)
	for i := range cases {
		id, err := s.Submit(SubmitRequest{A: cases[i].a, B: cases[i].b})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	// Churn while the backlog drains: kill one worker, grow a replacement.
	addrs := c.pool.Addrs()
	if !c.pool.Kill(addrs[0]) {
		t.Fatal("kill failed")
	}
	if addr, err := c.pool.Grow(context.Background()); err != nil {
		t.Fatal(err)
	} else if err := c.d.AddWorker(addr); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		got, st, err := s.Result(context.Background(), id)
		if err != nil {
			t.Fatalf("job %d under churn: %v", i, err)
		}
		if st.State != StateDone {
			t.Fatalf("job %d state %v", i, st.State)
		}
		bitIdentical(t, got, cases[i].want)
	}
}

// TestQueueFullBackpressureUnderBurst fires an open-loop burst far past the
// queue bound: the overflow must come back as typed ErrQueueFull (with a
// retry-after hint), never deadlock, every admitted job must finish, and the
// server must answer a probe afterwards.
func TestQueueFullBackpressureUnderBurst(t *testing.T) {
	c := startCluster(t, 1)
	s, err := New(c.d, Config{MaxQueuedJobs: 4, MaxConcurrentJobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	a, b := testMatrices(9400, 32)
	const burst = 60
	var mu sync.Mutex
	var admitted []JobID
	var rejected int
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < burst/6; i++ {
				id, err := s.Submit(SubmitRequest{A: a, B: b})
				mu.Lock()
				if err == nil {
					admitted = append(admitted, id)
				} else {
					var qf *QueueFullError
					if !errors.As(err, &qf) || !errors.Is(err, ErrQueueFull) {
						t.Errorf("burst rejection wrong type: %v", err)
					} else if qf.RetryAfter <= 0 {
						t.Errorf("retry-after not set: %+v", qf)
					}
					rejected++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if rejected == 0 {
		t.Fatalf("burst of %d into a queue of 4 produced no rejections", burst)
	}
	deadline, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, id := range admitted {
		if _, st, err := s.Result(deadline, id); err != nil || st.State != StateDone {
			t.Fatalf("admitted job %d: state %v err %v", id, st.State, err)
		}
	}
	stats := s.Tenants()
	if stats[0].RejectedQueueFull != int64(rejected) {
		t.Fatalf("rejection accounting: want %d, stats %+v", rejected, stats[0])
	}
	// Still responsive after the storm: a fresh submit is admitted and runs.
	id, err := s.Submit(SubmitRequest{A: a, B: b})
	if err != nil {
		t.Fatalf("probe after the burst rejected: %v", err)
	}
	if _, st, err := s.Result(deadline, id); err != nil || st.State != StateDone {
		t.Fatalf("probe after the burst: state %v err %v", st.State, err)
	}
}

// TestWireAPIRoundTrip exercises submit/status/result/cancel and typed
// error mapping over a real socket.
func TestWireAPIRoundTrip(t *testing.T) {
	c := startCluster(t, 2)
	s, err := New(c.d, Config{
		Tenants:           []Tenant{{Name: "alpha"}, {Name: "tiny", MaxQueued: 1}},
		MaxConcurrentJobs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sl, err := ServeListener(s, l)
	if err != nil {
		t.Fatal(err)
	}
	defer sl.Close()
	cl, err := Dial(sl.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	a, b := testMatrices(9500, 32)
	id, err := cl.Submit("alpha", 1, a, b)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := cl.Result(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Tenant != "alpha" {
		t.Fatalf("wire status %+v", st)
	}
	want := matrix.Mul(a.ToDense(), b.ToDense()).Dense()
	g := got.ToDense()
	for k := range want.Data {
		if math.Abs(g.Data[k]-want.Data[k]) > 1e-9 {
			t.Fatalf("wire product wrong at %d", k)
		}
	}
	if _, err := cl.Status(id); err != nil {
		t.Fatal(err)
	}
	// The status crosses the wire field for field.
	if local, _ := s.Status(id); st != local {
		t.Fatalf("wire status %+v, server holds %+v", st, local)
	}

	// Forget over the wire releases the record and the product: an
	// RPC-only client can keep the server's memory bounded.
	if dbg := s.DebugSnapshot(); dbg.ResidentJobs != 1 || dbg.ResidentProductBytes != got.StoredBytes() {
		t.Fatalf("before Forget: %d jobs, %d product bytes resident (product is %d)", dbg.ResidentJobs, dbg.ResidentProductBytes, got.StoredBytes())
	}
	if err := cl.Forget(id); err != nil {
		t.Fatal(err)
	}
	if dbg := s.DebugSnapshot(); dbg.ResidentJobs != 0 || dbg.ResidentProductBytes != 0 {
		t.Fatalf("after Forget: %d jobs, %d product bytes still resident", dbg.ResidentJobs, dbg.ResidentProductBytes)
	}
	if _, err := cl.Status(id); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("status of a forgotten job: %v", err)
	}
	if err := cl.Forget(id); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("forgetting an unknown job over wire: %v", err)
	}

	// Typed rejections cross the wire.
	if _, err := cl.Submit("nobody", 0, a, b); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown tenant over wire: %v", err)
	}
	if _, err := cl.Status(99999); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown job over wire: %v", err)
	}
	// Fill tiny's queue (depth 1) while a slow blocker holds the single
	// dispatch slot, then one more tiny submit must bounce as a
	// QueueFullError with its hint intact. The blocker goes in directly
	// (no wire-encode delay) and is big enough to outlast the fast wire
	// submits below.
	ab, bb := testMatrices(9501, 576)
	if _, err := s.Submit(SubmitRequest{Tenant: "alpha", A: ab, B: bb}); err != nil {
		t.Fatal(err)
	}
	for s.DebugSnapshot().Running == 0 {
		time.Sleep(time.Millisecond)
	}
	if _, err := cl.Submit("tiny", 0, a, b); err != nil {
		t.Fatal(err)
	}
	_, err = cl.Submit("tiny", 0, a, b)
	var qf *QueueFullError
	if !errors.As(err, &qf) || qf.Tenant != "tiny" || qf.RetryAfter <= 0 {
		t.Fatalf("queue-full over wire: %v\nserver: %+v", err, s.DebugSnapshot())
	}

	// Cancel over the wire: park a job behind the backlog and cancel it.
	vid, err := cl.Submit("alpha", -1, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Cancel(vid); err != nil {
		t.Fatal(err)
	}
	vst, err := cl.Status(vid)
	if err != nil {
		t.Fatal(err)
	}
	if vst.State != StateCancelled && vst.State != StateRunning && vst.State != StateDone {
		t.Fatalf("cancelled job state %v", vst.State)
	}
}

// TestFairShareServesLighterTenant runs a heavy tenant flooding the queue
// against a light tenant trickling jobs: WFQ must keep serving the light
// tenant (its jobs cannot all be starved behind the flood). Only the heavy
// jobs that complete while the light job waits count: with one job running
// at a time, some of the flood finishes before the light job is submitted.
func TestFairShareServesLighterTenant(t *testing.T) {
	c := startCluster(t, 2)
	s, err := New(c.d, Config{
		Tenants:           []Tenant{{Name: "heavy"}, {Name: "light"}},
		MaxConcurrentJobs: 1,
		MaxQueuedJobs:     256,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	heavyDone := func() int64 {
		for _, tn := range s.DebugSnapshot().Tenants {
			if tn.Name == "heavy" {
				return tn.Stats.Completed
			}
		}
		return 0
	}

	a, b := testMatrices(9600, 32)
	for i := 0; i < 40; i++ {
		if _, err := s.Submit(SubmitRequest{Tenant: "heavy", A: a, B: b}); err != nil {
			t.Fatal(err)
		}
	}
	before := heavyDone()
	id, err := s.Submit(SubmitRequest{Tenant: "light", A: a, B: b})
	if err != nil {
		t.Fatal(err)
	}
	// The light job must finish long before the whole heavy backlog could
	// drain serially.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	start := time.Now()
	if _, st, err := s.Result(ctx, id); err != nil || st.State != StateDone {
		t.Fatalf("light job starved: state %v err %v", st.State, err)
	}
	elapsed := time.Since(start)
	if waited := heavyDone() - before; waited > 20 {
		t.Fatalf("light tenant waited behind %d heavy jobs (%v): fair share broken", waited, elapsed)
	}
}

// TestWavePricesColumns pins admission's wave for the task a worker now
// runs, a (p,q) column holding R cuboids' inputs: MemBytes(P,Q,R) · R per
// column, times the P·Q columns or the pool's slots, whichever is fewer. One
// worker at the default four in-flight calls gives four slots. sparse_tall's
// (3,1,4) is 3 columns of 4 slabs, not 12 cuboids cut to 4 slots; at R = 1
// the wave is what pricing per cuboid gave.
func TestWavePricesColumns(t *testing.T) {
	c := startCluster(t, 1)
	s, err := New(c.d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// |A| = 12 MiB, |B| = 4 MiB, |C| = 3 MiB.
	shape := core.Shape{I: 32, J: 2, K: 32, ABytes: 12 << 20, BBytes: 4 << 20, CBytes: 3 << 20}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, tc := range []struct {
		params core.Params
		mib    float64
	}{
		// (1 + 1 + 1) MiB a cuboid, 4 a column, 3 columns.
		{core.Params{P: 3, Q: 1, R: 4}, 3 * 4 * 3},
		// (1.5 + 1 + 0.375) MiB a cuboid, 2 a column, 8 columns on 4 slots.
		{core.Params{P: 4, Q: 2, R: 2}, 2.875 * 2 * 4},
		// (4 + 2 + 0.5) MiB a cuboid and a column, 6 columns on 4 slots.
		{core.Params{P: 3, Q: 2, R: 1}, 6.5 * 4},
	} {
		if got, want := s.waveOfLocked(shape, tc.params), tc.mib*(1<<20); got != want {
			t.Errorf("%v: wave %.0f bytes, want %.0f", tc.params, got, want)
		}
	}
}

// TestStackTeardownLeavesNoGoroutines brings up the whole serving stack —
// workers, driver, Server, listener, two wire clients — runs a few jobs and
// closes it outside-in. The goroutine count must come back to the starting
// census plus four within two seconds (the rule benchmark/stack.go applies
// after every workload).
func TestStackTeardownLeavesNoGoroutines(t *testing.T) {
	census := runtime.NumGoroutine()
	// A subtest, so startCluster's cleanup (driver, then pool) has run by
	// the time the census is read again.
	t.Run("stack", func(t *testing.T) {
		c := startCluster(t, 2)
		s, err := New(c.d, Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		sl, err := ServeListener(s, l)
		if err != nil {
			t.Fatal(err)
		}
		defer sl.Close()
		a, b := testMatrices(9700, 32)
		for i := 0; i < 2; i++ {
			cl, err := Dial(sl.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			for j := 0; j < 3; j++ {
				id, err := cl.Submit("", 0, a, b)
				if err != nil {
					t.Fatal(err)
				}
				if _, st, err := cl.Result(context.Background(), id); err != nil || st.State != StateDone {
					t.Fatalf("client %d job %d: state %v err %v", i, j, st.State, err)
				}
			}
		}
	})
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > census+4 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d running, census was %d", runtime.NumGoroutine(), census)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

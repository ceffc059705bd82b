package distnet

import (
	"context"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"distme/internal/bmat"
	"distme/internal/core"
)

// The self-healing suite: health scores, hysteresis decisions, worker
// pools, the bounded drain window, dead-member retirement, the supervisor
// end to end, and the workerstore's concurrency under churn (run under
// -race via make test-race).

func mkHealth(pressure float64, workers ...WorkerHealth) ClusterHealth {
	h := ClusterHealth{Workers: workers, Pressure: pressure}
	for _, w := range workers {
		if w.Score > 0 && !w.Draining {
			h.LiveWorkers++
		}
	}
	return h
}

func TestHysteresisPolicyScalesUpOnSustainedPressure(t *testing.T) {
	p := &HysteresisPolicy{MinWorkers: 1, MaxWorkers: 4, UpAfter: 3, CooldownTicks: 2}
	busy := mkHealth(2.0,
		WorkerHealth{Addr: "a", Score: 1},
		WorkerHealth{Addr: "b", Score: 1})
	for i := 0; i < 2; i++ {
		if dec := p.decide(busy); dec.Action != scaleHold {
			t.Fatalf("tick %d: %v before UpAfter sustained", i, dec.Action)
		}
	}
	if dec := p.decide(busy); dec.Action != scaleUp {
		t.Fatalf("sustained pressure: got %v", dec.Action)
	}
	// Cooldown holds even under pressure, then the count restarts.
	for i := 0; i < 2; i++ {
		if dec := p.decide(busy); dec.Action != scaleHold || dec.Reason != "cooldown" {
			t.Fatalf("cooldown tick %d: %+v", i, dec)
		}
	}
}

func TestHysteresisPolicyScalesDownIdleAndRespectsMin(t *testing.T) {
	p := &HysteresisPolicy{MinWorkers: 1, MaxWorkers: 4, DownAfter: 2, CooldownTicks: 1}
	idle := mkHealth(0,
		WorkerHealth{Addr: "a", Score: 1},
		WorkerHealth{Addr: "b", Score: 0.6})
	p.decide(idle)
	dec := p.decide(idle)
	if dec.Action != scaleDown || dec.Addr != "b" {
		t.Fatalf("want down of lowest-scoring b, got %+v", dec)
	}
	// At the floor, idleness never drains the last worker.
	solo := mkHealth(0, WorkerHealth{Addr: "a", Score: 1})
	p2 := &HysteresisPolicy{MinWorkers: 1, DownAfter: 1}
	for i := 0; i < 5; i++ {
		if dec := p2.decide(solo); dec.Action != scaleHold {
			t.Fatalf("scaled below MinWorkers: %+v", dec)
		}
	}
}

func TestHysteresisPolicyDrainsFlappingWorker(t *testing.T) {
	p := &HysteresisPolicy{MinWorkers: 1, CooldownTicks: 1}
	flappy := mkHealth(0.5,
		WorkerHealth{Addr: "good", Score: 1},
		WorkerHealth{Addr: "bad", Score: 0.9, Flapping: true})
	for i := 1; i < unhealthyAfter; i++ {
		if dec := p.decide(flappy); dec.Action != scaleHold {
			t.Fatalf("tick %d: %+v before unhealthyAfter sustained", i, dec)
		}
	}
	dec := p.decide(flappy)
	if dec.Action != scaleDown || dec.Addr != "bad" {
		t.Fatalf("want unhealthy drain of bad, got %+v", dec)
	}
}

func TestHysteresisPolicyDeterministic(t *testing.T) {
	seq := []ClusterHealth{
		mkHealth(2.0, WorkerHealth{Addr: "a", Score: 1}),
		mkHealth(2.0, WorkerHealth{Addr: "a", Score: 1}),
		mkHealth(0, WorkerHealth{Addr: "a", Score: 1}, WorkerHealth{Addr: "b", Score: 1}),
		mkHealth(0, WorkerHealth{Addr: "a", Score: 1}, WorkerHealth{Addr: "b", Score: 1}),
		mkHealth(0.5, WorkerHealth{Addr: "a", Score: 0.2}, WorkerHealth{Addr: "b", Score: 1}),
	}
	run := func() []scaleAction {
		p := &HysteresisPolicy{UpAfter: 2, DownAfter: 2, CooldownTicks: 1}
		var out []scaleAction
		for _, h := range seq {
			out = append(out, p.decide(h).Action)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tick %d: %v vs %v — policy not deterministic", i, a[i], b[i])
		}
	}
}

func TestInProcPoolGrowShrinkKill(t *testing.T) {
	pool := &InProcPool{}
	ctx := context.Background()
	defer pool.Close(ctx)

	addr, err := pool.Grow(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !pool.Owns(addr) || pool.Worker(addr) == nil {
		t.Fatalf("pool does not own its grown worker %s", addr)
	}
	if pool.Owns("127.0.0.1:1") {
		t.Fatal("pool claims a worker it never grew")
	}
	// The grown worker answers real RPCs.
	d, err := DialOptions([]string{addr}, Options{DisableHeartbeat: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	a := bmat.RandomDense(rng, 16, 16, 8)
	if _, err := execute(d, a, a, core.Params{P: 1, Q: 1, R: 1}); err != nil {
		t.Fatal(err)
	}
	d.Close()

	victim, err := pool.Grow(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !pool.Kill(victim) {
		t.Fatal("Kill refused an owned worker")
	}
	if !pool.Owns(victim) {
		t.Fatal("killed worker should stay owned for post-mortem inspection")
	}
	if _, err := net.DialTimeout("tcp", victim, 200*time.Millisecond); err == nil {
		t.Fatal("killed worker still accepting connections")
	}
	if err := pool.Shrink(ctx, addr); err != nil {
		t.Fatal(err)
	}
	if pool.Owns(addr) {
		t.Fatal("shrunk worker still owned")
	}
	if err := pool.Shrink(ctx, addr); err == nil {
		t.Fatal("double Shrink should fail")
	}
}

func TestDrainWindowAdmitsReadsUntilDeadline(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w, err := ServeOptions(l, WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.abort()

	w.mu.Lock()
	w.draining = true
	w.drainUntil = time.Now().Add(80 * time.Millisecond)
	w.mu.Unlock()

	if w.begin(false) {
		t.Fatal("begin admitted work on a draining worker")
	}
	if !w.begin(true) {
		t.Fatal("a read refused inside the drain window — bands could not migrate off")
	}
	w.end()
	time.Sleep(120 * time.Millisecond)
	if w.begin(true) {
		t.Fatal("a read admitted past the drain deadline")
	}
}

func TestRetireDeadFlipsLongDeadMembers(t *testing.T) {
	addrs, _ := startWorkers(t, 2)
	d, err := DialOptions(addrs, Options{DisableHeartbeat: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	d.mu.Lock()
	m := d.members[0]
	d.mu.Unlock()
	m.mu.Lock()
	m.state = StateDead
	m.deadSince = time.Now().Add(-time.Minute)
	m.mu.Unlock()

	retired := d.retireDead(30 * time.Second)
	if len(retired) != 1 || retired[0] != m.addr {
		t.Fatalf("retireDead = %v, want [%s]", retired, m.addr)
	}
	m.mu.Lock()
	state := m.state
	m.mu.Unlock()
	if state != StateRemoved {
		t.Fatalf("retired member state = %v, want removed", state)
	}
	if got := d.NetStats().WorkersRetired; got != 1 {
		t.Fatalf("WorkersRetired = %d", got)
	}
	// Fresh deaths are not retired.
	if again := d.retireDead(30 * time.Second); len(again) != 0 {
		t.Fatalf("second retireDead = %v", again)
	}
}

// TestJitterSeedPinsBackoffSchedule reads the delays retries sleep on: two
// drivers dialled with one seed back off on the same schedule.
func TestJitterSeedPinsBackoffSchedule(t *testing.T) {
	addrs, _ := startWorkers(t, 1)
	schedule := func(seed int64) []time.Duration {
		d, err := DialOptions(addrs, Options{DisableHeartbeat: true, JitterSeed: seed})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = d.backoff.Delay(i + 1)
		}
		return out
	}
	a, b := schedule(99), schedule(99)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Delay(%d): %v vs %v — jitter not pinned by seed", i+1, a[i], b[i])
		}
	}
}

// TestAutoscalerEndToEnd drives the whole loop against a real pool: load
// forces a scale-up, idleness a scale-down, and the decision log plus
// counters record both.
func TestAutoscalerEndToEnd(t *testing.T) {
	pool := &InProcPool{}
	ctx := context.Background()
	defer pool.Close(ctx)
	seedAddr, err := pool.Grow(ctx)
	if err != nil {
		t.Fatal(err)
	}
	d, err := DialOptions([]string{seedAddr}, Options{
		HeartbeatInterval: 50 * time.Millisecond,
		PerWorkerInflight: 1,
		JitterSeed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	err = d.StartAutoscaler(AutoscalerOptions{
		Pool: pool,
		Policy: &HysteresisPolicy{
			MinWorkers:    1,
			MaxWorkers:    3,
			UpAfter:       2,
			DownPressure:  0.2,
			DownAfter:     4,
			CooldownTicks: 3,
		},
		Interval:     20 * time.Millisecond,
		DrainTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.StartAutoscaler(AutoscalerOptions{Pool: pool}); err == nil {
		t.Fatal("second StartAutoscaler should fail while one runs")
	}

	// Load phase: concurrent multiplies against a 1-slot worker queue up.
	rng := rand.New(rand.NewSource(5))
	a := bmat.RandomDense(rng, 32, 32, 8)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := execute(d, a, a, core.Params{P: 2, Q: 2, R: 1}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for d.NetStats().ScaleUps == 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if d.NetStats().ScaleUps == 0 {
		t.Fatal("no scale-up under sustained queue pressure")
	}

	// Idle phase: the pool drains back toward MinWorkers.
	for d.NetStats().ScaleDowns == 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if d.NetStats().ScaleDowns == 0 {
		t.Fatal("no scale-down under sustained idleness")
	}
	events := d.AutoscalerEvents()
	var up, down bool
	for _, ev := range events {
		up = up || ev.Action == "up"
		down = down || ev.Action == "down"
	}
	if !up || !down {
		t.Fatalf("decision log missing up/down: %+v", events)
	}
	// The supervisor never drains the statically-dialed... seed worker is
	// pool-owned here, but a non-owned member must be refused.
	d.StopAutoscaler()
	d.StopAutoscaler() // idempotent
}

func TestClusterHealthSnapshotsLoadAndPressure(t *testing.T) {
	addrs, _ := startWorkers(t, 2)
	d, err := DialOptions(addrs, Options{
		HeartbeatInterval: 20 * time.Millisecond,
		PerWorkerInflight: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		h := d.ClusterHealth()
		if h.LiveWorkers == 2 && h.MeanScore == 1 {
			if len(h.Workers) != 2 {
				t.Fatalf("workers = %d", len(h.Workers))
			}
			if h.Pressure != 0 {
				t.Fatalf("idle pressure = %v", h.Pressure)
			}
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("cluster never scored healthy: %+v", d.ClusterHealth())
}

// TestWorkerStoreConcurrentFreeFetchEviction hammers the shared worker
// stores from many sessions at once (Session itself is single-goroutine by
// contract, so each goroutine owns one) while a tiny store bound forces
// evictions — workerstore.go's locking must hold up under -race when Put,
// Fetch, Free, and the eviction scan interleave across sessions.
func TestWorkerStoreConcurrentFreeFetchEviction(t *testing.T) {
	var addrs []string
	for i := 0; i < 2; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		// A bound small enough that concurrent puts evict each other.
		if _, err := ServeOptions(l, WorkerOptions{MemBytes: 24 << 10}); err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, l.Addr().String())
	}
	d, err := DialOptions(addrs, Options{DisableHeartbeat: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()

	rng := rand.New(rand.NewSource(11))
	m := bmat.RandomDense(rng, 24, 24, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess, err := d.NewSession(ctx)
			if err != nil {
				t.Errorf("session: %v", err)
				return
			}
			defer sess.Close(ctx)
			for i := 0; i < 12; i++ {
				h, err := sess.Put(ctx, m)
				if err != nil {
					t.Errorf("put: %v", err)
					return
				}
				// Fetches race other sessions' puts evicting this handle's
				// blocks and frees releasing them mid-scan; rebuild-from-
				// lineage makes evicted fetches succeed bit-identical.
				if g%2 == 0 {
					if got, err := sess.Fetch(ctx, h); err == nil {
						if !got.ToDense().EqualApprox(m.ToDense(), 0) {
							t.Error("fetched bytes differ")
							return
						}
					} else if !strings.Contains(err.Error(), "freed") {
						t.Errorf("fetch: %v", err)
						return
					}
				}
				_ = sess.Free(ctx, h)
			}
		}(g)
	}
	wg.Wait()
}

// TestNoGoroutineLeakAfterSessionClose asserts the whole stack — sessions,
// driver, autoscaled pool — returns the process to its starting goroutine
// neighborhood after Close.
func TestNoGoroutineLeakAfterSessionClose(t *testing.T) {
	before := runtime.NumGoroutine()

	pool := &InProcPool{}
	ctx := context.Background()
	addr, err := pool.Grow(ctx)
	if err != nil {
		t.Fatal(err)
	}
	d, err := DialOptions([]string{addr}, Options{
		HeartbeatInterval: 20 * time.Millisecond,
		JitterSeed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.StartAutoscaler(AutoscalerOptions{Pool: pool, Interval: 20 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	sess, err := d.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	m := bmat.RandomDense(rng, 16, 16, 8)
	h, err := sess.Put(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Fetch(ctx, h); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if n := d.NetStats().ResidentBytes; n != 0 {
		t.Fatalf("ResidentBytes = %d after Session.Close", n)
	}
	d.Close() // stops the autoscaler too
	pool.Close(ctx)

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after close", before, runtime.NumGoroutine())
}

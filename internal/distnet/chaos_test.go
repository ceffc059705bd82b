package distnet

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distme/internal/bmat"
	"distme/internal/cluster"
	"distme/internal/codec"
	"distme/internal/core"
	"distme/internal/engine"
	"distme/internal/matrix"
	"distme/internal/ml"
	"distme/internal/plan"
)

// ---------------------------------------------------------------------------
// Chaos TCP proxy: a seeded fault injector between driver and worker that
// delays accepts, severs connections after a random byte budget, and resets
// live streams — without touching either endpoint's code.

type chaosConfig struct {
	// AcceptDelayMax delays each accepted connection by a uniform draw in
	// [0, AcceptDelayMax).
	AcceptDelayMax time.Duration
	// DropRate is the per-connection probability of severing the stream
	// after a byte budget drawn uniformly from [1, DropBytesMax].
	DropRate     float64
	DropBytesMax int64
	// CleanConns exempts the first N connections (lets the initial dial
	// handshake through so the test exercises mid-job failures).
	CleanConns int
}

type chaosProxy struct {
	l      net.Listener
	target string
	cfg    chaosConfig

	mu    sync.Mutex
	rng   *rand.Rand
	conns int
}

func startChaosProxy(t *testing.T, target string, seed int64, cfg chaosConfig) *chaosProxy {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &chaosProxy{l: l, target: target, cfg: cfg, rng: rand.New(rand.NewSource(seed))}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			p.mu.Lock()
			p.conns++
			clean := p.conns <= cfg.CleanConns
			delay := time.Duration(0)
			if !clean && cfg.AcceptDelayMax > 0 {
				delay = time.Duration(p.rng.Int63n(int64(cfg.AcceptDelayMax)))
			}
			budget := int64(math.MaxInt64)
			if !clean && cfg.DropRate > 0 && p.rng.Float64() < cfg.DropRate {
				budget = 1 + p.rng.Int63n(cfg.DropBytesMax)
			}
			p.mu.Unlock()
			go p.handle(conn, delay, budget)
		}
	}()
	return p
}

func (p *chaosProxy) Addr() string { return p.l.Addr().String() }

func (p *chaosProxy) handle(conn net.Conn, delay time.Duration, budget int64) {
	if delay > 0 {
		time.Sleep(delay)
	}
	back, err := net.Dial("tcp", p.target)
	if err != nil {
		conn.Close()
		return
	}
	var remaining atomic.Int64
	remaining.Store(budget)
	sever := func() { conn.Close(); back.Close() }
	pipe := func(dst, src net.Conn) {
		buf := make([]byte, 4096)
		for {
			n, err := src.Read(buf)
			if n > 0 {
				if remaining.Add(-int64(n)) < 0 {
					sever() // mid-stream cut: the reply (or request) dies here
					return
				}
				if _, werr := dst.Write(buf[:n]); werr != nil {
					sever()
					return
				}
			}
			if err != nil {
				sever()
				return
			}
		}
	}
	go pipe(back, conn)
	go pipe(conn, back)
}

// ---------------------------------------------------------------------------
// Helpers.

// fastOpts are deterministic-latency elastic options for tests: tight
// deadlines, quick detector, cheap backoff.
func fastOpts() Options {
	return Options{
		HeartbeatInterval: 20 * time.Millisecond,
		PingTimeout:       500 * time.Millisecond,
		CallTimeout:       2 * time.Second,
		SuspectAfter:      1,
		DeadAfter:         2,
		RetryBackoff:      time.Millisecond,
		MaxBackoff:        20 * time.Millisecond,
	}
}

// execute is Driver.Execute for the suite's common case: explicit (P,Q,R),
// push plane, background context, product only.
func execute(d *Driver, a, b *bmat.BlockMatrix, params core.Params) (*bmat.BlockMatrix, error) {
	c, _, err := d.Execute(context.Background(), a, b, MultiplyOptions{Params: &params})
	return c, err
}

// bitIdentical compares two block matrices float64-bit for float64-bit —
// the chaos suite's correctness bar is exact equality with the
// failure-free run, not an epsilon.
func bitIdentical(t *testing.T, got, want *bmat.BlockMatrix) {
	t.Helper()
	g, w := got.ToDense(), want.ToDense()
	gr, gc := g.Dims()
	wr, wc := w.Dims()
	if gr != wr || gc != wc {
		t.Fatalf("shape %dx%d != %dx%d", gr, gc, wr, wc)
	}
	for i := range g.Data {
		if math.Float64bits(g.Data[i]) != math.Float64bits(w.Data[i]) {
			t.Fatalf("element %d differs bitwise: %v != %v", i, g.Data[i], w.Data[i])
		}
	}
}

// killWorker simulates a worker crash: stop accepting and cut every open
// connection immediately (no drain).
func killWorker(w *Worker) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w.Shutdown(ctx)
}

func localEngine(t *testing.T) *engine.Engine {
	t.Helper()
	cfg := cluster.LaptopConfig()
	cfg.LocalWorkers = 4
	cfg.TaskMemBytes = 1 << 30
	cfg.DiskCapacityBytes = 0
	eng, err := engine.New(engine.Config{Cluster: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// ---------------------------------------------------------------------------
// Chaos suite.

// TestChaosMultiplyByteIdentical runs the same multiply over clean sockets
// and through chaos proxies injecting accept delays and mid-stream
// connection cuts; the products must agree bit for bit.
func TestChaosMultiplyByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(300))
	a := bmat.RandomDense(rng, 32, 32, 4)
	b := bmat.RandomDense(rng, 32, 32, 4)
	params := core.Params{P: 4, Q: 2, R: 2}

	addrs, _ := startWorkers(t, 3)
	baseline, err := DialOptions(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer baseline.Close()
	want, err := execute(baseline, a, b, params)
	if err != nil {
		t.Fatal(err)
	}

	var proxied []string
	for i, addr := range addrs {
		p := startChaosProxy(t, addr, int64(400+i), chaosConfig{
			AcceptDelayMax: 15 * time.Millisecond,
			DropRate:       0.6,
			DropBytesMax:   48 << 10,
			CleanConns:     1,
		})
		proxied = append(proxied, p.Addr())
	}
	d, err := DialOptions(proxied, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	for round := 0; round < 3; round++ {
		got, err := execute(d, a, b, params)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		bitIdentical(t, got, want)
	}
}

// TestChaosGNMFByteIdentical runs GNMF as a resident pipeline with its
// worker traffic crossing chaos proxies and compares W and H bitwise
// against the failure-free run.
func TestChaosGNMFByteIdentical(t *testing.T) {
	addrs, _ := startWorkers(t, 2)
	rng := rand.New(rand.NewSource(301))
	v := bmat.RandomSparse(rng, 24, 20, 4, 0.2)
	gopts := ml.GNMFOptions{Rank: 4, Iterations: 2, Seed: 11}

	clean, err := DialOptions(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	want := gnmfPipeline(t, clean, v, gopts)

	var proxied []string
	for i, addr := range addrs {
		p := startChaosProxy(t, addr, int64(500+i), chaosConfig{
			AcceptDelayMax: 10 * time.Millisecond,
			DropRate:       0.5,
			DropBytesMax:   32 << 10,
			CleanConns:     1,
		})
		proxied = append(proxied, p.Addr())
	}
	d, err := DialOptions(proxied, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	got := gnmfPipeline(t, d, v, gopts)
	bitIdentical(t, got.W, want.W)
	bitIdentical(t, got.H, want.H)
}

// TestWorkerKillBetweenCuboids kills one of two workers between multiplies;
// every cuboid must reassign to the survivor and the product stay
// bit-identical.
func TestWorkerKillBetweenCuboids(t *testing.T) {
	addrs, workers := startWorkers(t, 2)
	opts := fastOpts()
	opts.DisableHeartbeat = true // deterministic: death detected by the failed call itself
	d, err := DialOptions(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	rng := rand.New(rand.NewSource(302))
	a := bmat.RandomDense(rng, 16, 16, 4)
	b := bmat.RandomDense(rng, 16, 16, 4)
	params := core.Params{P: 2, Q: 2, R: 2}
	want, err := execute(d, a, b, params)
	if err != nil {
		t.Fatal(err)
	}

	killWorker(workers[0])
	before := workers[1].Multiplies()
	got, err := execute(d, a, b, params)
	if err != nil {
		t.Fatalf("multiply after kill: %v", err)
	}
	bitIdentical(t, got, want)
	if served := workers[1].Multiplies() - before; served != 8 {
		t.Fatalf("survivor served %d cuboids, want all 8", served)
	}
	if d.Workers() != 1 {
		t.Fatalf("Workers() = %d after kill, want 1", d.Workers())
	}
	if dead := d.NetStats().WorkersDeclaredDead; dead == 0 {
		t.Fatal("kill did not surface on WorkersDeclaredDead")
	}
}

// startSlowWorker serves a real worker whose multiplications queue behind
// one another, each after a delay, so a mid-job membership change happens
// while cuboids are still queued driver-side. Its other calls answer at once.
func startSlowWorker(t *testing.T, delay time.Duration) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	w := &Worker{store: newHandleStore(0)}
	handlers := w.handlers()
	multiply := handlers[methodMultiply]
	var mu sync.Mutex
	handlers[methodMultiply] = func(args *codec.FrameReader) (codec.Call, error) {
		call, err := multiply(args)
		return func() (func(*codec.FrameWriter) error, error) {
			mu.Lock()
			time.Sleep(delay)
			mu.Unlock()
			return call()
		}, err
	}
	codec.Listen(l, workerPreamble, handlers, workerErrors)
	return l.Addr().String()
}

// TestAddWorkerMidMultiply adds a fresh worker while a multiply is in
// flight on a deliberately slow one; the newcomer must serve at least one
// queued cuboid, and the product must match the reference bitwise.
func TestAddWorkerMidMultiply(t *testing.T) {
	slowAddr := startSlowWorker(t, 15*time.Millisecond)
	opts := fastOpts()
	opts.DisableHeartbeat = true
	opts.PerWorkerInflight = 2
	d, err := DialOptions([]string{slowAddr}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	rng := rand.New(rand.NewSource(303))
	a := bmat.RandomDense(rng, 16, 16, 4)
	b := bmat.RandomDense(rng, 16, 16, 4)
	params := core.Params{P: 4, Q: 4, R: 1} // 16 queued cuboids

	type result struct {
		c   *bmat.BlockMatrix
		err error
	}
	done := make(chan result, 1)
	go func() {
		c, err := execute(d, a, b, params)
		done <- result{c, err}
	}()

	time.Sleep(30 * time.Millisecond)
	fastAddrs, fastWorkers := startWorkers(t, 1)
	if err := d.AddWorker(fastAddrs[0]); err != nil {
		t.Fatal(err)
	}

	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	want := matrix.Mul(a.ToDense(), b.ToDense()).Dense()
	if !res.c.ToDense().EqualApprox(want, 1e-9) {
		t.Fatal("product wrong after mid-job join")
	}
	if fastWorkers[0].Multiplies() == 0 {
		t.Fatal("worker added mid-multiply served no cuboids")
	}
	if d.NetStats().WorkersJoined != 1 {
		t.Fatalf("WorkersJoined = %d, want 1", d.NetStats().WorkersJoined)
	}
}

// TestAllWorkersKilledDegradesToLocal kills the entire pool; Multiply must
// degrade to driver-local compute with a bit-identical product, and a GNMF
// whose products go through the dead driver must keep working.
func TestAllWorkersKilledDegradesToLocal(t *testing.T) {
	addrs, workers := startWorkers(t, 2)
	opts := fastOpts()
	opts.DisableHeartbeat = true
	d, err := DialOptions(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	rng := rand.New(rand.NewSource(304))
	a := bmat.RandomDense(rng, 16, 16, 4)
	b := bmat.RandomDense(rng, 16, 16, 4)
	params := core.Params{P: 2, Q: 2, R: 2}
	want, err := execute(d, a, b, params)
	if err != nil {
		t.Fatal(err)
	}

	for _, w := range workers {
		killWorker(w)
	}
	got, err := execute(d, a, b, params)
	if err != nil {
		t.Fatalf("multiply with drained pool: %v", err)
	}
	bitIdentical(t, got, want)
	if d.NetStats().LocalFallbacks == 0 {
		t.Fatal("drained pool did not surface on LocalFallbacks")
	}
	if d.Workers() != 0 {
		t.Fatalf("Workers() = %d with all dead, want 0", d.Workers())
	}

	// GNMF with its products through the dead driver: every multiplication
	// degrades to driver-local compute and the query still runs.
	eng := localEngine(t)
	v := bmat.RandomSparse(rng, 24, 20, 4, 0.2)
	gopts := ml.GNMFOptions{Rank: 4, Iterations: 2, Seed: 11}
	gotG, err := ml.GNMF(context.Background(), executeOps{eng, d}, v, gopts)
	if err != nil {
		t.Fatalf("GNMF on drained pool: %v", err)
	}
	wantG, err := ml.GNMF(context.Background(), eng, v, gopts)
	if err != nil {
		t.Fatal(err)
	}
	if !gotG.W.ToDense().EqualApprox(wantG.W.ToDense(), 1e-12) {
		t.Fatal("degraded GNMF W diverges from local")
	}
}

// TestDetectorMarksDeadAndReconnects watches the failure detector retire a
// killed worker and — after a replacement worker reappears on the same
// address — bring it back into the live set.
func TestDetectorMarksDeadAndReconnects(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w, err := ServeOptions(l, WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()

	opts := fastOpts()
	opts.HeartbeatInterval = 10 * time.Millisecond
	opts.PingTimeout = 200 * time.Millisecond
	d, err := DialOptions([]string{addr}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	killWorker(w)
	deadline := time.Now().Add(2 * time.Second)
	for d.Workers() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("detector never declared the killed worker dead")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A replacement worker binds the same address; the detector's redial
	// loop must re-admit it without any driver call.
	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	if _, err := ServeOptions(l2, WorkerOptions{}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l2.Close() })
	deadline = time.Now().Add(2 * time.Second)
	for d.Workers() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("detector never reconnected the recovered worker")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if stats := d.NetStats(); stats.Reconnects == 0 {
		t.Fatalf("reconnect not counted: %+v", stats)
	}
	// The next successful probe records a heartbeat and its RTT.
	deadline = time.Now().Add(2 * time.Second)
	for {
		stats := d.NetStats()
		if stats.HeartbeatsSent > 0 && stats.HeartbeatRTTCount > 0 && stats.HeartbeatRTTMax > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("heartbeat RTTs not recorded: %+v", stats)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// pipelineOutputs puts a and b into s and returns 2·a and 2·b computed on
// the workers: handles with no retained Put source, so a pull multiply of
// them ships manifests only and the driver holds no block it could compute
// the product from.
func pipelineOutputs(t *testing.T, s *Session, a, b *bmat.BlockMatrix) (*Handle, *Handle) {
	t.Helper()
	binds := putAll(t, s, map[string]*bmat.BlockMatrix{"a": a, "b": b})
	var out [2]*Handle
	for i, name := range []string{"a", "b"} {
		h, err := s.Run(context.Background(), plan.Times(2, plan.V(name)), binds)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = h
	}
	return out[0], out[1]
}

// TestDeadlineExceeded drives a pull multiply of two pipeline outputs — a
// call the driver cannot compute locally — into a worker whose
// multiplications never answer within the deadline: the typed sentinel must
// surface, matching both the package and context sentinels, and nothing may
// be computed on the driver.
func TestDeadlineExceeded(t *testing.T) {
	slowAddr := startSlowWorker(t, 100*time.Millisecond)
	opts := fastOpts()
	opts.DisableHeartbeat = true
	opts.CallTimeout = 30 * time.Millisecond
	d, err := DialOptions([]string{slowAddr}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	rng := rand.New(rand.NewSource(306))
	s := newSession(t, d)
	ha, hb := pipelineOutputs(t, s, bmat.RandomDense(rng, 8, 8, 4), bmat.RandomDense(rng, 8, 8, 4))
	before := d.NetStats()
	_, _, err = s.Multiply(context.Background(), ha, hb, MultiplyOptions{Transfer: core.TransferPull})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("want ErrDeadlineExceeded, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline error should match context.DeadlineExceeded, got %v", err)
	}
	delta := d.NetStats().Sub(before)
	if delta.DeadlineTimeouts == 0 {
		t.Fatal("timeout not counted")
	}
	if delta.LocalFallbacks != 0 {
		t.Fatalf("%d calls computed on the driver, which holds no operand block", delta.LocalFallbacks)
	}
}

// TestSourcelessPullMultiplyDeadPool: with every worker dead, a pull
// multiply of two pipeline outputs fails with a worker sentinel and leaves
// LocalFallbacks where it was — the driver never held the blocks, so it has
// nothing to compute from. (TestDeadlineExceeded is the lagging pool.)
func TestSourcelessPullMultiplyDeadPool(t *testing.T) {
	addrs, workers := startWorkers(t, 2)
	opts := fastOpts()
	opts.DisableHeartbeat = true
	d, err := DialOptions(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	rng := rand.New(rand.NewSource(307))
	s := newSession(t, d)
	ha, hb := pipelineOutputs(t, s, bmat.RandomDense(rng, 8, 8, 4), bmat.RandomDense(rng, 8, 8, 4))
	for _, w := range workers {
		killWorker(w)
	}
	before := d.NetStats()
	_, _, err = s.Multiply(context.Background(), ha, hb, MultiplyOptions{Transfer: core.TransferPull})
	if !errors.Is(err, ErrWorkerDead) && !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("want ErrWorkerDead or ErrNoWorkers, got %v", err)
	}
	if n := d.NetStats().Sub(before).LocalFallbacks; n != 0 {
		t.Fatalf("%d calls computed on the driver, which holds no operand block", n)
	}
}

// TestWorkerGracefulShutdown exercises the drain path: Shutdown completes
// in-flight RPCs, refuses new ones, is idempotent, and unblocks Wait.
func TestWorkerGracefulShutdown(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w, err := ServeOptions(l, WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	client, err := dialWorker(l.Addr().String(), time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ping := func() error { return client.Call(context.Background(), methodPing, nil, nil) }
	if err := ping(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := w.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown errored: %v", err)
	}
	if err := w.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown not idempotent: %v", err)
	}
	w.Wait() // must not block after shutdown

	// The listener is closed and the connection severed.
	if _, err := net.DialTimeout("tcp", l.Addr().String(), 100*time.Millisecond); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
	if err := ping(); err == nil {
		t.Fatal("severed connection still answers")
	}
}

// TestDriverLifecycle pins the satellite fixes: Close is idempotent,
// Workers excludes dead members, RemoveWorker evicts, and a removed
// worker's cuboids land on the survivors.
func TestDriverLifecycle(t *testing.T) {
	addrs, workers := startWorkers(t, 3)
	opts := fastOpts()
	opts.DisableHeartbeat = true
	d, err := DialOptions(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d.Workers() != 3 {
		t.Fatalf("Workers = %d, want 3", d.Workers())
	}
	if err := d.RemoveWorker(addrs[0]); err != nil {
		t.Fatal(err)
	}
	if d.Workers() != 2 {
		t.Fatalf("Workers = %d after remove, want 2", d.Workers())
	}
	if err := d.RemoveWorker(addrs[0]); err == nil {
		t.Fatal("double remove accepted")
	}
	if err := d.RemoveWorker("127.0.0.1:9"); err == nil {
		t.Fatal("unknown remove accepted")
	}

	rng := rand.New(rand.NewSource(307))
	a := bmat.RandomDense(rng, 16, 16, 4)
	before := workers[0].Multiplies()
	c, err := execute(d, a, a, core.Params{P: 2, Q: 2, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.Mul(a.ToDense(), a.ToDense()).Dense()
	if !c.ToDense().EqualApprox(want, 1e-9) {
		t.Fatal("product wrong after removal")
	}
	if workers[0].Multiplies() != before {
		t.Fatal("removed worker still received cuboids")
	}
	stats := d.NetStats()
	if stats.WorkersLeft != 1 {
		t.Fatalf("WorkersLeft = %d, want 1", stats.WorkersLeft)
	}

	d.Close()
	d.Close() // idempotent
	if _, err := execute(d, a, a, core.Params{P: 1, Q: 1, R: 1}); !errors.Is(err, ErrDriverClosed) {
		t.Fatalf("closed driver: want ErrDriverClosed, got %v", err)
	}
	if err := d.AddWorker(addrs[0]); !errors.Is(err, ErrDriverClosed) {
		t.Fatalf("AddWorker on closed driver: want ErrDriverClosed, got %v", err)
	}
}

package distme_test

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"distme"
	"distme/internal/distnet"
)

// Each sentinel is exercised end-to-end: a public API call is driven into
// the failure mode and the returned error must match via errors.Is through
// every layer of wrapping.

func chaosEngine(t *testing.T, f distme.Faults) *distme.Engine {
	t.Helper()
	cfg := distme.LaptopCluster()
	cfg.LocalWorkers = 4
	cfg.TaskMemBytes = 1 << 30
	cfg.DiskCapacityBytes = 0
	cfg.TaskRetries = 4
	cfg.RetryBackoff = 100 * time.Microsecond
	cfg.Faults = f
	e, err := distme.NewEngine(distme.EngineConfig{Cluster: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestErrTaskOOM(t *testing.T) {
	cfg := distme.LaptopCluster()
	cfg.TaskMemBytes = 1 << 10 // θt far below any real cuboid
	e, err := distme.NewEngine(distme.EngineConfig{Cluster: cfg})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	a := distme.RandomDense(rng, 64, 64, 16)
	b := distme.RandomDense(rng, 64, 64, 16)
	_, _, err = e.Run(context.Background(), distme.PlanMul(distme.PlanVar("a"), distme.PlanVar("b")),
		map[string]*distme.Matrix{"a": a, "b": b}, distme.WithMulOptions(distme.MulOptions{
			Method: distme.MethodCuboid, Params: distme.Params{P: 1, Q: 1, R: 1},
		}))
	if !errors.Is(err, distme.ErrTaskOOM) {
		t.Fatalf("want ErrTaskOOM, got %v", err)
	}
}

func TestErrNoFeasibleParams(t *testing.T) {
	_, err := distme.Optimize(distme.Shape{I: 8, J: 8, K: 8,
		ABytes: 1 << 40, BBytes: 1 << 40, CBytes: 1 << 40}, 1<<10, 1)
	if !errors.Is(err, distme.ErrNoFeasibleParams) {
		t.Fatalf("want ErrNoFeasibleParams, got %v", err)
	}
}

func TestErrShapeMismatch(t *testing.T) {
	e := chaosEngine(t, distme.Faults{})
	rng := rand.New(rand.NewSource(2))
	a := distme.RandomDense(rng, 8, 8, 4)
	b := distme.RandomDense(rng, 12, 8, 4) // inner dims disagree
	if _, err := e.Multiply(context.Background(), a, b); !errors.Is(err, distme.ErrShapeMismatch) {
		t.Fatalf("want ErrShapeMismatch from multiply, got %v", err)
	}
	if _, err := e.Add(context.Background(), a, b); !errors.Is(err, distme.ErrShapeMismatch) {
		t.Fatalf("want ErrShapeMismatch from add, got %v", err)
	}

	// The TCP plane reports the same mistake with the same sentinel, from
	// every entry point that multiplies.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w, err := distnet.ServeOptions(l, distnet.WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Shutdown(context.Background())
	d, err := distnet.DialOptions([]string{l.Addr().String()}, strictDistnetOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()
	if _, _, err := d.Execute(ctx, a, b, distnet.MultiplyOptions{}); !errors.Is(err, distme.ErrShapeMismatch) {
		t.Errorf("want ErrShapeMismatch from Driver.Execute, got %v", err)
	}
	s, err := d.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(ctx)
	ha, err := s.Put(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := s.Put(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Multiply(ctx, ha, hb, distnet.MultiplyOptions{}); !errors.Is(err, distme.ErrShapeMismatch) {
		t.Errorf("want ErrShapeMismatch from Session.Multiply, got %v", err)
	}
	mul := distme.PlanMul(distme.PlanVar("a"), distme.PlanVar("b"))
	if _, err := s.Run(ctx, mul, map[string]*distnet.Handle{"a": ha, "b": hb}); !errors.Is(err, distme.ErrShapeMismatch) {
		t.Errorf("want ErrShapeMismatch from Session.Run, got %v", err)
	}
}

func TestErrRetriesExhausted(t *testing.T) {
	// Crash every attempt and forbid retries from outlasting the faults.
	e := chaosEngine(t, distme.Faults{Seed: 1, CrashRate: 1, MaxFaultsPerTask: 100})
	rng := rand.New(rand.NewSource(3))
	a := distme.RandomDense(rng, 8, 8, 4)
	b := distme.RandomDense(rng, 8, 8, 4)
	_, _, err := e.Run(context.Background(), distme.PlanMul(distme.PlanVar("a"), distme.PlanVar("b")),
		map[string]*distme.Matrix{"a": a, "b": b}, distme.WithMulOptions(distme.MulOptions{
			Method: distme.MethodCuboid, Params: distme.Params{P: 1, Q: 1, R: 1},
		}))
	if !errors.Is(err, distme.ErrRetriesExhausted) {
		t.Fatalf("want ErrRetriesExhausted, got %v", err)
	}
}

func TestErrCancelled(t *testing.T) {
	e := chaosEngine(t, distme.Faults{})
	rng := rand.New(rand.NewSource(4))
	a := distme.RandomDense(rng, 8, 8, 4)
	b := distme.RandomDense(rng, 8, 8, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := e.Run(ctx, distme.PlanMul(distme.PlanVar("a"), distme.PlanVar("b")),
		map[string]*distme.Matrix{"a": a, "b": b})
	if !errors.Is(err, distme.ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ErrCancelled should wrap ctx.Err(), got %v", err)
	}
}

func TestErrEngineClosed(t *testing.T) {
	e := chaosEngine(t, distme.Faults{})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	a := distme.RandomDense(rng, 8, 8, 4)
	if _, err := e.Multiply(context.Background(), a, a); !errors.Is(err, distme.ErrEngineClosed) {
		t.Fatalf("want ErrEngineClosed, got %v", err)
	}
}

func TestErrUnknownMethod(t *testing.T) {
	e := chaosEngine(t, distme.Faults{})
	rng := rand.New(rand.NewSource(6))
	a := distme.RandomDense(rng, 8, 8, 4)
	_, _, err := e.Run(context.Background(), distme.PlanMul(distme.PlanVar("a"), distme.PlanVar("b")),
		map[string]*distme.Matrix{"a": a, "b": a}, distme.WithMulOptions(distme.MulOptions{Method: distme.Method(42)}))
	if !errors.Is(err, distme.ErrUnknownMethod) {
		t.Fatalf("want ErrUnknownMethod, got %v", err)
	}
}

// TestElasticReportThroughPublicAPI runs a chaos multiply through the root
// package and checks the elastic counters surface on the report.
func TestElasticReportThroughPublicAPI(t *testing.T) {
	e := chaosEngine(t, distme.Faults{Seed: 9, CrashRate: 0.5})
	rng := rand.New(rand.NewSource(7))
	a := distme.RandomDense(rng, 16, 16, 4)
	b := distme.RandomDense(rng, 16, 16, 4)
	_, report, err := e.Run(context.Background(), distme.PlanMul(distme.PlanVar("a"), distme.PlanVar("b")),
		map[string]*distme.Matrix{"a": a, "b": b}, distme.WithMulOptions(distme.MulOptions{
			Method: distme.MethodCuboid, Params: distme.Params{P: 2, Q: 2, R: 2},
		}))
	if err != nil {
		t.Fatal(err)
	}
	if report.Elastic.FaultsInjected == 0 || report.Elastic.TaskRetries == 0 {
		t.Fatalf("chaos run should surface elastic work on the report, got %+v", report.Elastic)
	}
}

// strictDistnetOpts disables every fallback and the background detector so
// the real-network failure under test surfaces as a typed error instead of
// being healed.
func strictDistnetOpts() distnet.Options {
	return distnet.Options{
		DisableHeartbeat:     true,
		DisableLocalFallback: true,
		RetryBackoff:         100 * time.Microsecond,
		MaxBackoff:           time.Millisecond,
	}
}

// TestErrWorkerDeadThroughLayers kills the whole worker pool under a
// multiply: the distnet sentinel must match at the package root after
// crossing the driver's retries.
func TestErrWorkerDeadThroughLayers(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w, err := distnet.ServeOptions(l, distnet.WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := distnet.DialOptions([]string{l.Addr().String()}, strictDistnetOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// Crash the only worker: refuse new connections, cut the live ones.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w.Shutdown(ctx)
	l.Close()

	rng := rand.New(rand.NewSource(8))
	a := distme.RandomSparse(rng, 16, 12, 4, 0.3)
	b := distme.RandomDense(rng, 12, 8, 4)
	_, _, err = d.Execute(context.Background(), a, b, distnet.MultiplyOptions{})
	if !errors.Is(err, distme.ErrWorkerDead) {
		t.Fatalf("want ErrWorkerDead through the driver, got %v", err)
	}
}

// startLaggedWorker serves a real worker behind a proxy that holds every
// chunk of its answers for lag: a call with a deadline shorter than lag
// never sees its reply in time, while a dial (under the default ping
// timeout) still succeeds.
func startLaggedWorker(t *testing.T, lag time.Duration) string {
	t.Helper()
	wl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w, err := distnet.ServeOptions(wl, distnet.WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		w.Shutdown(ctx)
	})
	pl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pl.Close() })
	go func() {
		for {
			client, err := pl.Accept()
			if err != nil {
				return
			}
			go func() {
				defer client.Close()
				worker, err := net.Dial("tcp", wl.Addr().String())
				if err != nil {
					return
				}
				defer worker.Close()
				go func() {
					io.Copy(worker, client)
					worker.Close()
				}()
				buf := make([]byte, 64<<10)
				for {
					n, err := worker.Read(buf)
					if n > 0 {
						time.Sleep(lag)
						if _, werr := client.Write(buf[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}()
		}
	}()
	return pl.Addr().String()
}

// TestErrDeadlineExceededThroughLayers points the driver at a worker whose
// every answer lags past the call deadline; the per-call deadline must
// surface as the root sentinel and also match context.DeadlineExceeded.
func TestErrDeadlineExceededThroughLayers(t *testing.T) {
	addr := startLaggedWorker(t, 300*time.Millisecond)
	opts := strictDistnetOpts()
	opts.CallTimeout = 50 * time.Millisecond
	d, err := distnet.DialOptions([]string{addr}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	rng := rand.New(rand.NewSource(9))
	a := distme.RandomDense(rng, 8, 8, 4)
	_, _, err = d.Execute(context.Background(), a, a, distnet.MultiplyOptions{})
	if !errors.Is(err, distme.ErrDeadlineExceeded) {
		t.Fatalf("want ErrDeadlineExceeded through the driver, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline error should also match context.DeadlineExceeded, got %v", err)
	}
}

package engine

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"distme/internal/bmat"
	"distme/internal/cluster"
	"distme/internal/core"
	"distme/internal/gpu"
	"distme/internal/metrics"
	"distme/internal/storage"
)

func chaosConfig(f cluster.Faults) Config {
	cfg := testConfig()
	cfg.Cluster.TaskRetries = 4
	cfg.Cluster.RetryBackoff = 100 * time.Microsecond
	cfg.Cluster.Speculation = true
	cfg.Cluster.Faults = f
	return cfg
}

func fingerprint(t *testing.T, m *bmat.BlockMatrix) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := storage.Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMultiplyCtxCancelsDuringRetries cancels a multiply whose only path
// forward is waiting out retry backoffs of 50ms and up; it must return
// within one backoff step with an error matching ErrCancelled and
// ctx.Err().
func TestMultiplyCtxCancelsDuringRetries(t *testing.T) {
	cfg := testConfig()
	cfg.Cluster.TaskRetries = 100
	cfg.Cluster.RetryBackoff = 50 * time.Millisecond
	cfg.Cluster.Faults = cluster.Faults{Seed: 1, CrashRate: 1, MaxFaultsPerTask: 100}
	e := newTestEngine(t, cfg)

	rng := rand.New(rand.NewSource(80))
	a := bmat.RandomDense(rng, 16, 16, 4)
	b := bmat.RandomDense(rng, 16, 16, 4)

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	start := time.Now()
	_, _, err := runMul(ctx, e, a, b, MulOptions{Method: MethodCuboid, Params: core.Params{P: 2, Q: 2, R: 2}})
	elapsed := time.Since(start)
	if !errors.Is(err, cluster.ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error should wrap ctx.Err(), got %v", err)
	}
	if elapsed > 20*time.Millisecond+cfg.Cluster.RetryBackoff {
		t.Fatalf("cancel took %v; must abort within one backoff step of the cancel", elapsed)
	}
}

func TestMultiplyCtxPreCancelled(t *testing.T) {
	e := newTestEngine(t, testConfig())
	rng := rand.New(rand.NewSource(81))
	a := bmat.RandomDense(rng, 8, 8, 4)
	b := bmat.RandomDense(rng, 8, 8, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := runMul(ctx, e, a, b, MulOptions{})
	if !errors.Is(err, cluster.ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
}

func TestMultiplyCtxNilContext(t *testing.T) {
	e := newTestEngine(t, testConfig())
	rng := rand.New(rand.NewSource(82))
	a := bmat.RandomDense(rng, 8, 8, 4)
	b := bmat.RandomDense(rng, 8, 8, 4)
	if _, _, err := runMul(nil, e, a, b, MulOptions{}); err != nil {
		t.Fatalf("nil ctx should behave like Background, got %v", err)
	}
}

// TestAllMethodsBitIdenticalUnderFaults is the engine-level acceptance
// check: every method, CPU and GPU, produces byte-identical output under
// mixed injected faults.
func TestAllMethodsBitIdenticalUnderFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	a := bmat.RandomDense(rng, 24, 20, 4)
	b := bmat.RandomDense(rng, 20, 16, 4)
	faults := cluster.Faults{
		Seed: 13, CrashRate: 0.2, OOMRate: 0.1,
		StragglerRate: 0.2, StragglerDelay: 2 * time.Millisecond,
		FetchFailRate: 0.2,
	}
	methods := []MulOptions{
		{Method: MethodAuto},
		{Method: MethodBMM},
		{Method: MethodCPMM},
		{Method: MethodRMM},
		{Method: MethodCuboid, Params: core.Params{P: 2, Q: 2, R: 2}},
	}
	for _, useGPU := range []bool{false, true} {
		for _, opts := range methods {
			baseCfg, chaosCfg := chaosConfig(cluster.Faults{}), chaosConfig(faults)
			if useGPU {
				baseCfg.Local = gpu.NewMultiplier(gpu.TaskSpec(baseCfg.Cluster))
				chaosCfg.Local = gpu.NewMultiplier(gpu.TaskSpec(chaosCfg.Cluster))
			}
			base := newTestEngine(t, baseCfg)
			want, _, err := runMul(context.Background(), base, a, b, opts)
			if err != nil {
				t.Fatalf("%v gpu=%v failure-free: %v", opts.Method, useGPU, err)
			}

			chaos := newTestEngine(t, chaosCfg)
			got, report, err := runMul(context.Background(), chaos, a, b, opts)
			if err != nil {
				t.Fatalf("%v gpu=%v under faults: %v", opts.Method, useGPU, err)
			}
			if !bytes.Equal(fingerprint(t, got), fingerprint(t, want)) {
				t.Fatalf("%v gpu=%v: faulted output differs from failure-free bytes", opts.Method, useGPU)
			}
			if report.Elastic.FaultsInjected == 0 {
				t.Fatalf("%v gpu=%v: report should count injected faults", opts.Method, useGPU)
			}
		}
	}
}

// TestReportElasticCounters checks Report.Elastic reflects only the work of
// its own multiplication.
func TestReportElasticCounters(t *testing.T) {
	e := newTestEngine(t, chaosConfig(cluster.Faults{Seed: 3, CrashRate: 0.5}))
	rng := rand.New(rand.NewSource(84))
	a := bmat.RandomDense(rng, 16, 16, 4)
	b := bmat.RandomDense(rng, 16, 16, 4)
	_, r1, err := runMul(context.Background(), e, a, b, MulOptions{Method: MethodCuboid, Params: core.Params{P: 2, Q: 2, R: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Elastic.TaskRetries == 0 {
		t.Fatal("crash rate 0.5 should have caused retries")
	}
	// A second multiply with injection disabled on a fresh engine must
	// report zero elastic work of its own.
	quiet := newTestEngine(t, chaosConfig(cluster.Faults{}))
	_, r2, err := runMul(context.Background(), quiet, a, b, MulOptions{Method: MethodCuboid, Params: core.Params{P: 2, Q: 2, R: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Elastic != (metrics.ElasticStats{}) {
		t.Fatalf("failure-free multiply reported elastic work: %+v", r2.Elastic)
	}
}

// TestEngineCloseSemantics: Close is idempotent, fails further calls with
// ErrEngineClosed, and ReleaseLayout stays safe before and after.
func TestEngineCloseSemantics(t *testing.T) {
	e := newTestEngine(t, testConfig())
	rng := rand.New(rand.NewSource(85))
	a := bmat.RandomDense(rng, 8, 8, 4)
	b := bmat.RandomDense(rng, 8, 8, 4)
	if _, err := e.Multiply(context.Background(), a, b); err != nil {
		t.Fatal(err)
	}
	e.ReleaseLayout(a) // untracked or tracked, both fine
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal("Close must be idempotent")
	}
	if _, err := e.Multiply(context.Background(), a, b); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("want ErrEngineClosed, got %v", err)
	}
	if _, _, err := runMul(context.Background(), e, a, b, MulOptions{}); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("want ErrEngineClosed from Run, got %v", err)
	}
	if _, err := e.Add(context.Background(), a, b); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("want ErrEngineClosed from Add, got %v", err)
	}
	if _, err := e.Transpose(context.Background(), a); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("want ErrEngineClosed from Transpose, got %v", err)
	}
	e.ReleaseLayout(a) // no-op after Close
}

// TestLayoutTableBounded drives more matrices through layout tracking than
// the table bound and checks it never exceeds the cap.
func TestLayoutTableBounded(t *testing.T) {
	cfg := testConfig()
	cfg.TrackLayouts = true
	e := newTestEngine(t, cfg)
	for i := 0; i < maxTrackedLayouts+100; i++ {
		m := bmat.New(8, 8, 4)
		setLayout(e, m, layoutTag{kind: "row", p: 1})
	}
	e.mu.Lock()
	n := len(e.layouts)
	e.mu.Unlock()
	if n > maxTrackedLayouts {
		t.Fatalf("layout table grew to %d, cap is %d", n, maxTrackedLayouts)
	}
}

// TestTransposeLayoutsBounded: the tag a transpose derives for its output
// goes through the same bounded table as every other tag, so a long GNMF's
// Wᵀ/Hᵀ intermediates are evicted instead of pinned until Close.
func TestTransposeLayoutsBounded(t *testing.T) {
	cfg := testConfig()
	cfg.TrackLayouts = true
	e := newTestEngine(t, cfg)
	m := bmat.New(8, 8, 4)
	setLayout(e, m, layoutTag{kind: "row", p: 1})
	for i := 0; i < 3*maxTrackedLayouts; i++ {
		// m is the oldest tag, so it is the first evicted: keep it tracked.
		setLayout(e, m, layoutTag{kind: "row", p: 1})
		if _, err := e.Transpose(context.Background(), m); err != nil {
			t.Fatal(err)
		}
	}
	e.mu.Lock()
	n, order := len(e.layouts), len(e.layoutOrder)
	e.mu.Unlock()
	if n > maxTrackedLayouts {
		t.Fatalf("layout table grew to %d after transposes, cap is %d", n, maxTrackedLayouts)
	}
	if order > 2*maxTrackedLayouts+1 {
		t.Fatalf("layout order grew to %d, compaction bound is %d", order, 2*maxTrackedLayouts+1)
	}
}

// TestReleaseLayoutForgetsColocation: after release, the next multiply must
// not treat the operand as colocated.
func TestReleaseLayoutForgetsColocation(t *testing.T) {
	cfg := testConfig()
	cfg.TrackLayouts = true
	e := newTestEngine(t, cfg)
	rng := rand.New(rand.NewSource(86))
	a := bmat.RandomDense(rng, 16, 16, 4)
	b := bmat.RandomDense(rng, 16, 16, 4)
	opts := MulOptions{Method: MethodCuboid, Params: core.Params{P: 2, Q: 1, R: 2}}
	if _, _, err := runMul(context.Background(), e, a, b, opts); err != nil {
		t.Fatal(err)
	}
	ca, cb := e.colocation(a, b, opts.Params)
	if !ca || !cb {
		t.Fatal("operands should be colocated after a tracked multiply")
	}
	e.ReleaseLayout(a)
	ca, _ = e.colocation(a, b, opts.Params)
	if ca {
		t.Fatal("released matrix must not report colocation")
	}
}

func TestUnknownMethodSentinel(t *testing.T) {
	e := newTestEngine(t, testConfig())
	rng := rand.New(rand.NewSource(87))
	a := bmat.RandomDense(rng, 8, 8, 4)
	b := bmat.RandomDense(rng, 8, 8, 4)
	_, _, err := runMul(context.Background(), e, a, b, MulOptions{Method: Method(99)})
	if !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("want ErrUnknownMethod, got %v", err)
	}
}

func TestZipShapeMismatchSentinel(t *testing.T) {
	e := newTestEngine(t, testConfig())
	rng := rand.New(rand.NewSource(88))
	a := bmat.RandomDense(rng, 8, 8, 4)
	b := bmat.RandomDense(rng, 12, 8, 4)
	if _, err := e.Add(context.Background(), a, b); !errors.Is(err, core.ErrShapeMismatch) {
		t.Fatalf("want ErrShapeMismatch, got %v", err)
	}
}

// setLayout declares a matrix's partitioning, as a multiply would record it.
func setLayout(e *Engine, m *bmat.BlockMatrix, tag layoutTag) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.setLayoutLocked(m, tag)
}

package engine

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"distme/internal/bmat"
	"distme/internal/cluster"
	"distme/internal/core"
	"distme/internal/gpu"
	"distme/internal/matrix"
	"distme/internal/metrics"
	"distme/internal/plan"
)

func testConfig() Config {
	cfg := cluster.LaptopConfig()
	cfg.LocalWorkers = 4
	cfg.TaskMemBytes = 1 << 30
	cfg.DiskCapacityBytes = 0
	return Config{Cluster: cfg}
}

func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// runMul is one multiplication through Run with explicit options, the way
// every test here asks for a method, params or the report.
func runMul(ctx context.Context, e *Engine, a, b *bmat.BlockMatrix, o MulOptions) (*bmat.BlockMatrix, *Report, error) {
	return e.Run(ctx, plan.Mul(plan.V("a"), plan.V("b")),
		map[string]*bmat.BlockMatrix{"a": a, "b": b}, WithMulOptions(o))
}

func TestEngineMultiplyAuto(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	e := newTestEngine(t, testConfig())
	a := bmat.RandomDense(rng, 20, 24, 4)
	b := bmat.RandomDense(rng, 24, 16, 4)
	got, err := e.Multiply(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.Mul(a.ToDense(), b.ToDense()).Dense()
	if !got.ToDense().EqualApprox(want, 1e-9) {
		t.Fatal("auto multiply wrong")
	}
}

func TestEngineEveryMethodAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	a := bmat.RandomSparse(rng, 18, 12, 3, 0.4)
	b := bmat.RandomDense(rng, 12, 18, 3)
	want := matrix.Mul(a.ToDense(), b.ToDense()).Dense()
	for _, m := range []Method{MethodAuto, MethodBMM, MethodCPMM, MethodRMM} {
		e := newTestEngine(t, testConfig())
		got, rep, err := runMul(context.Background(), e, a, b, MulOptions{Method: m})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !got.ToDense().EqualApprox(want, 1e-9) {
			t.Fatalf("%v: wrong product", m)
		}
		if rep.Method != m {
			t.Fatalf("report method %v, want %v", rep.Method, m)
		}
	}
	// Explicit cuboid params.
	e := newTestEngine(t, testConfig())
	got, rep, err := runMul(context.Background(), e, a, b, MulOptions{Method: MethodCuboid, Params: core.Params{P: 2, Q: 3, R: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !got.ToDense().EqualApprox(want, 1e-9) {
		t.Fatal("cuboid params: wrong product")
	}
	if rep.Params != (core.Params{P: 2, Q: 3, R: 2}) {
		t.Fatalf("report params %v", rep.Params)
	}
}

func TestEngineGPUMatchesCPU(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	a := bmat.RandomDense(rng, 16, 16, 4)
	b := bmat.RandomDense(rng, 16, 16, 4)

	cpuCfg := testConfig()
	ec := newTestEngine(t, cpuCfg)
	wantC, _, err := runMul(context.Background(), ec, a, b, MulOptions{Method: MethodCPMM})
	if err != nil {
		t.Fatal(err)
	}

	gpuCfg := testConfig()
	m := gpu.NewMultiplier(gpu.TaskSpec(gpuCfg.Cluster))
	gpuCfg.Local = m
	eg := newTestEngine(t, gpuCfg)
	gotG, _, err := runMul(context.Background(), eg, a, b, MulOptions{Method: MethodCPMM})
	if err != nil {
		t.Fatal(err)
	}
	if !gotG.ToDense().EqualApprox(wantC.ToDense(), 1e-9) {
		t.Fatal("GPU product differs from CPU")
	}
	st := m.Device.Stats()
	if st.Kernels == 0 {
		t.Fatal("GPU path ran no kernels")
	}
	if st.PCIEBytes() == 0 {
		t.Fatal("GPU path recorded no PCI-E traffic")
	}
	if st.Utilization() <= 0 {
		t.Fatal("GPU utilization missing")
	}
}

func TestEngineReportCommDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	a := bmat.RandomDense(rng, 12, 12, 3)
	b := bmat.RandomDense(rng, 12, 12, 3)
	e := newTestEngine(t, testConfig())
	_, rep1, err := runMul(context.Background(), e, a, b, MulOptions{Method: MethodCPMM})
	if err != nil {
		t.Fatal(err)
	}
	_, rep2, err := runMul(context.Background(), e, a, b, MulOptions{Method: MethodCPMM})
	if err != nil {
		t.Fatal(err)
	}
	// The per-op deltas must match each other, not accumulate.
	if rep1.Comm.CommunicationBytes() != rep2.Comm.CommunicationBytes() {
		t.Fatalf("per-op comm deltas differ: %d vs %d",
			rep1.Comm.CommunicationBytes(), rep2.Comm.CommunicationBytes())
	}
	s := core.ShapeOf(a, b)
	if got := float64(rep1.Comm.CommunicationBytes()); got != s.CostBytes(s.CPMMParams()) {
		t.Fatalf("per-op delta %g, want Eq.(4) %g", got, s.CostBytes(s.CPMMParams()))
	}
}

func TestLayoutTrackingSavesRepartition(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	cfg := testConfig()
	cfg.TrackLayouts = true
	e := newTestEngine(t, cfg)
	a := bmat.RandomDense(rng, 16, 16, 4)
	b := bmat.RandomDense(rng, 16, 16, 4)

	_, rep1, err := runMul(context.Background(), e, a, b, MulOptions{Method: MethodCPMM})
	if err != nil {
		t.Fatal(err)
	}
	// Second identical multiply: A is now column-partitioned, B
	// row-partitioned — both base copies are free.
	_, rep2, err := runMul(context.Background(), e, a, b, MulOptions{Method: MethodCPMM})
	if err != nil {
		t.Fatal(err)
	}
	saved := a.StoredBytes() + b.StoredBytes()
	if got := rep1.Comm.RepartitionBytes - rep2.Comm.RepartitionBytes; got != saved {
		t.Fatalf("layout reuse saved %d, want %d", got, saved)
	}
}

func TestLayoutTrackingOffNoSaving(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	e := newTestEngine(t, testConfig()) // TrackLayouts false
	a := bmat.RandomDense(rng, 8, 8, 4)
	b := bmat.RandomDense(rng, 8, 8, 4)
	_, rep1, _ := runMul(context.Background(), e, a, b, MulOptions{Method: MethodCPMM})
	_, rep2, _ := runMul(context.Background(), e, a, b, MulOptions{Method: MethodCPMM})
	if rep1.Comm.RepartitionBytes != rep2.Comm.RepartitionBytes {
		t.Fatal("layout saving applied with tracking disabled")
	}
}

func TestTransposeDistributed(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	e := newTestEngine(t, testConfig())
	a := bmat.RandomSparse(rng, 14, 10, 3, 0.3)
	tr, err := e.Transpose(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.ToDense().Equal(a.ToDense().Transpose()) {
		t.Fatal("distributed transpose wrong")
	}
}

func TestTransposeFlipsTrackedLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	cfg := testConfig()
	cfg.TrackLayouts = true
	e := newTestEngine(t, cfg)
	a := bmat.RandomDense(rng, 8, 8, 4)
	setLayout(e, a, layoutTag{kind: "row", p: 2})
	tr, err := e.Transpose(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	l := e.layouts[tr]
	e.mu.Unlock()
	if l.kind != "col" {
		t.Fatalf("transpose layout = %q, want col", l.kind)
	}
}

func TestElementWiseOps(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	e := newTestEngine(t, testConfig())
	a := bmat.RandomDense(rng, 10, 10, 3)
	b := bmat.RandomDense(rng, 10, 10, 3)

	sum, err := e.Add(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.ToDense().EqualApprox(matrix.Add(a.ToDense(), b.ToDense()), 1e-12) {
		t.Fatal("Add wrong")
	}
	diff, err := e.Sub(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !diff.ToDense().EqualApprox(matrix.Sub(a.ToDense(), b.ToDense()), 1e-12) {
		t.Fatal("Sub wrong")
	}
	had, err := e.Hadamard(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !had.ToDense().EqualApprox(matrix.Hadamard(a.ToDense(), b.ToDense()), 1e-12) {
		t.Fatal("Hadamard wrong")
	}
	div, err := e.DivElem(context.Background(), a, b, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if !div.ToDense().EqualApprox(matrix.DivElem(a.ToDense(), b.ToDense(), 1e-12), 1e-12) {
		t.Fatal("DivElem wrong")
	}
	sc, err := e.Scale(context.Background(), 2, a)
	if err != nil {
		t.Fatal(err)
	}
	if !sc.ToDense().EqualApprox(matrix.Scale(2, a.ToDense()), 1e-12) {
		t.Fatal("Scale wrong")
	}
}

func TestZipShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	e := newTestEngine(t, testConfig())
	a := bmat.RandomDense(rng, 4, 4, 2)
	b := bmat.RandomDense(rng, 4, 6, 2)
	if _, err := e.Add(context.Background(), a, b); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

func TestEngineRecorderAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	e := newTestEngine(t, testConfig())
	a := bmat.RandomDense(rng, 8, 8, 4)
	b := bmat.RandomDense(rng, 8, 8, 4)
	if _, _, err := runMul(context.Background(), e, a, b, MulOptions{Method: MethodCPMM}); err != nil {
		t.Fatal(err)
	}
	if e.Recorder().Bytes(metrics.StepRepartition) == 0 {
		t.Fatal("engine recorder did not accumulate")
	}
}

func TestMethodString(t *testing.T) {
	for m, want := range map[Method]string{
		MethodAuto:   "CuboidMM(auto)",
		MethodBMM:    "BMM",
		MethodCPMM:   "CPMM",
		MethodRMM:    "RMM",
		MethodCuboid: "CuboidMM",
	} {
		if m.String() != want {
			t.Errorf("%d.String() = %q", int(m), m.String())
		}
	}
}

func TestEngineUnknownMethod(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	e := newTestEngine(t, testConfig())
	a := bmat.RandomDense(rng, 4, 4, 2)
	if _, _, err := runMul(context.Background(), e, a, a, MulOptions{Method: Method(99)}); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestAutoRetriesOnRaggedOOM(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	// 12×12×12 blocks with θt chosen so that Eq.(3)'s average-based
	// feasibility admits parameters whose ragged cuboids exceed the budget:
	// MethodAuto must re-optimize finer instead of failing.
	a := bmat.RandomDense(rng, 768, 768, 64)
	b := bmat.RandomDense(rng, 768, 768, 64)
	cfg := cluster.LaptopConfig()
	cfg.LocalWorkers = 4
	cfg.Nodes, cfg.TasksPerNode = 3, 3
	cfg.TaskMemBytes = 256 << 10
	cfg.DiskCapacityBytes = 0
	e := newTestEngine(t, Config{Cluster: cfg})
	got, rep, err := runMul(context.Background(), e, a, b, MulOptions{Method: MethodAuto})
	if err != nil {
		t.Fatalf("elastic retry failed: %v", err)
	}
	if !got.ToDense().EqualApprox(matrix.Mul(a.ToDense(), b.ToDense()).Dense(), 1e-9) {
		t.Fatal("retried multiply wrong")
	}
	if rep.Params.Tasks() <= cfg.Slots() {
		t.Fatalf("retry should have refined the partitioning, got %v", rep.Params)
	}
}

func TestEngineConcurrentMultiplies(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	cfg := testConfig()
	cfg.TrackLayouts = true
	e := newTestEngine(t, cfg)
	a := bmat.RandomDense(rng, 16, 16, 4)
	b := bmat.RandomDense(rng, 16, 16, 4)
	want := matrix.Mul(a.ToDense(), b.ToDense()).Dense()
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got, _, err := runMul(context.Background(), e, a, b, MulOptions{Method: MethodCPMM})
			if err != nil {
				errs[g] = err
				return
			}
			if !got.ToDense().EqualApprox(want, 1e-9) {
				errs[g] = errNotEqual
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

var errNotEqual = errors.New("concurrent multiply produced wrong product")

// TestEngineMultiGPUSpecScaling checks the per-task device slice of a
// four-GPU node: four times the memory, bus and cores of one GPU, and the
// engine running its cuboids on it.
func TestEngineMultiGPUSpecScaling(t *testing.T) {
	cfg := testConfig()
	one := gpu.TaskSpec(cfg.Cluster)
	cfg.Cluster.GPUsPerNode = 4
	spec := gpu.TaskSpec(cfg.Cluster)
	if want := cfg.Cluster.GPUMemPerTaskBytes * 4; spec.MemPerTaskBytes != want {
		t.Fatalf("multi-GPU θg = %d, want %d", spec.MemPerTaskBytes, want)
	}
	if spec.Flops != 4*one.Flops || spec.PCIEBandwidth != 4*one.PCIEBandwidth {
		t.Fatalf("multi-GPU slice %+v does not scale the one-GPU slice %+v", spec, one)
	}
	m := gpu.NewMultiplier(spec)
	cfg.Local = m
	rng := rand.New(rand.NewSource(75))
	a := bmat.RandomDense(rng, 12, 12, 4)
	b := bmat.RandomDense(rng, 12, 12, 4)
	if _, err := newTestEngine(t, cfg).Multiply(context.Background(), a, b); err != nil {
		t.Fatal(err)
	}
	if m.Device.Stats().Kernels == 0 {
		t.Fatal("engine did not run its cuboids on the multi-GPU device")
	}
}

func TestExplainMatchesExecution(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	e := newTestEngine(t, testConfig())
	a := bmat.RandomDense(rng, 24, 24, 4)
	b := bmat.RandomDense(rng, 24, 24, 4)
	for _, m := range []Method{MethodAuto, MethodBMM, MethodCPMM} {
		ex, err := e.Explain(a, b, MulOptions{Method: m})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		_, rep, err := runMul(context.Background(), e, a, b, MulOptions{Method: m})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if ex.Params != rep.Params {
			t.Fatalf("%v: explain params %v, executed %v", m, ex.Params, rep.Params)
		}
		if ex.RepartitionBytes != rep.Comm.RepartitionBytes {
			t.Fatalf("%v: explain repartition %d, executed %d", m, ex.RepartitionBytes, rep.Comm.RepartitionBytes)
		}
		if ex.AggregationBytes != rep.Comm.AggregationBytes {
			t.Fatalf("%v: explain aggregation %d, executed %d", m, ex.AggregationBytes, rep.Comm.AggregationBytes)
		}
	}
}

// TestExplainRMMAndGPU explains RMM, and plans the GPU subcuboids of the
// average cuboid the engine's explanation names.
func TestExplainRMMAndGPU(t *testing.T) {
	rng := rand.New(rand.NewSource(86))
	cfg := testConfig()
	e := newTestEngine(t, cfg)
	a := bmat.RandomDense(rng, 16, 16, 4)
	b := bmat.RandomDense(rng, 16, 16, 4)
	ex, err := e.Explain(a, b, MulOptions{Method: MethodRMM})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Method != MethodRMM || ex.Tasks != 16 {
		t.Fatalf("RMM explanation wrong: %+v", ex)
	}
	exAuto, err := e.Explain(a, b, MulOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, sub, err := gpu.AveragePlan(core.ShapeOf(a, b), exAuto.Params, gpu.TaskSpec(cfg.Cluster).MemPerTaskBytes)
	if err != nil || sub.Subcuboids() < 1 {
		t.Fatalf("no subcuboid plan for %v: %v, %v", exAuto.Params, sub, err)
	}
	if exAuto.String() == "" {
		t.Fatal("explanation should render")
	}
}

// TestExplainResolvesLikeRun checks Explain resolves and validates what Run
// runs: off-grid cuboid params are rejected by both, and RMM's task count
// follows the per-call value, else I·J.
func TestExplainResolvesLikeRun(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	a := bmat.RandomDense(rng, 16, 16, 4) // a 4×4×4-block grid
	b := bmat.RandomDense(rng, 16, 16, 4)
	for _, p := range []core.Params{{}, {P: 9, Q: 1, R: 1}, {P: 1, Q: 0, R: 1}, {P: 1, Q: 1, R: 5}} {
		e := newTestEngine(t, testConfig())
		opts := MulOptions{Method: MethodCuboid, Params: p}
		if ex, err := e.Explain(a, b, opts); err == nil {
			t.Errorf("Explain%v: no error, explained %+v", p, ex)
		}
		if _, _, err := runMul(context.Background(), e, a, b, opts); err == nil {
			t.Errorf("Run%v: no error", p)
		}
	}
	for _, tc := range []struct{ call, want int }{{0, 16}, {5, 5}} {
		ex, err := newTestEngine(t, testConfig()).Explain(a, b, MulOptions{Method: MethodRMM, RMMTasks: tc.call})
		if err != nil {
			t.Fatal(err)
		}
		if ex.Tasks != tc.want {
			t.Errorf("RMM tasks (call %d): explained %d, want %d", tc.call, ex.Tasks, tc.want)
		}
	}
}

func TestSparseOutputPipeline(t *testing.T) {
	// A sparse product comes back CSR-blocked (output-format selection);
	// the element-wise operators must consume it transparently.
	rng := rand.New(rand.NewSource(87))
	e := newTestEngine(t, testConfig())
	a := bmat.RandomSparse(rng, 100, 100, 25, 0.003)
	b := bmat.RandomSparse(rng, 100, 100, 25, 0.003)
	c, err := e.Multiply(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	ref := matrix.Mul(a.ToDense(), b.ToDense()).Dense()

	sum, err := e.Add(context.Background(), c, c)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.ToDense().EqualApprox(matrix.Scale(2, ref), 1e-9) {
		t.Fatal("Add over sparse product wrong")
	}
	had, err := e.Hadamard(context.Background(), c, c)
	if err != nil {
		t.Fatal(err)
	}
	if !had.ToDense().EqualApprox(matrix.Hadamard(ref, ref), 1e-9) {
		t.Fatal("Hadamard over sparse product wrong")
	}
	tr, err := e.Transpose(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.ToDense().EqualApprox(ref.Transpose(), 1e-9) {
		t.Fatal("Transpose over sparse product wrong")
	}
	// And it must multiply again (chained products on compacted outputs).
	sq, err := e.Multiply(context.Background(), c, c)
	if err != nil {
		t.Fatal(err)
	}
	if !sq.ToDense().EqualApprox(matrix.Mul(ref, ref).Dense(), 1e-6) {
		t.Fatal("chained multiply over sparse product wrong")
	}
}

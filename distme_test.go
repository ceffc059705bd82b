package distme_test

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"

	"distme"
	"distme/internal/gpu"
)

func laptopEngine(t *testing.T) *distme.Engine {
	t.Helper()
	cfg := distme.LaptopCluster()
	cfg.LocalWorkers = 4
	cfg.TaskMemBytes = 1 << 30
	cfg.DiskCapacityBytes = 0
	e, err := distme.NewEngine(distme.EngineConfig{Cluster: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestQuickstartFlow(t *testing.T) {
	e := laptopEngine(t)
	rng := rand.New(rand.NewSource(1))
	a := distme.RandomDense(rng, 64, 48, 8)
	b := distme.RandomDense(rng, 48, 32, 8)
	c, report, err := e.Run(context.Background(), distme.PlanMul(distme.PlanVar("a"), distme.PlanVar("b")),
		map[string]*distme.Matrix{"a": a, "b": b})
	if err != nil {
		t.Fatal(err)
	}
	if c.Rows != 64 || c.Cols != 32 {
		t.Fatalf("C is %dx%d", c.Rows, c.Cols)
	}
	if report.Params.Tasks() < 1 {
		t.Fatal("report missing params")
	}
	if report.Comm.CommunicationBytes() <= 0 {
		t.Fatal("report missing communication accounting")
	}
}

func TestPublicIdentityMultiply(t *testing.T) {
	e := laptopEngine(t)
	rng := rand.New(rand.NewSource(2))
	a := distme.RandomSparse(rng, 40, 40, 8, 0.2)
	id := distme.Identity(40, 8)
	c, err := e.Multiply(context.Background(), a, id)
	if err != nil {
		t.Fatal(err)
	}
	if !c.ToDense().EqualApprox(a.ToDense(), 1e-12) {
		t.Fatal("A×I != A through the public API")
	}
}

func TestPublicOptimize(t *testing.T) {
	s := distme.Shape{I: 10, J: 10, K: 10, ABytes: 1 << 24, BBytes: 1 << 24, CBytes: 1 << 24}
	p, err := distme.Optimize(s, 1<<22, 16)
	if err != nil {
		t.Fatal(err)
	}
	if p.Tasks() < 16 {
		t.Fatalf("params %v underuse the 16 slots", p)
	}
	if s.MemBytes(p) > float64(1<<22) {
		t.Fatalf("params %v violate the budget", p)
	}
}

func TestPublicGNMF(t *testing.T) {
	e := laptopEngine(t)
	rng := rand.New(rand.NewSource(3))
	scaled := distme.Netflix.Scaled(0.002)
	v := scaled.RatingMatrix(rng, 16)
	res, err := distme.GNMF(context.Background(), e, v, distme.GNMFOptions{Rank: 4, Iterations: 2, Seed: 1, TrackObjective: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Objectives[1] > res.Objectives[0]*(1+1e-9) {
		t.Fatal("objective increased")
	}
}

func TestPublicStorageRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := distme.RandomSparse(rng, 30, 30, 8, 0.2)
	var buf bytes.Buffer
	if err := distme.SaveMatrix(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := distme.LoadMatrix(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.ToDense().Equal(m.ToDense()) {
		t.Fatal("round trip changed values")
	}
}

// TestPublicGPUPath plugs the simulated GPU into a public engine as its
// local multiplier and reads the device it owns.
func TestPublicGPUPath(t *testing.T) {
	cfg := distme.LaptopCluster()
	cfg.LocalWorkers = 4
	cfg.TaskMemBytes = 1 << 30
	cfg.DiskCapacityBytes = 0
	g := gpu.NewMultiplier(gpu.TaskSpec(cfg))
	e, err := distme.NewEngine(distme.EngineConfig{Cluster: cfg, Local: g})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	a := distme.RandomDense(rng, 32, 32, 8)
	b := distme.RandomDense(rng, 32, 32, 8)
	c, _, err := e.Run(context.Background(), distme.PlanMul(distme.PlanVar("a"), distme.PlanVar("b")),
		map[string]*distme.Matrix{"a": a, "b": b}, distme.WithMulOptions(distme.MulOptions{Method: distme.MethodCPMM}))
	if err != nil {
		t.Fatal(err)
	}
	want, err := laptopEngine(t).Multiply(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !c.ToDense().EqualApprox(want.ToDense(), 1e-9) {
		t.Fatal("GPU product differs from the CPU product")
	}
	st := g.Device.Stats()
	if st.Kernels == 0 {
		t.Fatal("GPU path inactive")
	}
	if u := st.Utilization(); u <= 0 || u > 1 {
		t.Fatalf("utilization %g out of range", u)
	}
}

func TestPaperClusterConstants(t *testing.T) {
	cfg := distme.PaperCluster()
	if cfg.Slots() != 90 {
		t.Fatalf("paper cluster slots = %d", cfg.Slots())
	}
	if cfg.GPUMemPerTaskBytes != 1e9 {
		t.Fatalf("paper θg = %d", cfg.GPUMemPerTaskBytes)
	}
}

func TestPublicPlanAPI(t *testing.T) {
	e := laptopEngine(t)
	rng := rand.New(rand.NewSource(6))
	a := distme.RandomDense(rng, 16, 16, 4)
	b := distme.RandomDense(rng, 16, 16, 4)
	// (A×B)ᵀ through the planner must equal Bᵀ×Aᵀ computed directly.
	expr := distme.PlanT(distme.PlanMul(distme.PlanVar("A"), distme.PlanVar("B")))
	prog, err := distme.CompilePlan(expr)
	if err != nil {
		t.Fatal(err)
	}
	if vars := prog.Vars(); len(vars) != 2 {
		t.Fatalf("compiled plan needs %v, want two inputs", vars)
	}
	got, _, err := e.Run(context.Background(), expr, map[string]*distme.Matrix{"A": a, "B": b})
	if err != nil {
		t.Fatal(err)
	}
	bt, err := e.Transpose(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	at, err := e.Transpose(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Multiply(context.Background(), bt, at)
	if err != nil {
		t.Fatal(err)
	}
	if !got.ToDense().EqualApprox(want.ToDense(), 1e-9) {
		t.Fatal("plan (A×B)ᵀ != Bᵀ×Aᵀ")
	}
}

func TestPublicPageRank(t *testing.T) {
	e := laptopEngine(t)
	rng := rand.New(rand.NewSource(7))
	adj := distme.RandomSparse(rng, 32, 32, 8, 0.1)
	res, err := distme.PageRank(context.Background(), e, adj, distme.PageRankOptions{MaxIterations: 50})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i := 0; i < 32; i++ {
		sum += res.Ranks.At(i, 0)
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("rank mass %g", sum)
	}
}

func TestPublicLoadRatings(t *testing.T) {
	v, err := distme.LoadRatings(strings.NewReader("1\t2\t4.5\n3\t2\t1.0\n"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if v.NNZ() != 2 {
		t.Fatalf("nnz = %d", v.NNZ())
	}
}

func TestPublicGNMFPlanned(t *testing.T) {
	e := laptopEngine(t)
	rng := rand.New(rand.NewSource(8))
	v := distme.Netflix.Scaled(0.001).RatingMatrix(rng, 8)
	res, err := distme.GNMFPlanned(context.Background(), e, v, distme.GNMFOptions{Rank: 2, Iterations: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.W == nil || res.H == nil {
		t.Fatal("missing factors")
	}
}

func TestPublicALSAndSVD(t *testing.T) {
	e := laptopEngine(t)
	rng := rand.New(rand.NewSource(9))
	v := distme.RandomDense(rng, 24, 24, 8)
	als, err := distme.ALS(context.Background(), e, v, distme.ALSOptions{Rank: 3, Iterations: 3, Lambda: 0.1, Seed: 1, TrackObjective: true})
	if err != nil {
		t.Fatal(err)
	}
	if als.Objectives[2] > als.Objectives[0] {
		t.Fatal("ALS objective rose")
	}
	svd, err := distme.SVD(context.Background(), e, v, distme.SVDOptions{Rank: 3, Oversample: 3, PowerIterations: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(svd.S) != 3 || svd.S[0] <= 0 {
		t.Fatalf("SVD values: %v", svd.S)
	}
}

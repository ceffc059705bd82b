package main

import (
	"fmt"
	"math/rand"

	"distme/internal/bmat"
	"distme/internal/core"
	"distme/internal/workload"
)

// operands is one generated job: the pair to multiply and the Freivalds
// probe it will be checked with, want = A·(B·x).
type operands struct {
	a, b *bmat.BlockMatrix
	x    []float64
	want []float64
}

func newOperands(rng *rand.Rand, a, b *bmat.BlockMatrix) operands {
	x := make([]float64, b.Cols)
	for i := range x {
		x[i] = rng.Float64()
	}
	return operands{a: a, b: b, x: x, want: matVec(a, matVec(b, x))}
}

// generator yields the next job of one client. Everything it returns comes
// from the seed it was built with.
type generator func() operands

// spec is one named workload. The program under test never sees the name:
// it receives operands and, through serve.Config, a memory budget.
type spec struct {
	name string
	why  string
	// clients is the number of closed loops, one RPC connection each.
	clients int
	// thetaT is serve.Config.WorkerMemBytes; 0 keeps the 1 GiB default.
	thetaT int64
	// warmup jobs finish set-up; their products are also compared bit for
	// bit with engine.Run.
	warmup int
	// plans is the (P,Q,R) the optimizer returned when the workload was
	// sized, by operand dimensions. A run that sees another plan fails, so
	// an optimizer change cannot pass unnoticed.
	plans map[string]core.Params
	// gens builds one generator per client from the run's seed; salt keeps
	// the set-up, measured and ladder streams apart so cold workloads never
	// repeat a block.
	gens func(seed int64, salt int) []generator
}

func dimsKey(a, b *bmat.BlockMatrix) string {
	return fmt.Sprintf("%dx%dx%d", a.Rows, a.Cols, b.Cols)
}

// coldGens draws fresh content for every job, so no block is ever in a
// worker's cache.
func coldGens(clients int, draw func(*rand.Rand) (a, b *bmat.BlockMatrix)) func(int64, int) []generator {
	return func(seed int64, salt int) []generator {
		gens := make([]generator, clients)
		for c := range gens {
			rng := rand.New(rand.NewSource(seed*1_000_003 + int64(salt)*101 + int64(c)))
			gens[c] = func() operands {
				a, b := draw(rng)
				return newOperands(rng, a, b)
			}
		}
		return gens
	}
}

// poolGens cycles the servebench mix: twelve pairs that repeat, so workers
// hold every block and a job costs its fixed overhead only. Clients start
// half a pool apart.
func poolGens(clients int) func(int64, int) []generator {
	return func(seed int64, _ int) []generator {
		mix := workload.NewServeMix(seed, 8, 2)
		rng := rand.New(rand.NewSource(seed*1_000_003 + 7))
		pool := make([]operands, mix.Len())
		for i := range pool {
			j := mix.Job(i)
			pool[i] = newOperands(rng, j.A, j.B)
		}
		gens := make([]generator, clients)
		for c := range gens {
			next := c * len(pool) / clients
			gens[c] = func() operands {
				o := pool[next%len(pool)]
				next++
				return o
			}
		}
		return gens
	}
}

const (
	denseN     = 768
	denseBlock = 128

	tallN       = 8192
	tallCols    = 64
	tallBlock   = 256
	tallDensity = 0.001

	gnmfWarmup = 2
)

// gnmfDims is gnmf_resident's input: V is rows x cols CSR at the given
// density, factored at the given rank.
type gnmfDims struct {
	rows, cols, rank, block int
	density                 float64
}

var gnmfFull = gnmfDims{rows: 8192, cols: 4096, rank: 128, block: 256, density: 0.01}

// serveSpecs are the three workloads that go through distme-serve.
// gnmf_resident (gnmf.go) uses a session and has no spec.
var serveSpecs = []spec{
	{
		name:    "dense_cold",
		why:     "dense 768^3 fp64, new content every job, 8 cuboids: the GEMM kernel is two thirds of the job, so kernel and aggregation changes show here",
		clients: 1,
		thetaT:  4 << 20,
		warmup:  3,
		plans:   map[string]core.Params{"768x768x768": {P: 2, Q: 2, R: 2}},
		gens: coldGens(1, func(rng *rand.Rand) (a, b *bmat.BlockMatrix) {
			return bmat.RandomDense(rng, denseN, denseN, denseBlock), bmat.RandomDense(rng, denseN, denseN, denseBlock)
		}),
	},
	{
		name:    "sparse_tall",
		why:     "8192^2 CSR at 0.1% times 8192x64 dense, new content every job, 12 cuboids: bytes and framing dominate, the kernel is a tenth",
		clients: 1,
		thetaT:  3 << 20,
		warmup:  3,
		plans:   map[string]core.Params{"8192x8192x64": {P: 3, Q: 1, R: 4}},
		gens: coldGens(1, func(rng *rand.Rand) (a, b *bmat.BlockMatrix) {
			return bmat.RandomSparse(rng, tallN, tallN, tallBlock, tallDensity), bmat.RandomDense(rng, tallN, tallCols, tallBlock)
		}),
	},
	{
		name:    "small_mix",
		why:     "two clients cycle twelve repeating 32..192-dim pairs with a warm block cache: per-job fixed cost only, so always-on bookkeeping shows here",
		clients: 2,
		warmup:  200,
		plans: map[string]core.Params{
			"32x32x32":  {P: 1, Q: 2, R: 1},
			"64x64x64":  {P: 1, Q: 2, R: 1},
			"16x96x16":  {P: 1, Q: 1, R: 2},
			"16x192x16": {P: 1, Q: 1, R: 2},
			"64x16x64":  {P: 1, Q: 2, R: 1},
			"96x16x96":  {P: 1, Q: 2, R: 1},
		},
		gens: poolGens(2),
	},
}

const gnmfWhy = "GNMF iterations over one session with V (8192x4096 CSR at 1%), W and H resident: handles, Session.Run pipelines and peer fetches, no serve; a gain bought at this path's cost shows here"

func workloadNames() []string {
	names := make([]string, 0, len(serveSpecs)+1)
	for _, s := range serveSpecs {
		names = append(names, s.name)
	}
	return append(names, "gnmf_resident")
}

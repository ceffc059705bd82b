// Benchmarks, one per table and figure of the paper's evaluation. Each
// bench regenerates its experiment through internal/experiments — the same
// code the distme-bench command prints — so `go test -bench=.` exercises
// every reproduced result. Laptop-scale measured benches additionally report
// communication bytes as custom metrics.
package distme_test

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"distme"
	"distme/internal/bmat"
	"distme/internal/cluster"
	"distme/internal/core"
	"distme/internal/experiments"
	"distme/internal/gpu"
	"distme/internal/matrix"
	"distme/internal/workload"
)

// benchTables runs a registry experiment once per iteration and fails the
// bench if it errors.
func benchTables(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tables, err := experiments.Run(id)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(tables) == 0 {
			b.Fatalf("%s: no tables", id)
		}
	}
}

// ---- Tables ----

func BenchmarkTable2Formulas(b *testing.B)  { benchTables(b, "table2") }
func BenchmarkTable3Datasets(b *testing.B)  { benchTables(b, "table3") }
func BenchmarkTable4Optimizer(b *testing.B) { benchTables(b, "table4") }
func BenchmarkTable5HPC(b *testing.B)       { benchTables(b, "table5") }

// ---- Figure 6: methods comparison ----

func BenchmarkFig6aGeneralElapsed(b *testing.B)   { benchTables(b, "fig6a") }
func BenchmarkFig6bCommonDimElapsed(b *testing.B) { benchTables(b, "fig6b") }
func BenchmarkFig6cTwoLargeElapsed(b *testing.B)  { benchTables(b, "fig6c") }
func BenchmarkFig6dGeneralComm(b *testing.B)      { benchTables(b, "fig6d") }
func BenchmarkFig6eCommonDimComm(b *testing.B)    { benchTables(b, "fig6e") }
func BenchmarkFig6fTwoLargeComm(b *testing.B)     { benchTables(b, "fig6f") }

// BenchmarkFig6Measured runs the real four-method comparison at laptop
// scale, once per family.
func BenchmarkFig6Measured(b *testing.B) {
	for _, fam := range []struct {
		name string
		f    workload.Family
	}{
		{"General", workload.General},
		{"CommonLargeDim", workload.CommonLargeDim},
		{"TwoLargeDims", workload.TwoLargeDims},
	} {
		b.Run(fam.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Fig6Measured(fam.f, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Figure 7: systems comparison ----

func BenchmarkFig7aSystemsGeneral(b *testing.B)   { benchTables(b, "fig7a") }
func BenchmarkFig7bSystemsCommonDim(b *testing.B) { benchTables(b, "fig7b") }
func BenchmarkFig7cSystemsTwoLarge(b *testing.B)  { benchTables(b, "fig7c") }
func BenchmarkFig7dSparseDense(b *testing.B)      { benchTables(b, "fig7d") }
func BenchmarkFig7eStepRatios(b *testing.B)       { benchTables(b, "fig7e") }
func BenchmarkFig7fSystemComm(b *testing.B)       { benchTables(b, "fig7f") }
func BenchmarkFig7gGPUUtilization(b *testing.B)   { benchTables(b, "fig7g") }
func BenchmarkFig7Measured(b *testing.B)          { benchTables(b, "fig7-measured") }

// ---- Figure 8: GNMF ----

func BenchmarkFig8aGNMFMovieLens(b *testing.B) { benchFig8(b, workload.MovieLens) }
func BenchmarkFig8bGNMFNetflix(b *testing.B)   { benchFig8(b, workload.Netflix) }
func BenchmarkFig8cGNMFYahooMusic(b *testing.B) {
	benchFig8(b, workload.YahooMusic)
}

func benchFig8(b *testing.B, d workload.Dataset) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		// Two iterations per bench rep keep the per-rep cost bounded; the
		// distme-bench command runs the full ten of Figure 8.
		if _, err := experiments.Fig8(d, 0.001, 2, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8dFactorDimension(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8d(0.001, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figure 9 (Appendix B): parameter sweep ----

func BenchmarkFig9ParamSweep(b *testing.B) { benchTables(b, "fig9") }

// ---- Measured micro-benchmarks of the core paths ----

// BenchmarkMultiplyMethods times one real distributed multiplication per
// method at laptop scale and reports shuffle bytes per op.
func BenchmarkMultiplyMethods(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := distme.RandomDense(rng, 512, 512, 64)
	m2 := distme.RandomDense(rng, 512, 512, 64)
	for _, method := range []struct {
		name string
		m    distme.Method
	}{
		{"BMM", distme.MethodBMM},
		{"CPMM", distme.MethodCPMM},
		{"RMM", distme.MethodRMM},
		{"CuboidAuto", distme.MethodAuto},
	} {
		b.Run(method.name, func(b *testing.B) {
			cfg := distme.LaptopCluster()
			cfg.TaskMemBytes = 1 << 30
			cfg.DiskCapacityBytes = 0
			eng, err := distme.NewEngine(distme.EngineConfig{Cluster: cfg})
			if err != nil {
				b.Fatal(err)
			}
			var comm int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, rep, err := eng.Run(context.Background(), distme.PlanMul(distme.PlanVar("a"), distme.PlanVar("b")),
					map[string]*distme.Matrix{"a": a, "b": m2}, distme.WithMulOptions(distme.MulOptions{Method: method.m}))
				if err != nil {
					b.Fatal(err)
				}
				comm = rep.Comm.CommunicationBytes()
			}
			b.ReportMetric(float64(comm), "shuffle-B/op")
		})
	}
}

// BenchmarkMultiplyGPU compares the CPU and simulated-GPU local
// multiplication paths end to end.
func BenchmarkMultiplyGPU(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	a := distme.RandomDense(rng, 512, 512, 64)
	m2 := distme.RandomDense(rng, 512, 512, 64)
	for _, gpuOn := range []bool{false, true} {
		name := "CPU"
		if gpuOn {
			name = "GPU"
		}
		b.Run(name, func(b *testing.B) {
			cfg := distme.LaptopCluster()
			cfg.TaskMemBytes = 1 << 30
			cfg.DiskCapacityBytes = 0
			ecfg := distme.EngineConfig{Cluster: cfg}
			if gpuOn {
				ecfg.Local = gpu.NewMultiplier(gpu.TaskSpec(cfg))
			}
			eng, err := distme.NewEngine(ecfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := eng.Run(context.Background(), distme.PlanMul(distme.PlanVar("a"), distme.PlanVar("b")),
					map[string]*distme.Matrix{"a": a, "b": m2}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOptimizer times the Eq.(2) search at the paper's largest grid
// (100K×100K×100K in 1000-blocks ⇒ 100³ cells), which the paper reports at
// 0.3 s single-threaded.
func BenchmarkOptimizer(b *testing.B) {
	s := distme.Shape{
		I: 100, J: 100, K: 100,
		ABytes: 100_000 * 100_000 * 8,
		BBytes: 100_000 * 100_000 * 8,
		CBytes: 100_000 * 100_000 * 8,
	}
	cfg := distme.PaperCluster()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := distme.Optimize(s, cfg.TaskMemBytes, cfg.Slots()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGNMFIteration times one full GNMF iteration on a Netflix-shaped
// rating matrix.
func BenchmarkGNMFIteration(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	v := distme.Netflix.Scaled(0.004).RatingMatrix(rng, 32)
	cfg := distme.LaptopCluster()
	cfg.TaskMemBytes = 1 << 30
	cfg.DiskCapacityBytes = 0
	eng, err := distme.NewEngine(distme.EngineConfig{Cluster: cfg, TrackLayouts: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := distme.GNMF(context.Background(), eng, v, distme.GNMFOptions{Rank: 8, Iterations: 1, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Extension experiments (the paper's §8 future work, implemented) ----

func BenchmarkExtMultiGPU(b *testing.B)    { benchTables(b, "ext-multigpu") }
func BenchmarkExtLoadBalance(b *testing.B) { benchTables(b, "ext-balance") }
func BenchmarkExtCRMM(b *testing.B)        { benchTables(b, "ext-crmm") }

// BenchmarkPlanCompile times compiling + CSE of the GNMF update plans.
func BenchmarkPlanCompile(b *testing.B) {
	wt := distme.PlanT(distme.PlanVar("W"))
	expr := distme.PlanEMul(distme.PlanVar("H"),
		distme.PlanEDiv(
			distme.PlanMul(wt, distme.PlanVar("V")),
			distme.PlanMul(distme.PlanMul(wt, distme.PlanVar("W")), distme.PlanVar("H")),
			1e-9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := distme.CompilePlan(expr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPageRank times the full power iteration on a 512-node graph.
func BenchmarkPageRank(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	adj := distme.RandomSparse(rng, 512, 512, 64, 0.01)
	cfg := distme.LaptopCluster()
	cfg.TaskMemBytes = 1 << 30
	cfg.DiskCapacityBytes = 0
	eng, err := distme.NewEngine(distme.EngineConfig{Cluster: cfg})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := distme.PageRank(context.Background(), eng, adj, distme.PageRankOptions{MaxIterations: 30}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtSparseCEstimate(b *testing.B) { benchTables(b, "ext-cest") }
func BenchmarkExtChainOrder(b *testing.B)      { benchTables(b, "ext-chain") }

// BenchmarkALSIteration times one alternating-least-squares sweep.
func BenchmarkALSIteration(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	v := distme.RandomDense(rng, 256, 256, 32)
	cfg := distme.LaptopCluster()
	cfg.TaskMemBytes = 1 << 30
	cfg.DiskCapacityBytes = 0
	eng, err := distme.NewEngine(distme.EngineConfig{Cluster: cfg})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := distme.ALS(context.Background(), eng, v, distme.ALSOptions{Rank: 8, Iterations: 1, Lambda: 0.1, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtMPSContention(b *testing.B) { benchTables(b, "ext-mps") }

func BenchmarkExtBlockSize(b *testing.B) { benchTables(b, "ext-blocksize") }

func BenchmarkExtWire(b *testing.B) { benchTables(b, "ext-wire") }

// ---- Local-multiply hot path (kernels + aggregation) ----
//
// Seed-vs-current regression comparisons live in internal/matrix's
// benchmark tests; the benches below track the current kernels and the
// end-to-end multiply at top level so `go test -bench=Kernel` from the repo
// root covers the hot path without package spelunking.

func BenchmarkKernelGemm(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	for _, size := range []int{128, 512} {
		x := matrix.RandomDense(rng, size, size)
		y := matrix.RandomDense(rng, size, size)
		c := matrix.NewDense(size, size)
		flops := 2 * float64(size) * float64(size) * float64(size)
		b.Run(benchSize(size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.Zero()
				matrix.Gemm(c, x, y)
			}
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(flops*float64(b.N)/sec/1e9, "GFLOPS")
			}
		})
	}
}

func BenchmarkKernelCSRMulDense(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	x := matrix.RandomSparse(rng, 2048, 2048, 0.01)
	y := matrix.RandomDense(rng, 2048, 128)
	c := matrix.NewDense(2048, 128)
	for i := 0; i < b.N; i++ {
		c.Zero()
		matrix.CSRMulDense(c, x, y)
	}
}

func BenchmarkKernelDenseMulCSC(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	x := matrix.RandomDense(rng, 512, 512)
	y := matrix.NewCSCFromCSR(matrix.RandomSparse(rng, 512, 512, 0.05))
	c := matrix.NewDense(512, 512)
	for i := 0; i < b.N; i++ {
		c.Zero()
		matrix.DenseMulCSC(c, x, y)
	}
}

func BenchmarkKernelCSRMulCSR(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	x := matrix.RandomSparse(rng, 512, 512, 0.05)
	y := matrix.RandomSparse(rng, 512, 512, 0.05)
	for i := 0; i < b.N; i++ {
		matrix.CSRMulCSR(x, y)
	}
}

// BenchmarkEndToEndAggregation times the whole 3-step executor at R>1 with
// GOMAXPROCS, and with it the aggregation fan-out, at one vs. four, so the
// driver-side merge cost is visible end to end.
func BenchmarkEndToEndAggregation(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	a := bmat.RandomDense(rng, 512, 512, 64)
	m2 := bmat.RandomDense(rng, 512, 512, 64)
	params := core.Params{P: 2, Q: 2, R: 4}
	for _, workers := range []int{1, 4} {
		b.Run("gomaxprocs="+benchSize(workers), func(b *testing.B) {
			cfg := cluster.LaptopConfig()
			cfg.TaskMemBytes = 1 << 30
			cfg.DiskCapacityBytes = 0
			cl, err := cluster.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			env := core.Env{Cluster: cl}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.MultiplyCuboid(context.Background(), a, m2, params, env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchSize(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
